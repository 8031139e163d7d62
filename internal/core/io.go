package core

import (
	"context"
	"sort"
	"sync"
	"time"

	"eon/internal/cache"
	"eon/internal/obs"
	"eon/internal/parallel"
	"eon/internal/resilience"
	"eon/internal/storage"
)

// persistFiles makes a built container's files durable before commit.
// Eon (Figure 8): write into the writer's cache, upload to shared
// storage, and ship to peer subscribers' caches so node-down performance
// stays warm. Enterprise: write to the owner's local disk.
//
// Uploads, and the ships to each peer, fan out ioWidth wide: they wait on
// round trips rather than compute, so a container's files (and, from
// persistShips, a load's containers) cost one round trip, not one each.
// Sorted paths keep cache admission order deterministic when serial.
//
// Shared-storage writes go through the resilient store view (retries
// with jittered backoff, breaker; §5.3), so no extra retry loop wraps
// them here. Cache and peer interactions are best-effort: a failing
// local cache degrades the load to shared-storage-only instead of
// failing it, and a struggling peer is skipped via its breaker.
func (db *DB) persistFiles(ctx context.Context, writer *Node, files map[string][]byte, shardIdx int, noCache bool) error {
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	conc := db.ioConc()

	if db.mode == ModeEnterprise {
		return parallel.ForEach(ctx, len(paths), conc, func(ctx context.Context, _, i int) error {
			return writer.fs.WriteFile(ctx, "data/"+paths[i], files[paths[i]])
		})
	}
	cacheBrk := db.cacheBreakers.For(writer.name)
	err := parallel.ForEach(ctx, len(paths), conc, func(ctx context.Context, _, i int) error {
		path := paths[i]
		data := files[path]
		// 1-2. Write data in the cache (unless the table's shaping
		// policy turns write-through off, §5.2). The cache is an
		// optimization, not a durability point: admission failures count
		// against the node's cache breaker and fall through.
		if !noCache {
			if cacheBrk.Allow() {
				err := writer.cache.Put(ctx, path, data)
				cacheBrk.Record(err != nil)
				if err != nil {
					db.resilient.Counters().Fallback()
				}
			} else {
				db.resilient.Counters().Fallback()
			}
		}
		// 3a. Flush to shared storage (the commit point prerequisite).
		return db.shared.Put(ctx, path, data)
	})
	if err != nil {
		return err
	}
	// 3b. Send to peer subscribers of the shard, in parallel, so their
	// caches are already warm if they take over (§5.2). A peer whose
	// breaker is open is skipped; it will warm from shared storage later.
	// Each peer's files ship through the same bounded pool.
	if noCache {
		return nil
	}
	var wg sync.WaitGroup
	for _, peer := range db.subscriberNodes(shardIdx) {
		if peer == writer || !peer.Up() {
			continue
		}
		brk := db.peerBreakers.For(peer.name)
		if !brk.Allow() {
			continue
		}
		wg.Add(1)
		go func(peer *Node, brk *resilience.Breaker) {
			defer wg.Done()
			_ = parallel.ForEach(ctx, len(paths), conc, func(ctx context.Context, _, i int) error {
				path := paths[i]
				data := files[path]
				err := db.net.Transfer(ctx, writer.name, peer.name, int64(len(data)))
				brk.Record(err != nil)
				if err != nil {
					return nil // peer went down mid-ship; it will warm later
				}
				_ = peer.cache.Put(ctx, path, data)
				return nil
			})
		}(peer, brk)
	}
	wg.Wait()
	return nil
}

// persistShips persists the containers a load built, all at once; the
// first failure cancels the rest, so the caller never reaches its commit.
func (db *DB) persistShips(ctx context.Context, ships []pendingShip, noCache bool) error {
	return parallel.ForEach(ctx, len(ships), db.ioConc(), func(ctx context.Context, _, i int) error {
		return db.persistFiles(ctx, ships[i].writer, ships[i].files, ships[i].shard, noCache)
	})
}

// subscriberNodes returns the nodes subscribed to a shard in states that
// serve or will serve data.
func (db *DB) subscriberNodes(shardIdx int) []*Node {
	n, err := db.anyUpNode()
	if err != nil {
		return nil
	}
	snap := n.catalog.Snapshot()
	var out []*Node
	for _, s := range snap.SubscribersOf(shardIdx) {
		if node, ok := db.Node(s.Node); ok {
			out = append(out, node)
		}
	}
	return out
}

// trackedFetch builds the file-read path for scans on a node, recording
// each file it returns into rec (nil for reads outside a scan). Eon reads
// through the node's cache with a shared-storage fallback (optionally
// bypassing the cache, §5.2); Enterprise reads node-local disk. When the
// node's cache breaker is open the read path degrades gracefully: scans
// go straight to shared storage instead of failing (§5.3).
func (db *DB) trackedFetch(n *Node, bypassCache bool, rec *scanRecord) storage.FetchFunc {
	eon := db.mode == ModeEon
	// Shared-storage reads already retry and hedge inside db.shared.
	fromShared := func(ctx context.Context, path string) ([]byte, error) {
		return db.shared.Get(ctx, path)
	}
	var cacheBrk *resilience.Breaker
	if eon {
		cacheBrk = db.cacheBreakers.For(n.name)
	}
	return func(ctx context.Context, path string) ([]byte, error) {
		start := time.Now()
		var data []byte
		var outcome cache.Outcome
		var err error
		switch {
		case !eon:
			data, err = n.fs.ReadFile(ctx, "data/"+path)
		case !cacheBrk.Allow():
			db.resilient.Counters().Fallback()
			data, err = fromShared(ctx, path)
			outcome = cache.OutcomeMiss
		default:
			data, outcome, err = n.cache.GetTracked(ctx, path, fromShared, bypassCache)
		}
		if err != nil {
			return nil, err
		}
		wait := time.Since(start)
		rec.fetched(len(data), wait, outcome, eon)
		if eon {
			db.dcDepotFetches.Emit(obs.DCEvent{
				Node: n.name, A: path, B: outcomeName(outcome),
				V1: int64(len(data)), V2: int64(wait),
			})
		}
		return data, nil
	}
}

// outcomeName labels a cache outcome for Data Collector events.
func outcomeName(o cache.Outcome) string {
	switch o {
	case cache.OutcomeHit:
		return "hit"
	case cache.OutcomeCoalesced:
		return "coalesced"
	}
	return "miss"
}

// deleteDataFile removes a dropped storage file: immediately from every
// node cache / local disk, and (Eon) queues the shared-storage object for
// deferred deletion once no query or pending revive could reference it
// (§6.5).
func (db *DB) deleteDataFile(ctx context.Context, path string, dropVersion uint64) {
	for _, n := range db.Nodes() {
		if db.mode == ModeEnterprise {
			_ = n.fs.Remove(ctx, "data/"+path)
		} else if n.cache != nil {
			n.cache.Drop(ctx, path)
		}
	}
	if db.mode == ModeEon {
		db.deferDelete(dropVersion, path)
	}
}

// deferDelete queues shared-storage objects for RunGC, deletable once the
// running queries and the truncation version have passed dropVersion.
func (db *DB) deferDelete(dropVersion uint64, paths ...string) {
	db.gcMu.Lock()
	defer db.gcMu.Unlock()
	for _, path := range paths {
		db.deferred = append(db.deferred, pendingDelete{path: path, dropVersion: dropVersion})
	}
}
