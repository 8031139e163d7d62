package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"eon/internal/catalog"
	"eon/internal/cluster"
	"eon/internal/objstore"
	"eon/internal/parallel"
)

// metadataPrefix is the shared-storage namespace for catalog uploads,
// qualified by incarnation so each revived cluster writes to a distinct
// location (§3.5).
func (db *DB) metadataPrefix(node string) string {
	return fmt.Sprintf("metadata/%s/%s/", db.incarnation, node)
}

// SyncMetadata uploads each node's new catalog files (transaction logs
// and checkpoints) to shared storage, all nodes side by side, advances
// per-node sync intervals, recomputes the consensus truncation version
// (Figure 5) and writes the next commit point. In the paper this runs on
// a regular configurable interval; the simulation invokes it explicitly
// (and on shutdown).
func (db *DB) SyncMetadata() error {
	if db.mode != ModeEon {
		return nil
	}
	ctx := db.Context()
	nodes := db.Nodes()
	err := parallel.ForEach(ctx, len(nodes), db.ioConc(), func(ctx context.Context, _, i int) error {
		if !nodes[i].Up() {
			return nil
		}
		return db.syncNode(ctx, nodes[i])
	})
	if err != nil {
		return err
	}
	return db.updateTruncationVersion(ctx)
}

// syncNode uploads a node's unsynced catalog files, ioConc of them in
// flight, and then updates its sync interval: checkpoints raise the
// lower bound, transaction logs the upper bound. syncMu is held around
// the bookkeeping only, never across a PUT. A failed round records
// nothing — an interval must not claim a log whose predecessor did not
// arrive — and the retry re-PUTs what did arrive, which is success.
func (db *DB) syncNode(ctx context.Context, n *Node) error {
	p := n.catalog.Persister()
	if p == nil {
		return nil
	}
	files, err := p.ListFiles(ctx)
	if err != nil {
		return err
	}
	var todo []string // base names
	n.syncMu.Lock()
	for _, f := range files {
		base := f.Path[strings.LastIndexByte(f.Path, '/')+1:]
		if _, _, ok := catalog.ParseCatalogFile(base); ok && !n.syncSeen[base] {
			todo = append(todo, base)
		}
	}
	n.syncMu.Unlock()
	err = parallel.ForEach(ctx, len(todo), db.ioConc(), func(ctx context.Context, _, i int) error {
		data, err := n.fs.ReadFile(ctx, p.Dir()+"/"+todo[i])
		if err != nil {
			return err
		}
		// db.shared already retries transient failures; a duplicate upload
		// from an earlier partially-failed sync round is success.
		err = db.shared.Put(ctx, db.metadataPrefix(n.name)+todo[i], data)
		if errors.Is(err, objstore.ErrExists) {
			return nil
		}
		return err
	})
	if err != nil {
		return err
	}
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	for _, base := range todo {
		kind, version, _ := catalog.ParseCatalogFile(base)
		n.syncSeen[base] = true
		if kind == "ckpt" && version > n.syncIv.Lower {
			n.syncIv.Lower = version
		}
		if version > n.syncIv.Upper {
			n.syncIv.Upper = version
		}
	}
	return nil
}

// SyncInterval returns a node's current uploaded-metadata interval.
func (n *Node) SyncInterval() cluster.SyncInterval {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	return n.syncIv
}

// updateTruncationVersion computes the consensus truncation version —
// the minimum across shards of the best subscriber upload (Figure 5) —
// and persists it in the next commit point.
func (db *DB) updateTruncationVersion(ctx context.Context) error {
	leader, err := db.anyUpNode()
	if err != nil {
		return err
	}
	snap := leader.catalog.Snapshot()

	shardSubs := map[int][]string{}
	for _, sh := range snap.Shards() {
		for _, s := range snap.SubscribersOf(sh.Index, catalog.SubActive, catalog.SubRemoving) {
			shardSubs[sh.Index] = append(shardSubs[sh.Index], s.Node)
		}
	}
	intervals := map[string]cluster.SyncInterval{}
	for _, n := range db.Nodes() {
		intervals[n.name] = n.SyncInterval()
	}
	v, ok := cluster.ComputeTruncationVersion(shardSubs, intervals)
	if !ok {
		return nil // nothing synced yet
	}
	if v < db.truncation.Load() {
		return nil // never move the durability point backwards
	}
	db.truncation.Store(v)
	return db.writeClusterInfo(ctx, db.cfg.LeaseDuration)
}

// writeClusterInfo writes the next commit point, carrying the current
// truncation version, and then deletes the one it supersedes: PUT before
// DELETE, so a crash between the two leaves both and revive takes the
// newer (cluster.ReadInfo). A zero lease writes an already-expired
// lease, releasing the storage for immediate revive. infoMu orders
// concurrent writers, so a higher sequence never carries an older
// truncation version.
func (db *DB) writeClusterInfo(ctx context.Context, lease time.Duration) error {
	var nodes []string
	for _, n := range db.Nodes() {
		nodes = append(nodes, n.name)
	}
	db.infoMu.Lock()
	defer db.infoMu.Unlock()
	now := db.now()
	info := &cluster.Info{
		Database:          db.cfg.Name,
		Incarnation:       db.incarnation,
		TruncationVersion: db.truncation.Load(),
		Nodes:             nodes,
		Timestamp:         now,
		LeaseExpiry:       now.Add(lease),
	}
	data, err := info.Marshal()
	if err != nil {
		return err
	}
	key := cluster.InfoKey(db.infoSeq + 1)
	if err := db.shared.Put(ctx, key, data); err != nil {
		return err
	}
	prev := db.infoKey
	db.infoSeq, db.infoKey = db.infoSeq+1, key
	if prev != "" && db.shared.Delete(ctx, prev) != nil {
		db.deferDelete(0, prev) // superseded either way; the next RunGC retries
	}
	return nil
}

// TruncationVersion returns the current durable truncation version.
func (db *DB) TruncationVersion() uint64 { return db.truncation.Load() }

// Shutdown performs a clean stop: remaining catalog logs upload so
// shared storage has a complete record (§3.5), the truncation version
// advances to the final commit, the lease is released, and the nodes
// stop.
func (db *DB) Shutdown() error {
	if db.shutdown.Load() {
		return nil
	}
	ctx := db.Context()
	if db.mode == ModeEon {
		if err := db.SyncMetadata(); err != nil {
			return err
		}
		// Release the lease so a revive can start immediately.
		if err := db.writeClusterInfo(ctx, 0); err != nil {
			return err
		}
	}
	db.shutdown.Store(true)
	for _, n := range db.Nodes() {
		n.up.Store(false)
	}
	return nil
}
