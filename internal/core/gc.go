package core

import (
	"strings"

	"eon/internal/catalog"
	"eon/internal/storage"
)

// RunGC deletes queued shared-storage files that are provably
// unreferenced (§6.5). A file dropped at catalog version V may be
// removed only when (a) the cluster's gossiped minimum running-query
// version exceeds V — no query on any node can still reference it — and
// (b) the truncation version has passed V — a catastrophic revive can no
// longer resurrect the catalog entry that referenced it. It returns the
// number of files deleted.
func (db *DB) RunGC() (int, error) {
	if db.mode != ModeEon {
		return 0, nil // Enterprise deletes locally at drop time
	}
	ctx := db.Context()

	// Gossip: each node reports the minimum catalog version of its
	// running queries (monotonically increasing).
	minQ := ^uint64(0)
	for _, n := range db.Nodes() {
		if !n.Up() {
			continue
		}
		v := n.minQueryVersion(n.catalog.Version())
		if v < minQ {
			minQ = v
		}
	}
	limit := minQ
	if t := db.truncation.Load(); t < limit {
		limit = t
	}

	db.gcMu.Lock()
	var ready []pendingDelete
	var still []pendingDelete
	for _, p := range db.deferred {
		if p.dropVersion <= limit {
			ready = append(ready, p)
		} else {
			still = append(still, p)
		}
	}
	db.deferred = still
	db.gcMu.Unlock()

	deleted := 0
	for _, p := range ready {
		if err := db.shared.Delete(ctx, p.path); err != nil {
			// Requeue on failure; deletion is eventually retried.
			db.gcMu.Lock()
			db.deferred = append(db.deferred, p)
			db.gcMu.Unlock()
			continue
		}
		deleted++
	}
	return deleted, nil
}

// PendingDeletes reports the deferred-deletion queue length.
func (db *DB) PendingDeletes() int {
	db.gcMu.Lock()
	defer db.gcMu.Unlock()
	return len(db.deferred)
}

// ScrubLeakedFiles is the fallback global enumeration (§6.5): it lists
// every data file on shared storage, aggregates the referenced files from
// all node catalogs, skips files whose name carries the instance id of a
// currently running node (concurrently created), and deletes the rest.
// Expensive; run manually after crashes.
func (db *DB) ScrubLeakedFiles() ([]string, error) {
	if db.mode != ModeEon {
		return nil, nil
	}
	ctx := db.Context()

	referenced := map[string]bool{}
	for _, n := range db.Nodes() {
		snap := n.catalog.Snapshot()
		snap.ForEach(catalog.KindStorageContainer, func(o catalog.Object) bool {
			for _, f := range o.(*catalog.StorageContainer).AllFiles() {
				referenced[f.Path] = true
			}
			return true
		})
		snap.ForEach(catalog.KindDeleteVector, func(o catalog.Object) bool {
			referenced[o.(*catalog.DeleteVector).File.Path] = true
			return true
		})
	}
	// Files queued for deferred deletion are known, not leaked.
	db.gcMu.Lock()
	for _, p := range db.deferred {
		referenced[p.path] = true
	}
	db.gcMu.Unlock()

	var livePrefixes []string
	for _, n := range db.Nodes() {
		if n.Up() {
			livePrefixes = append(livePrefixes, storage.InstancePrefix(n.InstanceID()))
		}
	}

	infos, err := db.shared.List(ctx, "data/")
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, fi := range infos {
		if referenced[fi.Key] {
			continue
		}
		skip := false
		for _, p := range livePrefixes {
			if strings.HasPrefix(fi.Key, p) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		if err := db.shared.Delete(ctx, fi.Key); err == nil {
			removed = append(removed, fi.Key)
		}
	}
	return removed, nil
}
