package core

import (
	"context"
	"errors"
	"fmt"

	"eon/internal/catalog"
	"eon/internal/cluster"
	"eon/internal/hashring"
	"eon/internal/objstore"
	"eon/internal/parallel"
	"eon/internal/resilience"
)

// ErrLeaseHeld is returned when revive finds an unexpired lease — another
// cluster is likely running on the same shared storage (§3.5).
var ErrLeaseHeld = errors.New("core: revive aborted, shared-storage lease still held")

// Revive starts a cluster from shared storage (§3.5) at a cost set by
// what changed since each node's last checkpoint, not by the history:
// read the commit point and check the lease; per node, side by side, LIST
// the old incarnation's uploads once, GET the newest checkpoint at or
// below the truncation version with the logs after it in one round, and
// replay them in memory; repair nodes whose uploads fall short from a
// donor; PUT every node's truncation checkpoint under the new
// incarnation's prefix; and only then write the new commit point — a
// crash at any step leaves a commit point whose prefix revives. The old
// incarnation's objects go on the deferred-delete list for RunGC.
func Revive(cfg Config) (*DB, error) {
	if cfg.Shared == nil {
		return nil, fmt.Errorf("core: revive requires the shared storage")
	}
	cfg.Mode = ModeEon
	ctx := context.Background()

	// Revive is all shared-storage I/O, the paper's "any filesystem
	// access can and will fail" case (§5.3): wrap the store before the
	// very first read so the whole procedure retries and hedges.
	rc := cfg.resilienceConfig()
	rs := resilience.Wrap[objstore.Info](cfg.Shared, rc)

	info, infoKeys, err := cluster.ReadInfo(ctx, rs)
	if err != nil {
		return nil, fmt.Errorf("core: reading the revive commit point: %w", err)
	}

	// Node set defaults to the previous cluster's membership.
	if len(cfg.Nodes) == 0 {
		for _, n := range info.Nodes {
			cfg.Nodes = append(cfg.Nodes, NodeSpec{Name: n})
		}
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	db, err := newDB(cfg, rs, rc)
	if err != nil {
		return nil, err
	}
	if info.LeaseValid(db.now()) {
		return nil, fmt.Errorf("%w (expires %s)", ErrLeaseHeld, info.LeaseExpiry)
	}
	version := info.TruncationVersion
	db.truncation.Store(version)
	db.infoKey = infoKeys[len(infoKeys)-1]
	db.infoSeq, _ = cluster.InfoSeq(db.infoKey)

	// Each node's catalog at the truncation version, from its own uploads.
	oldPrefix := fmt.Sprintf("metadata/%s/", info.Incarnation)
	snaps := make([]*catalog.Snapshot, len(db.order))
	nexts := make([]catalog.OID, len(db.order))
	err = parallel.ForEach(ctx, len(db.order), db.ioConc(), func(ctx context.Context, _, i int) (err error) {
		snaps[i], nexts[i], err = db.replayUploads(ctx, oldPrefix+db.order[i]+"/", version)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Nodes whose uploads fall short of the consensus version are repaired
	// from a donor that reached it (re-subscription repair: the donor
	// snapshot filtered to the node's subscriptions).
	d := 0
	for d < len(snaps) && snaps[d].Version() != version {
		d++
	}
	if d == len(snaps) {
		return nil, fmt.Errorf("core: no node's uploads reach truncation version %d", version)
	}
	donor := snaps[d]
	for i, name := range db.order {
		if snaps[i].Version() != version {
			keep := map[int]bool{}
			for _, s := range donor.Subscriptions(name) {
				keep[s.ShardIndex] = true
			}
			snaps[i], nexts[i] = donor.FilterShards(keep), nexts[d]
		}
	}

	// Each node checkpoints at the truncation version and syncs: that one
	// file is all its disk and the new incarnation's prefix hold, and the
	// prefix holds it before the commit point names the incarnation.
	err = parallel.ForEach(ctx, len(db.order), db.ioConc(), func(ctx context.Context, _, i int) error {
		n := db.nodes[db.order[i]]
		n.catalog.Install(snaps[i], nexts[i])
		if err := n.catalog.Persister().Checkpoint(snaps[i], nexts[i]); err != nil {
			return err
		}
		return db.syncNode(ctx, n)
	})
	if err != nil {
		return nil, err
	}

	// Restore each node's membership attributes (subcluster, spare flag)
	// from the revived catalog — the authoritative record of which nodes
	// were serving members and which were warm spares.
	for _, cn := range donor.Nodes() {
		if n, ok := db.nodes[cn.Name]; ok {
			n.setMembership(cn.Subcluster, cn.Spare)
			db.ensureSubclusterGauges(cn.Subcluster)
		}
	}

	// The ring is fixed by the shard objects in the catalog.
	segCount := donor.SegmentShardCount()
	if segCount == 0 {
		return nil, fmt.Errorf("core: revived catalog has no shards")
	}
	db.ring = hashring.NewRing(segCount)
	db.cfg.ShardCount = segCount

	// Fresh cluster, fresh caches: subscriptions return as they were at
	// the truncation version; nodes listed in the catalog but absent
	// from the new node set would need a rebalance (same set here).

	// Commit point. It supersedes the newest old one, which it deletes;
	// older strays, like the old incarnation's uploads, wait for RunGC.
	if err := db.writeClusterInfo(ctx, cfg.LeaseDuration); err != nil {
		return nil, err
	}
	db.deferDelete(0, infoKeys[:len(infoKeys)-1]...)
	return db, nil
}

// replayUploads rebuilds one node's catalog at the newest version at or
// below limit that its uploads under prefix reach: one LIST, then the
// files of the checkpoint tried — of an older one only if that does not
// decode — fetched ioConc at a time. Everything listed is queued for
// RunGC, which only a DB that Revive returns will ever run.
func (db *DB) replayUploads(ctx context.Context, prefix string, limit uint64) (*catalog.Snapshot, catalog.OID, error) {
	listed, err := db.shared.List(ctx, prefix)
	if err != nil {
		return nil, 0, err
	}
	keys := make([]string, len(listed))
	for i, o := range listed {
		keys[i] = o.Key
	}
	db.deferDelete(0, keys...)
	return catalog.Replay(keys, limit, func(need []string) ([][]byte, error) {
		out := make([][]byte, len(need))
		return out, parallel.ForEach(ctx, len(need), db.ioConc(), func(ctx context.Context, _, i int) (err error) {
			out[i], err = db.shared.Get(ctx, need[i])
			return err
		})
	})
}
