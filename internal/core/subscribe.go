package core

import (
	"context"
	"fmt"

	"eon/internal/catalog"
	"eon/internal/shard"
)

// executeRebalanceActions runs planned subscription changes through the
// §3.3 process: PENDING (create) → metadata transfer → PASSIVE → cache
// warm → ACTIVE for subscriptions; REMOVING → (fault-tolerance check) →
// drop metadata and cache for unsubscriptions.
func (db *DB) executeRebalanceActions(actions []shard.Action) error {
	var subs, unsubs []shard.Action
	for _, a := range actions {
		if a.Unsubscribe {
			unsubs = append(unsubs, a)
		} else {
			subs = append(subs, a)
		}
	}
	for _, a := range subs {
		if err := db.subscribeTo(a.Node, a.ShardIndex, true, catalog.SubActive); err != nil {
			return err
		}
	}
	for _, a := range unsubs {
		if err := db.unsubscribe(a.Node, a.ShardIndex); err != nil {
			return err
		}
	}
	return nil
}

// subscribeTo runs the subscription process for one (node, shard) pair
// (§3.3, Figure 4) up to the target state:
// ACTIVE for serving subscribers, PASSIVE for warm spares that pre-stage
// a shard without serving it. The process resumes idempotently from
// whatever state an earlier, possibly interrupted, attempt left behind —
// a PENDING subscription redoes the metadata transfer, a PASSIVE one
// skips straight to warming/activation — so a crashed reconcile step can
// simply be re-run.
func (db *DB) subscribeTo(nodeName string, shardIdx int, warmCache bool, target catalog.SubState) error {
	if target != catalog.SubActive && target != catalog.SubPassive {
		return fmt.Errorf("core: invalid subscription target %v", target)
	}
	n, ok := db.Node(nodeName)
	if !ok || !n.Up() {
		return fmt.Errorf("core: cannot subscribe down node %q", nodeName)
	}
	init, err := db.anyUpNode()
	if err != nil {
		return err
	}

	// Find what an earlier attempt may have left behind.
	var cur *catalog.Subscription
	for _, s := range init.catalog.Snapshot().Subscriptions(nodeName) {
		if s.ShardIndex == shardIdx {
			cur = s
			break
		}
	}
	var oid catalog.OID
	needTransfer := true
	switch {
	case cur == nil:
		// 1. Create the subscription in PENDING.
		txn := init.catalog.Begin()
		sub := &catalog.Subscription{
			OID: init.catalog.NewOID(), Node: nodeName,
			ShardIndex: shardIdx, State: catalog.SubPending,
		}
		txn.Put(sub)
		if _, err := db.commit(init, txn, nil); err != nil {
			return err
		}
		oid = sub.OID
	case cur.State == catalog.SubActive || cur.State == catalog.SubRemoving:
		return nil // already serving
	case cur.State == catalog.SubPassive:
		if target == catalog.SubPassive {
			return nil
		}
		oid = cur.OID
		needTransfer = false // metadata landed before the PASSIVE commit
	default: // PENDING: resume from the metadata transfer
		oid = cur.OID
	}

	// 2. Metadata transfer from an existing subscriber, under commitMu
	// so both catalogs are at one version: a commit landing between
	// reading the source and writing the node would be half in the copy
	// (a mergeout's deleted inputs would come back next to its output).
	// 3. PENDING -> PASSIVE (the node can now participate in commits).
	var source *Node
	if needTransfer {
		if source, err = db.transferShard(n, shardIdx); err != nil {
			return err
		}
		if err := db.transitionSubscription(oid, catalog.SubPassive); err != nil {
			return err
		}
	} else {
		source = db.pickPeer(shardIdx, nodeName)
	}

	// 4. Cache warming from a peer's MRU list (§5.2), preferring a peer
	// in the same subcluster. Optional: "not all new subscribers will
	// care about cache warming". Spares warm here too, so promotion
	// later finds the depot hot.
	if warmCache && db.mode == ModeEon && source != nil && source.cache != nil {
		list := source.cache.MostRecentlyUsed(n.cache.Capacity())
		warmFromPeer(db, n, source, list)
	}

	if target == catalog.SubPassive {
		return nil
	}

	// 5. PASSIVE -> ACTIVE.
	return db.transitionSubscription(oid, catalog.SubActive)
}

// transferShard makes n's metadata of a shard exactly that of an up
// ACTIVE subscriber, and returns that source (nil if n is the only
// subscriber). Netsim is charged 256 B per object outside commitMu: a
// simulated wait under it would stall every commit. The copy holds
// commitMu, under which every up node has applied every committed
// record, so both sides are at one version. If either side went down
// meanwhile the transfer fails, and a rerun of subscribeTo resumes it.
func (db *DB) transferShard(n *Node, shardIdx int) (*Node, error) {
	source := db.pickPeer(shardIdx, n.name)
	if source == nil {
		return nil, nil
	}
	var bytes int64
	source.catalog.Snapshot().ForEach(0, func(o catalog.Object) bool {
		if o.Shard() == shardIdx {
			bytes += 256 // metadata objects are small
		}
		return true
	})
	if err := db.net.Transfer(db.Context(), source.name, n.name, bytes); err != nil {
		return nil, fmt.Errorf("core: metadata transfer: %w", err)
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if source = db.pickPeer(shardIdx, n.name); source == nil || !n.Up() {
		return nil, fmt.Errorf("core: metadata transfer of shard %d to %s: a side went down", shardIdx, n.name)
	}
	_, err := n.catalog.ReplaceShard(shardIdx, source.catalog.Snapshot())
	return source, err
}

// pickPeer chooses an up ACTIVE subscriber of a shard other than self,
// preferring the same subcluster.
func (db *DB) pickPeer(shardIdx int, self string) *Node {
	init, err := db.anyUpNode()
	if err != nil {
		return nil
	}
	snap := init.catalog.Snapshot()
	selfNode, _ := db.Node(self)
	var fallback *Node
	for _, s := range snap.SubscribersOf(shardIdx, catalog.SubActive, catalog.SubRemoving) {
		if s.Node == self {
			continue
		}
		n, ok := db.Node(s.Node)
		if !ok || !n.Up() {
			continue
		}
		if selfNode != nil && selfNode.Subcluster() != "" && n.Subcluster() == selfNode.Subcluster() {
			return n
		}
		if fallback == nil {
			fallback = n
		}
	}
	return fallback
}

// transitionSubscription commits a legal state change (Figure 4).
func (db *DB) transitionSubscription(oid catalog.OID, to catalog.SubState) error {
	init, err := db.anyUpNode()
	if err != nil {
		return err
	}
	txn := init.catalog.Begin()
	o, ok := txn.Get(oid)
	if !ok {
		return fmt.Errorf("core: subscription %d vanished", oid)
	}
	sub := o.(*catalog.Subscription)
	if !shard.CanTransition(sub.State, to) {
		return fmt.Errorf("core: illegal subscription transition %v -> %v", sub.State, to)
	}
	c := sub.Clone().(*catalog.Subscription)
	c.State = to
	txn.Put(c)
	_, err = db.commit(init, txn, nil)
	return err
}

// unsubscribe runs the removal process: REMOVING → wait for fault
// tolerance → drop metadata, purge cache, drop subscription (§3.3).
func (db *DB) unsubscribe(nodeName string, shardIdx int) error {
	init, err := db.anyUpNode()
	if err != nil {
		return err
	}
	snap := init.catalog.Snapshot()
	var sub *catalog.Subscription
	for _, s := range snap.Subscriptions(nodeName) {
		if s.ShardIndex == shardIdx {
			sub = s
			break
		}
	}
	if sub == nil {
		return nil
	}
	if sub.State == catalog.SubActive {
		if err := db.transitionSubscription(sub.OID, catalog.SubRemoving); err != nil {
			return err
		}
	}
	// The subscription drops only when enough other ACTIVE subscribers
	// exist (replica shard requires one; segment shards the replication
	// factor minus one — at least one).
	min := 1
	if shardIdx != catalog.ReplicaShard {
		min = max(1, db.cfg.ReplicationFactor-1)
	}
	snap = init.catalog.Snapshot()
	for _, s := range snap.Subscriptions(nodeName) {
		if s.ShardIndex == shardIdx {
			sub = s
		}
	}
	if !shard.CanDrop(snap, sub, min) {
		// Leave it REMOVING; it continues serving queries until a later
		// rebalance provides enough subscribers.
		return nil
	}
	// Drop metadata and purge cached files for the shard.
	txn := init.catalog.Begin()
	txn.Delete(sub)
	if _, err := db.commit(init, txn, nil); err != nil {
		return err
	}
	if n, ok := db.Node(nodeName); ok {
		dropped, _ := n.catalog.ReplaceShard(shardIdx, nil)
		if n.cache != nil {
			for _, o := range dropped {
				if sc, ok := o.(*catalog.StorageContainer); ok {
					for _, f := range sc.AllFiles() {
						n.cache.Drop(db.Context(), f.Path)
					}
				}
				if dv, ok := o.(*catalog.DeleteVector); ok {
					n.cache.Drop(db.Context(), dv.File.Path)
				}
			}
		}
	}
	return nil
}

// warmFromPeer performs the byte-based peer cache warm (§6.1): fetch the
// peer's MRU files from the peer itself, falling back to shared storage.
// The peer's breaker shields the warm from a flapping donor: transfer
// failures are recorded, and once the breaker opens remaining files are
// fetched from shared storage directly (§5.3).
func warmFromPeer(db *DB, n *Node, peer *Node, list []string) int {
	brk := db.peerBreakers.For(peer.name)
	warm := func(ctx context.Context, path string) ([]byte, error) {
		if !brk.Allow() {
			db.resilient.Counters().Fallback()
			return db.shared.Get(ctx, path)
		}
		if data, ok := peer.cache.ReadCached(ctx, path); ok {
			err := db.net.Transfer(ctx, peer.name, n.name, int64(len(data)))
			brk.Record(err != nil)
			if err == nil {
				return data, nil
			}
		}
		return db.shared.Get(ctx, path)
	}
	// Warm through the node's scan worker pool: the per-file transfers
	// overlap, which matters when a takeover warms a large MRU list.
	return n.cache.Warm(db.Context(), list, warm, db.cfg.ScanConcurrency)
}
