package core

import (
	"fmt"

	"eon/internal/catalog"
	"eon/internal/cluster"
	"eon/internal/shard"
)

// checkViabilityAndMaybeShutdown enforces the §3.4 invariants: if the up
// nodes cannot form a viable cluster (quorum plus ACTIVE coverage of
// every shard), the cluster shuts down to avoid divergence or wrong
// answers.
func (db *DB) checkViabilityAndMaybeShutdown(snap *catalog.Snapshot) shard.Viability {
	v := shard.CheckViability(snap, db.UpNodes())
	if !v.OK {
		db.shutdown.Store(true)
	}
	return v
}

// IsShutdown reports whether the cluster went down due to invariant
// violation or an explicit Shutdown.
func (db *DB) IsShutdown() bool { return db.shutdown.Load() }

// KillNode simulates a node failure: the process state (in-flight
// work) is lost; the node's disk (cache, catalog files)
// survives as instance storage.
func (db *DB) KillNode(name string) error {
	n, ok := db.Node(name)
	if !ok {
		return fmt.Errorf("core: unknown node %q", name)
	}
	if !n.Up() {
		return nil
	}
	n.up.Store(false)
	db.net.SetDown(name, true)
	db.slots.kick() // waiters on the dead node's slots must re-validate
	if init, err := db.anyUpNode(); err == nil {
		db.checkViabilityAndMaybeShutdown(init.catalog.Snapshot())
	} else {
		db.shutdown.Store(true)
	}
	return nil
}

// RecoverNode brings a failed node back (§6.1): the node catches up on
// missed catalog commits and rejoins, its stale ACTIVE subscriptions are
// forced back to PENDING, and each then reruns the subscription process
// (subscribeTo) back to ACTIVE.
func (db *DB) RecoverNode(name string) error {
	n, ok := db.Node(name)
	if !ok {
		return fmt.Errorf("core: unknown node %q", name)
	}
	if n.Up() {
		return nil
	}
	if db.shutdown.Load() {
		return fmt.Errorf("core: cluster is shut down; revive it instead")
	}

	// A restarted process has a fresh instance id (§5.1).
	n.inst.Store(cluster.NewInstanceID())

	// Catch up on missed commits before rejoining the commit fan-out,
	// atomically with marking the node up (incremental shard diffs;
	// §6.1: "re-subscription is less resource intensive").
	db.commitMu.Lock()
	for _, rec := range db.recordsAfter(n.catalog.Version()) {
		if err := n.catalog.Apply(rec, db.keepFuncFor(n)); err != nil {
			db.commitMu.Unlock()
			return fmt.Errorf("core: node %s catch-up failed at v%d: %w", n.name, rec.Version, err)
		}
	}
	n.up.Store(true)
	db.commitMu.Unlock()
	db.net.SetDown(name, false)

	init, err := db.anyUpNode()
	if err != nil {
		return err
	}

	// Force re-subscription: ACTIVE -> PENDING for the recovering node
	// (§3.3), committed by the cluster upon invitation back; then rerun
	// the subscription process on each PENDING shard: metadata transfer,
	// a lukewarm cache warm from a peer, PASSIVE, ACTIVE.
	if db.mode != ModeEon {
		return nil
	}
	txn := init.catalog.Begin()
	for _, s := range txn.Base().Subscriptions(name) {
		if s.State == catalog.SubActive {
			c := s.Clone().(*catalog.Subscription)
			c.State = catalog.SubPending
			txn.Put(c)
		}
	}
	if txn.Pending() {
		if _, err := db.commit(init, txn, nil); err != nil {
			return err
		}
	}
	for _, s := range init.catalog.Snapshot().Subscriptions(name) {
		if s.State == catalog.SubPending {
			if err := db.subscribeTo(name, s.ShardIndex, true, catalog.SubActive); err != nil {
				return err
			}
		}
	}
	return nil
}

// AddNode grows the cluster (§6.4): the new node is registered, the
// rebalancer assigns it subscriptions, metadata transfers and the cache
// warms — no data redistribution is needed because data lives on shared
// storage.
func (db *DB) AddNode(spec NodeSpec) error {
	if db.mode == ModeEnterprise {
		return fmt.Errorf("core: Enterprise node addition requires full data redistribution; not supported in this reproduction")
	}
	init, err := db.anyUpNode() // before the join: never the newcomer
	if err != nil {
		return err
	}
	if err := db.joinNode(spec, false); err != nil {
		return err
	}
	db.ensureSubclusterGauges(spec.Subcluster)
	// Register the node object.
	txn := init.catalog.Begin()
	txn.Put(&catalog.Node{OID: init.catalog.NewOID(), Name: spec.Name, Subcluster: spec.Subcluster})
	if _, err := db.commit(init, txn, nil); err != nil {
		return err
	}
	return db.Rebalance()
}

// joinNode brings a new node, or a new warm spare, into a running
// cluster: it attaches down, and comes up with its catalog caught up to
// the cluster version, atomically with joining the commit fan-out.
func (db *DB) joinNode(spec NodeSpec, spare bool) error {
	n := db.newNode(spec)
	n.spare = spare
	n.up.Store(false)
	if err := db.attach(n, spec.Rack); err != nil {
		return err
	}
	db.hookCacheEvictions(n)
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	for _, rec := range db.recordsAfter(n.catalog.Version()) {
		if err := n.catalog.Apply(rec, db.keepFuncFor(n)); err != nil {
			return fmt.Errorf("core: new node %s catch-up failed: %w", n.name, err)
		}
	}
	n.up.Store(true)
	return nil
}

// RemoveNode drains a node's subscriptions and removes it (§6.4:
// "removing a node is as simple as ensuring any segment served by the
// node is also served by another node").
func (db *DB) RemoveNode(name string) error {
	if db.mode == ModeEnterprise {
		return fmt.Errorf("core: Enterprise node removal requires data redistribution; not supported in this reproduction")
	}
	n, ok := db.Node(name)
	if !ok {
		return fmt.Errorf("core: unknown node %q", name)
	}
	init, err := db.anyUpNode()
	if err != nil {
		return err
	}
	if init == n {
		for _, cand := range db.Nodes() {
			if cand.Up() && cand.name != name {
				init = cand
				break
			}
		}
		if init == n {
			return fmt.Errorf("core: cannot remove the last node")
		}
	}
	// Plan with the node drained, execute the subscription changes, then
	// drop the node object. Spares are invisible to the planner: their
	// PASSIVE pre-subscriptions must not count toward replication.
	planSnap := init.catalog.Snapshot()
	actions := shard.PlanRebalance(planSnap, shard.PlanOptions{
		ReplicationFactor: db.cfg.ReplicationFactor,
		DrainNodes:        []string{name},
		IgnoreNodes:       spareNames(planSnap, name),
	})
	if err := db.executeRebalanceActions(actions); err != nil {
		return err
	}
	txn := init.catalog.Begin()
	snap := txn.Base()
	if node, ok := snap.NodeByName(name); ok {
		txn.Delete(node)
	}
	for _, s := range snap.Subscriptions(name) {
		txn.Delete(s)
	}
	if _, err := db.commit(init, txn, nil); err != nil {
		return err
	}
	n.up.Store(false)
	db.net.SetDown(name, true)
	// Waiters may be parked on the removed node's slots; wake them so they
	// re-validate and retry on surviving nodes (same as KillNode).
	db.slots.kick()
	db.slots.unregister(name)
	db.nodesMu.Lock()
	delete(db.nodes, name)
	for i, o := range db.order {
		if o == name {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
	db.nodesMu.Unlock()
	// The catalog deletion committed while the node was still up, so a
	// concurrent query can have picked the node in between; re-check the
	// §3.4 invariants against the post-removal state the way KillNode
	// does.
	if init2, err := db.anyUpNode(); err == nil {
		db.checkViabilityAndMaybeShutdown(init2.catalog.Snapshot())
	} else {
		db.shutdown.Store(true)
	}
	return nil
}

// Rebalance plans and executes subscription changes so every shard is
// fault tolerant and every subcluster self-sufficient (§3.1, §4.3).
// Warm spares are excluded: their PASSIVE pre-subscriptions neither
// satisfy the replication factor nor receive planned changes.
func (db *DB) Rebalance() error { return db.RebalanceTo(0) }

// RebalanceTo is Rebalance with an explicit replication factor; 0 uses
// the configured one. The reconciler drives spec-level replication
// changes through it.
func (db *DB) RebalanceTo(k int) error {
	if k <= 0 {
		k = db.cfg.ReplicationFactor
	}
	init, err := db.anyUpNode()
	if err != nil {
		return err
	}
	snap := init.catalog.Snapshot()
	actions := shard.PlanRebalance(snap, shard.PlanOptions{
		ReplicationFactor: k,
		IgnoreNodes:       spareNames(snap, ""),
	})
	return db.executeRebalanceActions(actions)
}
