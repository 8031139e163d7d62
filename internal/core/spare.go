package core

import (
	"fmt"

	"eon/internal/catalog"
)

// Warm spares (Eon only). A spare is a fully provisioned cluster member
// held outside every subcluster: it participates in the commit fan-out,
// holds a PASSIVE subscription on every shard — which keeps its catalog
// current and, because commit-time file shipping targets subscribers in
// any state, keeps its depot warm — but serves no queries and owns no
// writes. Promotion on node death is therefore a single catalog commit
// flipping PASSIVE to ACTIVE, not a cold revive with metadata transfer
// and cache warming (paper §3.3 Figure 4, §6.1; the production pattern
// behind the Vertica spare-node deployments).

// spareNames lists the spare nodes in a snapshot, excluding `except`
// (pass "" to exclude none). Rebalance planning ignores these nodes so
// their PASSIVE pre-subscriptions never satisfy the replication factor.
func spareNames(snap *catalog.Snapshot, except string) []string {
	var out []string
	for _, n := range snap.Nodes() {
		if n.Spare && n.Name != except {
			out = append(out, n.Name)
		}
	}
	return out
}

// ensureSpareSubscriptions drives every shard of a spare to PASSIVE,
// resuming whatever an interrupted earlier attempt left behind.
func (db *DB) ensureSpareSubscriptions(name string, warm bool) error {
	for i := 0; i < db.cfg.ShardCount; i++ {
		if err := db.subscribeTo(name, i, warm, catalog.SubPassive); err != nil {
			return err
		}
	}
	return db.subscribeTo(name, catalog.ReplicaShard, warm, catalog.SubPassive)
}

// AddSpare provisions a warm spare: the node registers, catches up on
// the catalog, pre-subscribes PASSIVE to every shard and pre-warms its
// depot from peers. The call is idempotent — re-running it resumes a
// partially provisioned spare.
func (db *DB) AddSpare(spec NodeSpec) error {
	if db.mode != ModeEon {
		return fmt.Errorf("core: spare nodes require Eon mode")
	}
	if spec.Name == "" {
		return fmt.Errorf("core: spare needs a name")
	}
	if existing, ok := db.Node(spec.Name); ok {
		if !existing.Spare() {
			return fmt.Errorf("core: node %q already exists and is not a spare", spec.Name)
		}
		if !existing.Up() {
			return fmt.Errorf("core: spare %q is down; recover it instead", spec.Name)
		}
	} else if err := db.joinNode(spec, true); err != nil {
		return err
	}
	init, err := db.anyUpNode()
	if err != nil {
		return err
	}
	if _, ok := init.catalog.Snapshot().NodeByName(spec.Name); !ok {
		txn := init.catalog.Begin()
		txn.Put(&catalog.Node{
			OID: init.catalog.NewOID(), Name: spec.Name,
			Subcluster: spec.Subcluster, Spare: true,
		})
		if _, err := db.commit(init, txn, nil); err != nil {
			return err
		}
	}
	return db.ensureSpareSubscriptions(spec.Name, true)
}

// PromoteSpare installs a warm spare into a subcluster as a serving
// member: one catalog commit flips its PASSIVE subscriptions to ACTIVE
// and clears the spare flag. No catch-up, metadata transfer or cache
// warm is needed — the spare tracked all three continuously. Queued
// queries are kicked so they can re-plan onto the new member.
func (db *DB) PromoteSpare(name, subcluster string) error {
	if db.mode != ModeEon {
		return fmt.Errorf("core: spare nodes require Eon mode")
	}
	n, ok := db.Node(name)
	if !ok {
		return fmt.Errorf("core: unknown node %q", name)
	}
	if !n.Up() {
		return fmt.Errorf("core: cannot promote down spare %q", name)
	}
	// Finish any incomplete pre-subscription (no-op for a fully staged
	// spare); promotion must leave the node ACTIVE on every shard.
	if err := db.ensureSpareSubscriptions(name, false); err != nil {
		return err
	}
	init, err := db.anyUpNode()
	if err != nil {
		return err
	}
	txn := init.catalog.Begin()
	snap := txn.Base()
	nodeObj, ok := snap.NodeByName(name)
	if !ok {
		return fmt.Errorf("core: node %q missing from catalog", name)
	}
	if !nodeObj.Spare {
		// Already promoted (re-entry after an interrupted earlier call):
		// just redo the local bookkeeping.
		n.setMembership(nodeObj.Subcluster, false)
		db.slots.kick()
		return nil
	}
	c := nodeObj.Clone().(*catalog.Node)
	c.Spare = false
	c.Subcluster = subcluster
	txn.Put(c)
	for _, s := range snap.Subscriptions(name) {
		if s.State == catalog.SubPassive {
			cs := s.Clone().(*catalog.Subscription)
			cs.State = catalog.SubActive
			txn.Put(cs)
		}
	}
	if _, err := db.commit(init, txn, nil); err != nil {
		return err
	}
	n.setMembership(subcluster, false)
	db.ensureSubclusterGauges(subcluster)
	db.slots.kick()
	return nil
}

// WarmSpare refreshes a spare's depot from every serving peer's MRU list
// (files already cached are skipped), returning the files admitted. The
// commit-time ship path keeps spares warm continuously; this covers a
// spare that joined after the working set was loaded or was revived with
// a cold cache.
func (db *DB) WarmSpare(name string) (int, error) {
	if db.mode != ModeEon {
		return 0, fmt.Errorf("core: spare nodes require Eon mode")
	}
	n, ok := db.Node(name)
	if !ok {
		return 0, fmt.Errorf("core: unknown node %q", name)
	}
	if !n.Spare() {
		return 0, fmt.Errorf("core: node %q is not a spare", name)
	}
	if !n.Up() || n.cache == nil {
		return 0, fmt.Errorf("core: spare %q is not running", name)
	}
	warmed := 0
	for _, peer := range db.Nodes() {
		if peer == n || !peer.Up() || peer.Spare() || peer.cache == nil {
			continue
		}
		list := peer.cache.MostRecentlyUsed(n.cache.Capacity())
		warmed += warmFromPeer(db, n, peer, list)
	}
	return warmed, nil
}

// WipeNode kills a node and discards its depot, modeling loss of the
// cloud instance itself rather than a process restart: the replacement
// starts with a cold cache (§5.1). This is the failure mode under which
// warm-spare promotion pays off most against a cold RecoverNode.
func (db *DB) WipeNode(name string) error {
	n, ok := db.Node(name)
	if !ok {
		return fmt.Errorf("core: unknown node %q", name)
	}
	if err := db.KillNode(name); err != nil {
		return err
	}
	if n.cache != nil {
		n.cache.Clear(db.Context())
	}
	return nil
}
