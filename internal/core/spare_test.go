package core

import (
	"testing"

	"eon/internal/catalog"
	"eon/internal/shard"
)

// TestSpareLifecycle walks a warm spare through its whole life:
// provision (PASSIVE everywhere, depot warmed, invisible to planning and
// queries), stay warm through subsequent loads via the commit-time ship
// path, then promote over a killed member with a single catalog flip.
func TestSpareLifecycle(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 60)
	// Populate the member caches so the spare has something to warm from.
	mustQuery(t, db.NewSession(), `SELECT COUNT(*) FROM sales`)

	if err := db.AddSpare(NodeSpec{Name: "spare1"}); err != nil {
		t.Fatal(err)
	}
	// Idempotent: re-provisioning an existing spare is a no-op.
	if err := db.AddSpare(NodeSpec{Name: "spare1"}); err != nil {
		t.Fatalf("AddSpare re-entry: %v", err)
	}
	if got := db.Spares(); len(got) != 1 || got[0] != "spare1" {
		t.Fatalf("Spares() = %v", got)
	}

	init, _ := db.Node("node1")
	snap := init.Catalog().Snapshot()
	cn, ok := snap.NodeByName("spare1")
	if !ok || !cn.Spare {
		t.Fatalf("catalog node = %+v, want spare", cn)
	}
	subs := snap.Subscriptions("spare1")
	if want := snap.SegmentShardCount() + 1; len(subs) != want {
		t.Fatalf("spare has %d subscriptions, want %d (all shards + replica)", len(subs), want)
	}
	for _, s := range subs {
		if s.State != catalog.SubPassive {
			t.Fatalf("spare subscription on shard %d is %v, want PASSIVE", s.ShardIndex, s.State)
		}
	}
	// The provisioning warm pulled the working set into the spare depot.
	sp, _ := db.Node("spare1")
	if sp.Cache().Stats().BytesCached == 0 {
		t.Fatal("spare depot cold after AddSpare warm")
	}

	// Spares are invisible to rebalance planning: with the spare's
	// PASSIVE subscriptions excluded, a converged cluster plans nothing.
	if acts := shard.PlanRebalance(snap, shard.PlanOptions{
		ReplicationFactor: db.ReplicationFactor(),
		IgnoreNodes:       []string{"spare1"},
	}); len(acts) != 0 {
		t.Fatalf("planner wants %d actions on a converged cluster with a spare", len(acts))
	}
	// Without the exclusion the PASSIVE pre-subscriptions would mask real
	// under-replication — guard the IgnoreNodes contract.
	if acts := shard.PlanRebalance(snap, shard.PlanOptions{ReplicationFactor: db.ReplicationFactor()}); len(acts) != 0 {
		t.Fatalf("spare PASSIVE subs changed unfiltered planning: %d actions", len(acts))
	}

	// New loads ship to PASSIVE subscribers too, keeping the depot warm.
	before := sp.Cache().Stats().BytesCached
	setupMoreSales(t, db, 1000, 40)
	if after := sp.Cache().Stats().BytesCached; after <= before {
		t.Fatalf("spare depot did not grow on load: %d -> %d", before, after)
	}

	// Queries never touch the spare (no ACTIVE subscriptions).
	res := mustQuery(t, db.NewSession(), `SELECT COUNT(*) FROM sales`)
	if res.Row(t, 0)[0].I != 100 {
		t.Fatalf("count = %v", res.Rows())
	}

	// Promotion: kill a member, flip the spare in, exact results resume.
	if err := db.KillNode("node2"); err != nil {
		t.Fatal(err)
	}
	if err := db.PromoteSpare("spare1", ""); err != nil {
		t.Fatal(err)
	}
	snap = init.Catalog().Snapshot()
	cn, _ = snap.NodeByName("spare1")
	if cn.Spare {
		t.Fatal("spare flag survived promotion")
	}
	for _, s := range snap.Subscriptions("spare1") {
		if s.State != catalog.SubActive {
			t.Fatalf("post-promotion subscription on shard %d is %v, want ACTIVE", s.ShardIndex, s.State)
		}
	}
	if sp.Spare() {
		t.Fatal("runtime spare flag survived promotion")
	}
	if v := shard.CheckViability(snap, db.UpNodes()); !v.OK {
		t.Fatalf("cluster not viable after promotion: %s", v.Reason)
	}
	res = mustQuery(t, db.NewSession(), `SELECT COUNT(*), SUM(sale_id) FROM sales`)
	r := res.Row(t, 0)
	var wantSum int64
	for i := 1; i <= 60; i++ {
		wantSum += int64(i)
	}
	for i := 1001; i <= 1040; i++ {
		wantSum += int64(i)
	}
	if r[0].I != 100 || r[1].I != wantSum {
		t.Fatalf("post-promotion result %d/%d, want 100/%d", r[0].I, r[1].I, wantSum)
	}

	// PromoteSpare re-entry after completion is a no-op.
	if err := db.PromoteSpare("spare1", ""); err != nil {
		t.Fatalf("PromoteSpare re-entry: %v", err)
	}
	// The dead husk can now be removed; the cluster stays viable.
	if err := db.RemoveNode("node2"); err != nil {
		t.Fatal(err)
	}
	if db.IsShutdown() {
		t.Fatal("cluster shut down removing the replaced node")
	}
	res = mustQuery(t, db.NewSession(), `SELECT COUNT(*) FROM sales`)
	if res.Row(t, 0)[0].I != 100 {
		t.Fatalf("post-removal count = %v", res.Rows())
	}
	checkSubscribersAgree(t, db)
}

// TestSpareRejected covers the error surface: Enterprise mode, duplicate
// non-spare names, promoting a down spare.
func TestSpareRejected(t *testing.T) {
	ent := newTestDB(t, ModeEnterprise, 2, 2)
	if err := ent.AddSpare(NodeSpec{Name: "s"}); err == nil {
		t.Fatal("AddSpare succeeded in Enterprise mode")
	}

	db := newTestDB(t, ModeEon, 2, 2)
	if err := db.AddSpare(NodeSpec{Name: "node1"}); err == nil {
		t.Fatal("AddSpare reused a member name")
	}
	if err := db.AddSpare(NodeSpec{Name: "spare1"}); err != nil {
		t.Fatal(err)
	}
	if err := db.KillNode("spare1"); err != nil {
		t.Fatal(err)
	}
	if err := db.PromoteSpare("spare1", ""); err == nil {
		t.Fatal("promoted a down spare")
	}
	// A killed spare must not cost the cluster its viability.
	if db.IsShutdown() {
		t.Fatal("losing a spare shut the cluster down")
	}
	// Recovery brings it back as a warm spare, not a member.
	if err := db.RecoverNode("spare1"); err != nil {
		t.Fatal(err)
	}
	sp, _ := db.Node("spare1")
	if !sp.Spare() {
		t.Fatal("recovered spare lost its spare flag")
	}
	checkSubscribersAgree(t, db)
}
