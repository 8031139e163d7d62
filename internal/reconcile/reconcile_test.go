package reconcile_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"eon/internal/core"
	"eon/internal/reconcile"
	"eon/internal/types"
)

// newDB builds an Eon cluster with n unnamed-subcluster members.
func newDB(t *testing.T, n, shards int) *core.DB {
	t.Helper()
	var specs []core.NodeSpec
	for i := 0; i < n; i++ {
		specs = append(specs, core.NodeSpec{Name: fmt.Sprintf("node%d", i+1)})
	}
	db, err := core.Create(core.Config{
		Mode:       core.ModeEon,
		Nodes:      specs,
		ShardCount: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// loadSales creates the sales table and loads sale_id = 1..rows, then
// runs one query so the member depots are warm.
func loadSales(t *testing.T, db *core.DB, rows int) {
	t.Helper()
	s := db.NewSession()
	if _, err := s.Execute(`CREATE TABLE sales (sale_id INTEGER, customer VARCHAR, price FLOAT, region VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(`CREATE PROJECTION sales_p1 AS SELECT * FROM sales ORDER BY sale_id SEGMENTED BY HASH(sale_id) ALL NODES`); err != nil {
		t.Fatal(err)
	}
	batch := types.NewBatch(types.Schema{
		{Name: "sale_id", Type: types.Int64},
		{Name: "customer", Type: types.Varchar},
		{Name: "price", Type: types.Float64},
		{Name: "region", Type: types.Varchar},
	}, rows)
	for i := 0; i < rows; i++ {
		batch.AppendRow(types.Row{
			types.NewInt(int64(i + 1)),
			types.NewString("c"),
			types.NewFloat(1),
			types.NewString("east"),
		})
	}
	if err := db.LoadRows("sales", batch); err != nil {
		t.Fatal(err)
	}
	checkSales(t, db, rows)
}

// checkSales asserts COUNT and SUM are exact for sale_id = 1..rows.
func checkSales(t *testing.T, db *core.DB, rows int) {
	t.Helper()
	res, err := db.NewSession().Query(`SELECT COUNT(*), SUM(sale_id) FROM sales`)
	if err != nil {
		t.Fatalf("verification query: %v", err)
	}
	row := res.Batch.Row(0)
	want := int64(rows) * int64(rows+1) / 2
	if row[0].I != int64(rows) || row[1].I != want {
		t.Fatalf("got COUNT=%d SUM=%d, want %d/%d", row[0].I, row[1].I, rows, want)
	}
}

// converge ticks until Converged, failing on Blocked or exhaustion.
func converge(t *testing.T, r *reconcile.Reconciler, rounds int) reconcile.Status {
	t.Helper()
	var st reconcile.Status
	for i := 0; i < rounds; i++ {
		st = r.Tick(context.Background())
		switch st.Code {
		case reconcile.Converged:
			return st
		case reconcile.Blocked:
			t.Fatalf("round %d blocked: %v", i+1, st.Reasons)
		}
		time.Sleep(2 * time.Millisecond) // let cross-round backoff expire
	}
	t.Fatalf("not converged after %d rounds: %s %v (pending %d)",
		rounds, st.Code, st.Reasons, st.Pending)
	return st
}

// The acceptance scenario: a reconciler converges from three different
// perturbations — node death (spare promotion path), a scale-up spec
// change, and node removal via spec shrink — with exact query results
// after each.
func TestReconcileConverges(t *testing.T) {
	db := newDB(t, 3, 3)
	loadSales(t, db, 60)

	spec := reconcile.ClusterSpec{
		Subclusters: []reconcile.SubclusterSpec{{Name: "", Size: 3}},
		Spares:      1,
	}
	r := reconcile.New(db, reconcile.Config{Spec: spec})

	// Initial convergence provisions the warm spare.
	converge(t, r, 20)
	if got := db.Spares(); len(got) != 1 {
		t.Fatalf("spares after initial convergence: %v", got)
	}
	spare := db.Spares()[0]
	if n, _ := db.Node(spare); n.Cache().Stats().BytesCached == 0 {
		t.Fatal("provisioned spare depot is cold")
	}

	// Perturbation 1: instance loss (node dies with its depot). The
	// reconciler must promote the warm spare, remove the husk, and
	// provision a replacement spare.
	if err := db.WipeNode("node2"); err != nil {
		t.Fatal(err)
	}
	converge(t, r, 40)
	checkSales(t, db, 60)
	if n, ok := db.Node(spare); !ok || n.Spare() {
		t.Fatalf("spare %s was not promoted", spare)
	}
	if _, ok := db.Node("node2"); ok {
		t.Fatal("dead node2 not removed")
	}
	if got := db.Spares(); len(got) != 1 || got[0] == spare {
		t.Fatalf("replacement spare not provisioned: %v", got)
	}
	if len(db.UpNodes()) != 4 { // 3 members + 1 spare
		t.Fatalf("up nodes = %v", db.UpNodes())
	}

	// Perturbation 2: scale-up spec change.
	spec.Subclusters[0].Size = 5
	r.SetSpec(spec)
	converge(t, r, 40)
	checkSales(t, db, 60)
	members := 0
	for _, n := range db.Nodes() {
		if n.Up() && !n.Spare() {
			members++
		}
	}
	if members != 5 {
		t.Fatalf("members after scale-up = %d, want 5", members)
	}

	// Perturbation 3: node removal via spec shrink.
	spec.Subclusters[0].Size = 3
	r.SetSpec(spec)
	converge(t, r, 40)
	checkSales(t, db, 60)
	members = 0
	for _, n := range db.Nodes() {
		if n.Up() && !n.Spare() {
			members++
		}
	}
	if members != 3 {
		t.Fatalf("members after shrink = %d, want 3", members)
	}
	if db.IsShutdown() {
		t.Fatal("cluster shut down during reconciliation")
	}

	// The whole run was traced: the last round left a clean profile.
	if p := r.LastProfile(); p == nil || p.Dangling != 0 {
		t.Fatalf("round profile = %+v", p)
	}
}

// A reconcile sequence abandoned mid-flight (crash model) must be
// resumable by a brand-new reconciler: every round re-derives the plan
// from observed state, so no step depends on in-memory progress.
func TestReconcileIdempotentReentry(t *testing.T) {
	db := newDB(t, 3, 3)
	loadSales(t, db, 40)

	spec := reconcile.ClusterSpec{
		Subclusters: []reconcile.SubclusterSpec{{Name: "", Size: 3}},
		Spares:      1,
	}
	// One action per round, so the kill recovery spans several rounds.
	r1 := reconcile.New(db, reconcile.Config{Spec: spec, MaxActionsPerRound: 1})
	converge(t, r1, 30)

	if err := db.WipeNode("node3"); err != nil {
		t.Fatal(err)
	}
	// Execute exactly one step of the recovery (the spare promotion),
	// then "crash" — drop the reconciler on the floor.
	st := r1.Tick(context.Background())
	if st.Code != reconcile.Progressing || st.Pending == 0 {
		t.Fatalf("expected partial progress, got %s pending=%d", st.Code, st.Pending)
	}

	// A fresh reconciler (no memory of r1) finishes the job.
	r2 := reconcile.New(db, reconcile.Config{Spec: spec, MaxActionsPerRound: 1})
	converge(t, r2, 40)
	checkSales(t, db, 40)
	if _, ok := db.Node("node3"); ok {
		t.Fatal("dead node3 not removed after re-entry")
	}
	if got := db.Spares(); len(got) != 1 {
		t.Fatalf("spare pool after re-entry: %v", got)
	}
}

// An action that keeps failing must flip the status to Blocked with a
// reason, and a spec change that removes the impossible demand must
// clear the blockage.
func TestReconcileBlocked(t *testing.T) {
	db, err := core.Create(core.Config{
		Mode:  core.ModeEnterprise,
		Nodes: []core.NodeSpec{{Name: "node1"}, {Name: "node2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Spares are Eon-only: this spec is impossible in Enterprise mode.
	r := reconcile.New(db, reconcile.Config{
		Spec: reconcile.ClusterSpec{
			Subclusters: []reconcile.SubclusterSpec{{Name: "", Size: 2}},
			Spares:      1,
		},
		FailThreshold: 2,
		BackoffBase:   time.Millisecond,
	})
	var st reconcile.Status
	for i := 0; i < 20; i++ {
		st = r.Tick(context.Background())
		if st.Code == reconcile.Blocked {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Code != reconcile.Blocked {
		t.Fatalf("status = %s, want Blocked", st.Code)
	}
	if len(st.Reasons) == 0 {
		t.Fatal("Blocked status carries no reason")
	}

	// Dropping the impossible demand un-blocks the reconciler.
	r.SetSpec(reconcile.ClusterSpec{
		Subclusters: []reconcile.SubclusterSpec{{Name: "", Size: 2}},
	})
	converge(t, r, 10)
}

// A shut-down cluster reports Blocked rather than planning actions.
func TestReconcileShutdownBlocked(t *testing.T) {
	db := newDB(t, 2, 2)
	r := reconcile.New(db, reconcile.Config{Spec: reconcile.ClusterSpec{
		Subclusters: []reconcile.SubclusterSpec{{Name: "", Size: 2}},
	}})
	if err := db.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if st := r.Tick(context.Background()); st.Code != reconcile.Blocked {
		t.Fatalf("status on shut-down cluster = %s, want Blocked", st.Code)
	}
}

// Autoscale: queue pressure grows the subcluster up to Max; sustained
// idleness shrinks it back to Min with settle-round hysteresis.
func TestReconcileAutoscale(t *testing.T) {
	var specs []core.NodeSpec
	for i := 0; i < 2; i++ {
		specs = append(specs, core.NodeSpec{Name: fmt.Sprintf("node%d", i+1)})
	}
	db, err := core.Create(core.Config{
		Mode:       core.ModeEon,
		Nodes:      specs,
		ShardCount: 4,
		ExecSlots:  2, // small slot pool so a burst of queries queues
		QueryCost:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	loadSales(t, db, 40)

	r := reconcile.New(db, reconcile.Config{
		Spec: reconcile.ClusterSpec{
			Subclusters: []reconcile.SubclusterSpec{{Name: "", Size: 2}},
			Autoscale: &reconcile.AutoscalePolicy{
				Subcluster:   "",
				Min:          2,
				Max:          4,
				QueueHigh:    2,
				QueueLow:     0,
				SettleRounds: 2,
			},
		},
	})
	converge(t, r, 10)

	// Pile up more concurrent queries than the cluster has exec slots.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Query(`SELECT COUNT(*) FROM sales`); err != nil {
					return
				}
			}
		}()
	}
	// Tick under load until the reconciler has scaled up.
	grew := false
	for i := 0; i < 200 && !grew; i++ {
		r.Tick(context.Background())
		members := 0
		for _, n := range db.Nodes() {
			if n.Up() && !n.Spare() {
				members++
			}
		}
		grew = members > 2
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if !grew {
		t.Fatal("autoscaler never grew the subcluster under queue pressure")
	}

	// Idle: the reconciler shrinks back to Min and converges there.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := r.Tick(context.Background())
		members := 0
		for _, n := range db.Nodes() {
			if n.Up() && !n.Spare() {
				members++
			}
		}
		if members == 2 && st.Code == reconcile.Converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never shrank back to Min: members=%d status=%s %v", members, st.Code, st.Reasons)
		}
		time.Sleep(2 * time.Millisecond)
	}
	checkSales(t, db, 40)
}
