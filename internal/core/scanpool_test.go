package core

import (
	"fmt"
	"runtime"
	"testing"

	"eon/internal/catalog"
	"eon/internal/colenc"
	"eon/internal/obs"
	"eon/internal/planner"
	"eon/internal/sql"
)

// TestWarmPointQueryBytes: point queries repeated on a warm node reuse
// their node's pooled scan workers, so one run allocates fewer bytes than
// a single 4 096-row INTEGER vector (32 KiB) — decoding a block into new
// vectors per query would cost that per column. The queries alternate
// between a FLOAT and a VARCHAR output column, so the scan column after
// sale_id changes physical class from one query to the next.
func TestWarmPointQueryBytes(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	db := newTestDB(t, ModeEon, 1, 1)
	defer db.Shutdown()
	setupSales(t, db, 20000)
	s := db.NewSession()
	const runs = 50
	query := func(i int) {
		col := [2]string{"price", "customer"}[i%2]
		res := mustQuery(t, s, fmt.Sprintf(`SELECT %s FROM sales WHERE sale_id = %d`, col, 7000+i))
		if res.NumRows() != 1 {
			t.Fatalf("point query returned %d rows, want 1", res.NumRows())
		}
	}
	for i := range 5 {
		query(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		query(i)
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per point query", perQuery)
	if perQuery >= 32<<10 {
		t.Errorf("a warm point query allocates %d bytes, want < %d (one 4096-row INTEGER vector)", perQuery, 32<<10)
	}
}

// warmBytes runs query once per i in [0, warm+runs) and returns the
// bytes the last runs allocated per run.
func warmBytes(warm, runs int, query func(i int)) uint64 {
	for i := range warm {
		query(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		query(warm + i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestWarmScanAggregateBytes: a Q1-shaped query (a range predicate that
// keeps most rows, then a grouped aggregate) repeated on a warm node
// takes its scan's vectors from the node's free list and gives them
// back, so a run allocates no block's worth of values per column: the
// scan lends its decode vectors instead of letting them leave, and the
// aggregate builds its table, states and id scratch in the list.
func TestWarmScanAggregateBytes(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	db := newTestDB(t, ModeEon, 1, 1)
	defer db.Shutdown()
	setupSales(t, db, 20000)
	s := db.NewSession()
	perRun := warmBytes(5, 30, func(i int) {
		res := mustQuery(t, s, fmt.Sprintf(`SELECT region, customer, SUM(price), COUNT(*), AVG(price) FROM sales
			WHERE sale_id <= %d GROUP BY region, customer`, 19000+i))
		if res.NumRows() != 10 {
			t.Fatalf("aggregate returned %d groups, want 10", res.NumRows())
		}
	})
	t.Logf("%d bytes per run", perRun)
	// A run allocated 1.2 MB while every block that passed left with new
	// vectors, about 81 KB while each aggregate built its table anew.
	const limit = 64 << 10
	if perRun > limit {
		t.Errorf("a warm scan and aggregate allocates %d bytes per run, want <= %d", perRun, limit)
	}
}

// TestPointDeleteScanBytes: the scan of a point DELETE on a 4 096-row
// block sizes the survivors' position vectors to the survivors, so on a
// warm node it allocates less than one 4 096-row INTEGER vector (32 KiB),
// where one vector per position column used to be sized to the block.
func TestPointDeleteScanBytes(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	db := newTestDB(t, ModeEon, 1, 1)
	defer db.Shutdown()
	setupSales(t, db, colenc.MaxBlockRows)
	s := db.NewSession()
	init := db.Nodes()[0]
	// Only the scans are measured: each runs on a cut and a plan made
	// beforehand.
	envs := make([]*queryEnv, 35)
	scans := make([]planner.Node, len(envs))
	for i := range envs {
		stmt, err := sql.Parse(fmt.Sprintf(`DELETE FROM sales WHERE sale_id = %d`, 100+i))
		if err != nil {
			t.Fatal(err)
		}
		if envs[i], err = s.selectParticipants(init); err != nil {
			t.Fatal(err)
		}
		plan, err := planner.PlanDML(envs[i].snapshots[init.name], stmt)
		if err != nil {
			t.Fatal(err)
		}
		envs[i].read, scans[i] = map[catalog.OID]readFrom{}, plan.Scans[plan.Rows]
	}
	perRun := warmBytes(5, len(envs)-5, func(i int) {
		found, err := envs[i].run(nil, scans[i])
		if err != nil {
			t.Fatal(err)
		}
		if n := found[0].NumRows(); n != 1 {
			t.Fatalf("point DELETE scan found %d rows, want 1", n)
		}
	})
	t.Logf("%d bytes per point DELETE scan", perRun)
	if perRun >= 32<<10 {
		t.Errorf("a point DELETE's scan allocates %d bytes, want < %d (one 4096-row INTEGER vector)", perRun, 32<<10)
	}
}

// TestFreeListRetention: 20 rounds of mixed query shapes — small and
// large groupings, DISTINCT and COUNT(DISTINCT), a local and a reshuffled
// join, a point query — on a 3-node database leave each node's free list
// within its bound (ScanConcurrency × 8 MiB, DESIGN.md §8) and the heap
// after a collection flat within 5 %. Between queries scan.lent_vectors
// reads 0 and exec.free_bytes what the lists hold.
func TestFreeListRetention(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	db := newTestDB(t, ModeEon, 3, 3)
	defer db.Shutdown()
	setupSales(t, db, 20000)
	s := db.NewSession()
	round := func(i int) {
		for _, q := range []string{
			`SELECT region, customer, SUM(price), COUNT(*) FROM sales WHERE sale_id > %d GROUP BY region, customer`,
			`SELECT sale_id, SUM(price) FROM sales WHERE sale_id > %d GROUP BY sale_id`,
			`SELECT DISTINCT customer, region FROM sales WHERE sale_id > %d`,
			`SELECT COUNT(DISTINCT price) FROM sales WHERE sale_id > %d`,
			`SELECT COUNT(*), SUM(b.price) FROM sales a JOIN sales b ON a.sale_id = b.sale_id WHERE a.sale_id > %d`,
			`SELECT COUNT(*) FROM sales a JOIN sales b ON a.price = b.sale_id WHERE a.sale_id > %d`,
			`SELECT customer FROM sales WHERE sale_id = %d`,
		} {
			// Two literals a query: the plan cache holds every plan
			// after two rounds.
			mustQuery(t, s, fmt.Sprintf(q, 100+i%2))
		}
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	bound := int64(max(db.cfg.ScanConcurrency, 1)) * 8 << 20
	var warm uint64
	for i := range 20 {
		round(i)
		var held int64
		for _, n := range db.Nodes() {
			if b := n.free.HeldBytes(); b > bound {
				t.Fatalf("round %d: %s's free list holds %d bytes, bound %d", i, n.name, b, bound)
			}
			held += n.free.HeldBytes()
		}
		g := db.Metrics().Gauges
		if g["scan.lent_vectors"] != 0 || g["exec.free_bytes"] != held || held == 0 {
			t.Fatalf("round %d: scan.lent_vectors = %d, exec.free_bytes = %d; want 0 and %d (> 0)", i, g["scan.lent_vectors"], g["exec.free_bytes"], held)
		}
		if i == 4 {
			warm = heap()
		}

	}
	end := heap()
	t.Logf("heap after a collection: %d bytes after round 5, %d after round 20", warm, end)
	if float64(end) > 1.05*float64(warm) {
		t.Errorf("heap grew from %d to %d bytes over 15 rounds, want within 5%%", warm, end)
	}
}
