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
// takes its scan's vectors from the node's pool and gives them back, so
// a run allocates no block's worth of values per column: the scan lends
// its decode vectors instead of letting them leave.
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
	// A quarter of what a run allocated while every block that passed
	// left with new vectors (1.2 MB).
	const limit = 256 << 10
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
