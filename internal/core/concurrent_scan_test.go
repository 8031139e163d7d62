package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eon/internal/objstore"
	"eon/internal/types"
)

// newParallelScanDB builds an Eon cluster tuned to exercise the parallel
// scan path: bundling disabled so every column is its own fetch. Shared
// storage carries a small simulated GET latency so cold fetches from
// concurrent sessions reliably overlap in flight (the coalescing window).
func newParallelScanDB(t *testing.T, scanConc int) *DB {
	t.Helper()
	db, err := Create(Config{
		Mode: ModeEon,
		Nodes: []NodeSpec{
			{Name: "node1"}, {Name: "node2"}, {Name: "node3"},
		},
		ShardCount: 4,
		Shared: objstore.NewSim(objstore.NewMem(), objstore.SimConfig{
			GetLatency: 2 * time.Millisecond,
		}),
		ExecSlots:       16,
		BundleThreshold: -1,
		Seed:            42,
		ScanConcurrency: scanConc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// loadSalesBatches loads the sales fixture in several batches so each
// shard accumulates multiple storage containers.
func loadSalesBatches(t *testing.T, db *DB, batches, rowsPer int) {
	t.Helper()
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE sales (sale_id INTEGER, customer VARCHAR, price FLOAT, region VARCHAR)`)
	mustExec(t, s, `CREATE PROJECTION sales_p1 AS SELECT * FROM sales ORDER BY sale_id SEGMENTED BY HASH(sale_id) ALL NODES`)
	customers := []string{"ada", "grace", "barbara", "shafi", "frances"}
	regions := []string{"east", "west", "north"}
	id := 0
	for b := 0; b < batches; b++ {
		batch := types.NewBatch(types.Schema{
			{Name: "sale_id", Type: types.Int64},
			{Name: "customer", Type: types.Varchar},
			{Name: "price", Type: types.Float64},
			{Name: "region", Type: types.Varchar},
		}, rowsPer)
		for i := 0; i < rowsPer; i++ {
			id++
			batch.AppendRow(types.Row{
				types.NewInt(int64(id)),
				types.NewString(customers[id%len(customers)]),
				types.NewFloat(float64((id % 50) + 1)),
				types.NewString(regions[id%len(regions)]),
			})
		}
		if err := db.LoadRows("sales", batch); err != nil {
			t.Fatal(err)
		}
	}
}

// scanTestQueries are deterministic (ordered or aggregate-only) so their
// results compare byte-for-byte across runs and concurrency levels.
var scanTestQueries = []string{
	`SELECT COUNT(*) FROM sales`,
	`SELECT sale_id, customer, price FROM sales WHERE price > 25 ORDER BY sale_id`,
	`SELECT region, COUNT(*) AS n, SUM(price) AS total FROM sales GROUP BY region ORDER BY region`,
	`SELECT customer, COUNT(*) AS n FROM sales WHERE region = 'east' GROUP BY customer ORDER BY customer`,
}

func renderRows(res *Result) []string {
	out := make([]string, 0, res.NumRows())
	for _, r := range res.Rows() {
		out = append(out, fmt.Sprint(r))
	}
	return out
}

// TestConcurrentSessionsMatchSerial runs many concurrent sessions over
// overlapping shards against the parallel scan pipeline and asserts that
// every result is identical to the serial (ScanConcurrency=1) pipeline's,
// and that cold concurrent misses coalesced onto shared in-flight fetches.
func TestConcurrentSessionsMatchSerial(t *testing.T) {
	const batches, rowsPer = 6, 40

	// Serial baseline.
	serial := newParallelScanDB(t, 1)
	loadSalesBatches(t, serial, batches, rowsPer)
	want := make([][]string, len(scanTestQueries))
	for i, q := range scanTestQueries {
		want[i] = renderRows(mustQuery(t, serial.NewSession(), q))
	}

	// Parallel pipeline, cold caches, many concurrent sessions.
	db := newParallelScanDB(t, 8)
	loadSalesBatches(t, db, batches, rowsPer)
	for _, n := range db.Nodes() {
		n.cache.Clear(db.Context())
	}

	const sessions = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, sessions*len(scanTestQueries))
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.NewSession()
			<-start
			for i, q := range scanTestQueries {
				res, err := s.Query(q)
				if err != nil {
					errs <- fmt.Errorf("session %d query %d: %w", g, i, err)
					return
				}
				got := renderRows(res)
				if len(got) != len(want[i]) {
					errs <- fmt.Errorf("session %d query %d: %d rows, want %d", g, i, len(got), len(want[i]))
					return
				}
				for j := range got {
					if got[j] != want[i][j] {
						errs <- fmt.Errorf("session %d query %d row %d: %s != %s", g, i, j, got[j], want[i][j])
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Cold overlapping scans must have coalesced onto in-flight fetches.
	st := db.ScanStats()
	if st.CoalescedFetches == 0 {
		t.Errorf("CoalescedFetches = 0 after %d cold concurrent sessions; stats=%+v", sessions, st)
	}
	if st.ContainersScanned == 0 || st.Fetches == 0 || st.RowsScanned == 0 {
		t.Errorf("implausible cumulative stats: %+v", st)
	}
}

// TestScanStatsPerQuery checks the per-session snapshot: pruning,
// fetch accounting, cache classification, and the time split.
func TestScanStatsPerQuery(t *testing.T) {
	db := newParallelScanDB(t, 4)
	loadSalesBatches(t, db, 4, 40)

	s := db.NewSession()
	mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	st := s.LastScanStats()
	if st.ContainersScanned == 0 {
		t.Fatalf("no containers scanned: %+v", st)
	}
	if st.Fetches == 0 || st.BytesFetched == 0 {
		t.Errorf("no fetches recorded: %+v", st)
	}
	if st.Wall <= 0 {
		t.Errorf("Wall = %v, want > 0", st.Wall)
	}
	if st.CacheHits+st.CacheMisses != st.Fetches {
		t.Errorf("hits(%d)+misses(%d) != fetches(%d)", st.CacheHits, st.CacheMisses, st.Fetches)
	}

	// A selective predicate on the sort key must prune blocks or whole
	// containers via min/max stats.
	mustQuery(t, s, `SELECT sale_id FROM sales WHERE sale_id = 1 ORDER BY sale_id`)
	st = s.LastScanStats()
	if st.ContainersPruned+st.BlocksPruned == 0 {
		t.Errorf("point query pruned nothing: %+v", st)
	}

	// Warm-cache repeat: all fetches should now be hits.
	mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	st = s.LastScanStats()
	if st.CacheMisses != 0 {
		t.Errorf("warm query missed %d times: %+v", st.CacheMisses, st)
	}
	if st.CacheHits == 0 {
		t.Errorf("warm query recorded no hits: %+v", st)
	}

	// The cumulative DB view accumulates across queries.
	total := db.ScanStats()
	if total.Fetches < st.Fetches || total.ContainersScanned < st.ContainersScanned {
		t.Errorf("cumulative stats smaller than last query: total=%+v last=%+v", total, st)
	}
}
