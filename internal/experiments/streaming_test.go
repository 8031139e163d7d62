package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"eon/internal/core"
	"eon/internal/objstore"
	"eon/internal/types"
	"eon/internal/workload"
)

// tpchDiffScale is the TPC-H scale of the reference diff: the Eon
// layouts and the reference load the same generated data.
const tpchDiffScale = 0.02

// reference holds every allQueries() answer from a 1-node Enterprise
// database loaded at tpchDiffScale and queried by a RowEngine session.
// It has no shards, no exchange, no gather and no vector kernels, so it
// shares none of the distributed machinery the diff checks. It is built
// once and shared by every layout.
var reference struct {
	once sync.Once
	res  map[string]*core.Result
	err  error
}

func referenceResults(t *testing.T) map[string]*core.Result {
	t.Helper()
	reference.once.Do(func() {
		db, err := NewEnterpriseCluster(1, 0, 0)
		if err == nil {
			err = LoadTPCH(db, tpchDiffScale)
		}
		if err != nil {
			reference.err = err
			return
		}
		s := db.NewSession()
		s.RowEngine = true
		reference.res = map[string]*core.Result{}
		for _, q := range allQueries() {
			res, err := s.Query(q.SQL)
			if err != nil {
				reference.err = fmt.Errorf("%s: %w", q.Name, err)
				return
			}
			reference.res[q.Name] = res
		}
	})
	if reference.err != nil {
		t.Fatalf("reference: %v", reference.err)
	}
	return reference.res
}

// runReferenceDiff loads an Eon cluster of the given shape at
// tpchDiffScale and requires the streaming executor, under the given
// crunch mode, to answer every workload query as the reference does.
// Rows are compared as multisets with floats within workload.FloatTol
// relative: summation order differs between the layouts.
func runReferenceDiff(t *testing.T, nodes, shards, k int, crunch core.CrunchMode) {
	t.Helper()
	want := referenceResults(t)
	db, _, err := NewEonCluster(nodes, shards, k, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadTPCH(db, tpchDiffScale); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	s.Crunch = crunch
	for _, q := range allQueries() {
		got, err := s.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		compareResults(t, q.Name+" (Eon vs reference)", want[q.Name], got, false)
	}
}

// TestStreamingMatchesReferenceSingleNode runs the diff with every shard
// on one node.
func TestStreamingMatchesReferenceSingleNode(t *testing.T) {
	runReferenceDiff(t, 1, 3, 1, core.CrunchOff)
}

// TestStreamingMatchesReferenceCluster runs the diff on three nodes
// (distributed scans, two-phase aggregation and broadcast joins flowing
// through netsim streams).
func TestStreamingMatchesReferenceCluster(t *testing.T) {
	runReferenceDiff(t, 3, 3, 2, core.CrunchOff)
}

// TestStreamingMatchesReferenceFourNodes runs the diff on the
// benchmark's shape: four nodes, four shards, k = 2.
func TestStreamingMatchesReferenceFourNodes(t *testing.T) {
	runReferenceDiff(t, 4, 4, 2, core.CrunchOff)
}

// TestStreamingMatchesReferenceCrunch runs the diff with more nodes than
// shards (four nodes, two shards, every node subscribed to both), under
// each crunch scaling mode (§4.4). Container split loses segmentation,
// so its joins reshuffle both inputs through the exchange.
func TestStreamingMatchesReferenceCrunch(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode core.CrunchMode
	}{{"hash_filter", core.CrunchHashFilter}, {"container_split", core.CrunchContainerSplit}} {
		t.Run(tc.name, func(t *testing.T) { runReferenceDiff(t, 4, 2, 4, tc.mode) })
	}
}

// TestLimitPushdownShipsFewerBytes asserts that LIMIT without ORDER BY
// caps each node's stream before it crosses the interconnect: the bytes
// shipped for a LIMIT query must be a small fraction of the bytes the
// same query ships without the LIMIT, because the gather streams stop
// early.
func TestLimitPushdownShipsFewerBytes(t *testing.T) {
	db, _, err := NewEonCluster(3, 3, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadTPCH(db, 0.02); err != nil {
		t.Fatal(err)
	}
	const fullQ = `SELECT l_orderkey, l_extendedprice FROM lineitem`
	const limitQ = fullQ + ` LIMIT 8`
	s := db.NewSession()

	db.Net().ResetStats()
	res, err := s.Query(fullQ)
	if err != nil {
		t.Fatalf("full scan: %v", err)
	}
	fullRows := res.NumRows()
	fullBytes := db.Net().Stats().Bytes
	if fullRows == 0 || fullBytes == 0 {
		t.Fatalf("full scan shipped nothing (rows=%d bytes=%d)", fullRows, fullBytes)
	}

	db.Net().ResetStats()
	res, err = s.Query(limitQ)
	if err != nil {
		t.Fatalf("limit: %v", err)
	}
	limitBytes := db.Net().Stats().Bytes
	if res.NumRows() != 8 {
		t.Fatalf("limit returned %d rows, want 8", res.NumRows())
	}
	if limitBytes*4 >= fullBytes {
		t.Errorf("LIMIT shipped %d bytes vs %d for the full scan (want <1/4)", limitBytes, fullBytes)
	}
	// The scans the LIMIT stopped gave back every vector they lent.
	if g := db.Metrics().Gauges["scan.lent_vectors"]; g != 0 {
		t.Errorf("scan.lent_vectors = %d after the LIMIT query, want 0", g)
	}
}

// manyContainerDB builds a single-node cluster whose one table is
// spread over many small containers (each load creates one container
// per shard), with a small scan fan-out so the streaming scan's
// prefetch window is a few containers wide.
func manyContainerDB(t *testing.T) (*core.DB, int) {
	t.Helper()
	sim := objstore.NewSim(objstore.NewMem(), SharedStorageSim(1))
	db, err := core.Create(core.Config{
		Mode:            core.ModeEon,
		Nodes:           nodeSpecs(1),
		ShardCount:      3,
		Shared:          sim,
		Net:             ClusterNet(),
		ScanConcurrency: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	for _, q := range []string{
		`CREATE TABLE ev (k INTEGER, v INTEGER)`,
		`CREATE PROJECTION ev_p AS SELECT * FROM ev ORDER BY k SEGMENTED BY HASH(k) ALL NODES`,
	} {
		if _, err := s.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	schema := types.Schema{{Name: "k", Type: types.Int64}, {Name: "v", Type: types.Int64}}
	const loads, perLoad = 40, 300
	id := 0
	for l := 0; l < loads; l++ {
		batch := types.NewBatch(schema, perLoad)
		for r := 0; r < perLoad; r++ {
			id++
			batch.AppendRow(types.Row{types.NewInt(int64(id)), types.NewInt(int64(id % 17))})
		}
		if err := db.LoadRows("ev", batch); err != nil {
			t.Fatal(err)
		}
	}
	return db, loads * perLoad
}

// TestStreamingLimitStopsScanEarly asserts early termination: a LIMIT
// query on the streaming executor must stop pulling — and therefore
// stop scanning — long before the table is exhausted. The scan's
// in-flight window is bounded (ScanConcurrency producers plus a
// two-batch channel), so rows decoded stay far below the full count.
func TestStreamingLimitStopsScanEarly(t *testing.T) {
	db, totalRows := manyContainerDB(t)
	s := db.NewSession()

	res, err := s.Query(`SELECT k, v FROM ev`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != totalRows {
		t.Fatalf("full scan returned %d rows, want %d", res.NumRows(), totalRows)
	}
	full := s.LastScanStats().RowsScanned
	if full < int64(totalRows) {
		t.Fatalf("full scan decoded %d rows, want >= %d", full, totalRows)
	}

	res, err = s.Query(`SELECT k, v FROM ev LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 5 {
		t.Fatalf("limit returned %d rows, want 5", res.NumRows())
	}
	early := s.LastScanStats().RowsScanned
	if early*2 >= full {
		t.Errorf("LIMIT 5 decoded %d of %d rows; early termination should scan far less than half", early, full)
	}
}

// TestQueryMemoryBudgetSpillsAndMatches runs a wide aggregation twice:
// unbudgeted (groups held in memory) and under a budget far smaller
// than the group state. The budgeted run must spill, keep its peak
// governed memory at or under the budget, return byte-identical rows,
// and leave the exec.mem_bytes gauge at zero.
func TestQueryMemoryBudgetSpillsAndMatches(t *testing.T) {
	db, _, err := NewEonCluster(1, 3, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadTPCH(db, 0.02); err != nil {
		t.Fatal(err)
	}
	// Integer-only aggregates so group contents are order-independent;
	// ORDER BY pins the output order for positional comparison.
	const q = `SELECT l_orderkey, l_linenumber, COUNT(*) AS n, SUM(l_partkey) AS s
		FROM lineitem GROUP BY l_orderkey, l_linenumber ORDER BY l_orderkey, l_linenumber`

	free := db.NewSession()
	want, err := free.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	freeStats := free.LastExecStats()
	if freeStats.SpillCount != 0 {
		t.Fatalf("unbudgeted run: stats %+v, want no spills", freeStats)
	}

	const budget = 32 << 10
	tight := db.NewSession()
	tight.MemoryBudget = budget
	got, err := tight.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	st := tight.LastExecStats()
	if st.SpillCount == 0 || st.SpillBytes == 0 {
		t.Fatalf("budgeted run never spilled: stats %+v", st)
	}
	if st.PeakMemBytes <= 0 || st.PeakMemBytes > budget {
		t.Fatalf("peak governed memory %d outside (0, %d]", st.PeakMemBytes, budget)
	}

	if got.NumRows() != want.NumRows() {
		t.Fatalf("%d rows budgeted vs %d unbudgeted", got.NumRows(), want.NumRows())
	}
	wantRows, gotRows := want.Rows(), got.Rows()
	for i := range wantRows {
		for c := range wantRows[i] {
			wd, gd := wantRows[i][c], gotRows[i][c]
			if wd.Null != gd.Null || (!wd.Null && wd.Compare(gd) != 0) {
				t.Fatalf("row %d col %d: budgeted=%v unbudgeted=%v", i, c, gd, wd)
			}
		}
	}

	if g := db.Metrics().Gauges["exec.mem_bytes"]; g != 0 {
		t.Errorf("exec.mem_bytes gauge = %d after queries, want 0", g)
	}
	t.Logf("unbudgeted peak=%dB; budget=%dB -> peak=%dB spills=%d spillBytes=%d",
		freeStats.PeakMemBytes, budget, st.PeakMemBytes, st.SpillCount, st.SpillBytes)
}

// TestStreamingCancellationLeaksNothing cancels queries mid-stream —
// via session deadlines over cold shared storage with injected faults —
// and asserts the pipeline tears down completely: every goroutine
// exits, every span is ended (no dangling spans in the profile), and
// the execution slots are released so later queries still run.
func TestStreamingCancellationLeaksNothing(t *testing.T) {
	simCfg := SharedStorageSim(1)
	simCfg.Faults = &objstore.FaultSchedule{
		Seed: 42,
		// A permanent low-rate transient-failure window: loads retry
		// through it, and cancelled queries tear down mid-retry.
		Windows: []objstore.FaultWindow{{OpRange: objstore.OpRange{From: 0, To: 1 << 40}, Rate: 0.05}},
	}
	sim := objstore.NewSim(objstore.NewMem(), simCfg)
	db, err := core.Create(core.Config{
		Mode:              core.ModeEon,
		Nodes:             nodeSpecs(3),
		ShardCount:        3,
		ReplicationFactor: 2,
		Shared:            sim,
		Net:               ClusterNet(),
		ExecSlots:         8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loadTPCH(db, 0.02); err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	queries := []string{workload.DashboardQuery, workload.NodeDownQuery}
	for _, timeout := range []time.Duration{200 * time.Microsecond, time.Millisecond, 4 * time.Millisecond} {
		s := db.NewSession()
		s.Trace = true
		s.Timeout = timeout
		s.BypassCache = true // keep scans cold so the deadline lands mid-scan
		for i, q := range queries {
			_, err := s.Query(q)
			// The query may finish under the longer deadlines; only the
			// teardown invariants matter here.
			_ = err
			if p := s.LastProfile(); p == nil {
				t.Fatalf("timeout %v query %d: tracing on but no profile", timeout, i)
			} else if p.Dangling != 0 {
				t.Fatalf("timeout %v query %d: %d dangling spans", timeout, i, p.Dangling)
			}
		}
	}

	// Every pipeline goroutine (scan drivers, transfer drivers, channel
	// bridges) must have exited.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+3 {
			break
		}
		if time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked: %d now vs %d before cancellations\n%s",
			runtime.NumGoroutine(), base, buf[:n])
	}

	// Slots must have been released: a fresh, un-deadlined session runs
	// the whole workload to completion.
	s := db.NewSession()
	for _, q := range queries {
		if _, err := s.Query(q); err != nil {
			t.Fatalf("post-cancellation query failed (leaked slots?): %v", err)
		}
	}
	if g := db.Metrics().Gauges["exec.mem_bytes"]; g != 0 {
		t.Errorf("exec.mem_bytes gauge = %d after cancellations, want 0", g)
	}
	if g := db.Metrics().Gauges["scan.lent_vectors"]; g != 0 {
		t.Errorf("scan.lent_vectors gauge = %d after cancellations, want 0", g)
	}
}
