package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"eon/internal/obs"
	"eon/internal/sql"
	"eon/internal/types"
)

// counterVal reads one counter out of the metrics snapshot.
func counterVal(t *testing.T, db *DB, name string) int64 {
	t.Helper()
	return db.Metrics().Counters[name]
}

// rowStrings flattens a result for comparison.
func rowStrings(res *Result) []string {
	var out []string
	for _, row := range res.Rows() {
		var parts []string
		for _, d := range row {
			parts = append(parts, d.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func sameRows(a, b *Result) bool {
	as, bs := rowStrings(a), rowStrings(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestPlanCacheSkipsFrontEnd is the acceptance check for the staged
// lifecycle: a warm plan-cache hit must execute without running the
// lexer, parser or planner — observable as the absence of "parse" and
// "plan" spans in the query profile.
func TestPlanCacheSkipsFrontEnd(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	defer db.Shutdown()
	setupSales(t, db, 40)
	s := db.NewSession()
	s.Trace = true

	cold := mustQuery(t, s, `SELECT region, COUNT(*) FROM sales GROUP BY region ORDER BY region`)
	prof := s.LastProfile()
	if prof.Find("parse") == nil || prof.Find("plan") == nil {
		t.Fatalf("cold query should carry parse and plan spans:\n%s", prof.Text())
	}
	hits0 := counterVal(t, db, "plancache.hits")

	// Same statement modulo whitespace, case and trailing semicolon: the
	// normalized key must match without lexing.
	warm := mustQuery(t, s, "select   region, count(*)\nFROM sales GROUP BY region ORDER BY region;")
	prof = s.LastProfile()
	if sp := prof.Find("parse"); sp != nil {
		t.Fatalf("warm hit ran the parser:\n%s", prof.Text())
	}
	if sp := prof.Find("plan"); sp != nil {
		t.Fatalf("warm hit ran the planner:\n%s", prof.Text())
	}
	if prof.Find("admit") == nil {
		t.Fatalf("warm hit lost its admit stage:\n%s", prof.Text())
	}
	if got := counterVal(t, db, "plancache.hits"); got != hits0+1 {
		t.Fatalf("plancache.hits = %d, want %d", got, hits0+1)
	}
	if !sameRows(cold, warm) {
		t.Fatalf("cached plan changed the answer: %v vs %v", rowStrings(cold), rowStrings(warm))
	}
}

// TestPlanCacheInvalidation checks the plan cache's validity rule: a
// cached plan lives as long as the tables it scans and their projection
// sets are unchanged. Each case runs a statement, applies one catalog
// change, and runs it again; the second run must hit (no plan span) or
// be replanned (plan span, one replan), and must answer as the same
// statement does with both caches bypassed.
func TestPlanCacheInvalidation(t *testing.T) {
	const (
		salesQ = `SELECT region, COUNT(*), SUM(price) FROM sales WHERE sale_id > 3 GROUP BY region ORDER BY region`
		emptyQ = `SELECT id, SUM(v) FROM e GROUP BY id ORDER BY id`
	)
	exec := func(stmts ...string) func(*testing.T, *DB, *Session) {
		return func(t *testing.T, _ *DB, s *Session) {
			for _, q := range stmts {
				mustExec(t, s, q)
			}
		}
	}
	cases := []struct {
		name     string
		q        string
		change   func(*testing.T, *DB, *Session)
		survives bool
	}{
		{"insert", salesQ, exec(`INSERT INTO sales VALUES (99, 'ada', 7.0, 'east')`), true},
		{"copy", salesQ, func(t *testing.T, db *DB, _ *Session) {
			b := types.BatchFromRows(types.Schema{
				{Name: "sale_id", Type: types.Int64}, {Name: "customer", Type: types.Varchar},
				{Name: "price", Type: types.Float64}, {Name: "region", Type: types.Varchar},
			}, []types.Row{{types.NewInt(100), types.NewString("grace"), types.NewFloat(3), types.NewString("west")}})
			if err := db.LoadRows("sales", b); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"delete", salesQ, exec(`DELETE FROM sales WHERE sale_id < 10`), true},
		{"mergeout", salesQ, func(t *testing.T, db *DB, _ *Session) {
			if st, err := db.RunMergeout(); err != nil || st.Jobs == 0 {
				t.Fatalf("mergeout ran %d jobs, err %v; want some", st.Jobs, err)
			}
		}, true},
		{"create_unrelated_table", salesQ, exec(`CREATE TABLE bump (k INTEGER)`), true},
		{"alter_unrelated_table", salesQ, exec(`ALTER TABLE other ADD COLUMN c INTEGER DEFAULT 0`), true},
		{"add_column", salesQ, exec(`ALTER TABLE sales ADD COLUMN c INTEGER DEFAULT sale_id + 1`), false},
		{"create_projection", emptyQ, exec(`CREATE PROJECTION e_p2 AS SELECT v, id FROM e ORDER BY v SEGMENTED BY HASH(v) ALL NODES`), false},
		{"live_aggregate_projection", emptyQ, exec(`CREATE PROJECTION e_agg AS SELECT id, SUM(v) AS sv FROM e GROUP BY id`), false},
		{"drop_and_recreate", salesQ, func(t *testing.T, db *DB, s *Session) {
			mustExec(t, s, `DROP TABLE sales`)
			setupSales(t, db, 20)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := newTestDB(t, ModeEon, 3, 3)
			defer db.Shutdown()
			setupSales(t, db, 30)
			s := db.NewSession()
			// Three more loads give every shard four containers to merge.
			for load := 1; load <= 3; load++ {
				var rows []string
				for id := 30*load + 1; id <= 30*load+30; id++ {
					rows = append(rows, fmt.Sprintf("(%d, 'ada', %d.0, 'east')", id, id%7))
				}
				mustExec(t, s, `INSERT INTO sales VALUES `+strings.Join(rows, ", "))
			}
			mustExec(t, s, `CREATE TABLE other (k INTEGER)`)
			mustExec(t, s, `CREATE TABLE e (id INTEGER, v INTEGER)`)
			mustExec(t, s, `CREATE PROJECTION e_p1 AS SELECT * FROM e ORDER BY id SEGMENTED BY HASH(id) ALL NODES`)
			s.Trace = true
			mustQuery(t, s, tc.q)
			tc.change(t, db, s)

			hits0, replans0 := counterVal(t, db, "plancache.hits"), counterVal(t, db, "plancache.replans")
			got := mustQuery(t, s, tc.q)
			prof := s.LastProfile()
			hits, replans := counterVal(t, db, "plancache.hits")-hits0, counterVal(t, db, "plancache.replans")-replans0
			if planned := prof.Find("plan") != nil; planned == tc.survives {
				t.Errorf("plan span present = %v, want %v:\n%s", planned, !tc.survives, prof.Text())
			}
			wantHits, wantReplans := int64(1), int64(0)
			if !tc.survives {
				wantHits, wantReplans = 0, 1
			}
			if hits != wantHits || replans != wantReplans {
				t.Errorf("plancache.hits +%d, plancache.replans +%d; want +%d, +%d", hits, replans, wantHits, wantReplans)
			}
			stmt, err := sql.Parse(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := db.NewSession().QuerySelect(stmt.(*sql.Select)) // bypasses both caches
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(got, want) {
				t.Errorf("cached path answered %v, uncached %v", rowStrings(got), rowStrings(want))
			}
		})
	}
}

// TestPlanCacheHitAllocs pins the validity check of a plan-cache hit at
// zero allocations: it compares the recorded (OID, ModVersion) pairs with
// the snapshot in place.
func TestPlanCacheHitAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	db := newTestDB(t, ModeEon, 3, 3)
	defer db.Shutdown()
	setupSales(t, db, 30)
	q := `SELECT s.customer, COUNT(*) FROM sales s JOIN sales t ON s.sale_id = t.sale_id GROUP BY s.customer`
	mustQuery(t, db.NewSession(), q)
	init, err := db.anyUpNode()
	if err != nil {
		t.Fatal(err)
	}
	snap, norm := init.catalog.Snapshot(), sql.Normalize(q)
	if _, ok := db.planCache.lookup(norm, false, snap); !ok {
		t.Fatal("statement not cached")
	}
	if n := testing.AllocsPerRun(100, func() { db.planCache.lookup(norm, false, snap) }); n != 0 {
		t.Fatalf("plan-cache hit allocates %.1f times, want 0", n)
	}
}

func TestPreparedStatements(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	defer db.Shutdown()
	setupSales(t, db, 25)
	s := db.NewSession()

	ps, err := s.Prepare(`SELECT customer FROM sales WHERE sale_id = $1`)
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", ps.NumParams())
	}
	res, err := ps.Query(types.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Rows()[0][0].S != "ada" {
		t.Fatalf("ps.Query($1=1) = %v", rowStrings(res))
	}
	res, err = ps.Query(types.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Rows()[0][0].S != "grace" {
		t.Fatalf("ps.Query($1=2) = %v", rowStrings(res))
	}

	if _, err := ps.Query(); err == nil || !strings.Contains(err.Error(), "parameters") {
		t.Fatalf("arg-count mismatch not rejected: %v", err)
	}
	if _, err := s.Prepare(`CREATE TABLE nope (a INTEGER)`); err == nil {
		t.Fatal("Prepare accepted DDL")
	}
	pe0 := counterVal(t, db, "query.parse_errors")
	if _, err := s.Prepare(`SELEKT garbage`); err == nil {
		t.Fatal("Prepare accepted garbage")
	}
	if got := counterVal(t, db, "query.parse_errors"); got != pe0+1 {
		t.Fatalf("query.parse_errors = %d, want %d", got, pe0+1)
	}

	// A re-executed prepared statement rides the plan cache: after the
	// first execution, later ones skip the front end entirely.
	s.Trace = true
	if _, err := ps.Query(types.NewInt(3)); err != nil {
		t.Fatal(err)
	}
	if prof := s.LastProfile(); prof.Find("parse") != nil || prof.Find("plan") != nil {
		t.Fatalf("prepared re-execution ran the front end:\n%s", prof.Text())
	}
}

func TestQueryArgsPositional(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	defer db.Shutdown()
	setupSales(t, db, 25)
	s := db.NewSession()

	res, err := s.QueryArgs(`SELECT customer FROM sales WHERE sale_id = ?`, types.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Rows()[0][0].S != "barbara" {
		t.Fatalf("QueryArgs(?=3) = %v", rowStrings(res))
	}
	if _, err := s.QueryArgs(`SELECT customer FROM sales WHERE sale_id = ?`); err == nil {
		t.Fatal("missing argument not rejected")
	}
	if _, err := s.Query(`SELECT customer FROM sales WHERE sale_id = $1`); err == nil {
		t.Fatal("unbound parameter not rejected")
	}
}

// TestParseErrorAccounting: unparseable input is a failed query, not a
// free operation — on both the Query and Execute entry points.
func TestParseErrorAccounting(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	defer db.Shutdown()
	s := db.NewSession()

	count0 := counterVal(t, db, "query.count")
	errs0 := counterVal(t, db, "query.errors")
	parse0 := counterVal(t, db, "query.parse_errors")
	if _, err := s.Query(`SELEKT 1 FROM nowhere`); err == nil {
		t.Fatal("Query accepted garbage")
	}
	if _, err := s.Execute(`THIS IS NOT SQL`); err == nil {
		t.Fatal("Execute accepted garbage")
	}
	if got := counterVal(t, db, "query.count"); got != count0+2 {
		t.Fatalf("query.count = %d, want %d", got, count0+2)
	}
	if got := counterVal(t, db, "query.errors"); got != errs0+2 {
		t.Fatalf("query.errors = %d, want %d", got, errs0+2)
	}
	if got := counterVal(t, db, "query.parse_errors"); got != parse0+2 {
		t.Fatalf("query.parse_errors = %d, want %d", got, parse0+2)
	}
}

// newServingDB builds an Eon cluster with the result cache enabled.
func newServingDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	if len(cfg.Nodes) == 0 {
		for _, n := range []string{"node1", "node2", "node3"} {
			cfg.Nodes = append(cfg.Nodes, NodeSpec{Name: n})
		}
	}
	cfg.Mode = ModeEon
	if cfg.ShardCount == 0 {
		cfg.ShardCount = 3
	}
	db, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestResultCacheEnterpriseBuddyCopy: with node2 down, Enterprise reads
// node2's segment from the buddy copy on node3 (projectionCopyFor), so a
// cached result depends on that copy too. The copy is changed alone —
// one of its containers dropped — and the next run must miss the cache
// and count what the buddy copy now holds.
func TestResultCacheEnterpriseBuddyCopy(t *testing.T) {
	db, err := Create(Config{
		Mode:  ModeEnterprise,
		Nodes: []NodeSpec{{Name: "node1"}, {Name: "node2"}, {Name: "node3"}},
		// One segment per node: segment 1 is node2's in the base
		// projection and node3's in the buddy.
		ShardCount:       3,
		ResultCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Shutdown()
	setupSales(t, db, 60)
	if err := db.KillNode("node2"); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	count := func() int64 { return mustQuery(t, s, `SELECT COUNT(*) FROM sales`).Row(t, 0)[0].I }
	if got := count(); got != 60 {
		t.Fatalf("COUNT(*) with node2 down = %d, want 60", got)
	}
	hits := counterVal(t, db, "resultcache.hits")
	if got := count(); got != 60 || counterVal(t, db, "resultcache.hits") != hits+1 {
		t.Fatalf("repeat: COUNT(*) = %d, resultcache.hits %d -> %d; want 60 from the cache",
			got, hits, counterVal(t, db, "resultcache.hits"))
	}

	init := mustUp(t, db)
	snap := init.catalog.Snapshot()
	tbl, _ := snap.TableByName("sales")
	txn := init.catalog.Begin()
	var dropped int64
	for _, p := range snap.ProjectionsOf(tbl.OID) {
		if p.BaseOID == 0 {
			continue
		}
		if scs := snap.ContainersOf(p.OID, 1); len(scs) > 0 {
			txn.Delete(scs[0])
			dropped = scs[0].RowCount
		}
	}
	if dropped == 0 {
		t.Fatal("the buddy copy holds no rows of segment 1")
	}
	if _, err := db.commit(init, txn, nil); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 60-dropped {
		t.Fatalf("COUNT(*) after the buddy copy lost %d rows = %d, want %d (stale result served)", dropped, got, 60-dropped)
	}
}

// TestResultCacheServesAndInvalidates: a repeated statement is served
// from the result cache, and any data change the plan depends on — load,
// delete — invalidates it through the catalog fingerprint. Staleness is
// observable as a wrong count; the test proves it never happens.
func TestResultCacheServesAndInvalidates(t *testing.T) {
	db := newServingDB(t, Config{ResultCacheBytes: 1 << 20})
	defer db.Shutdown()
	setupSales(t, db, 40)
	s := db.NewSession()

	q := `SELECT COUNT(*) FROM sales`
	count := func() int64 {
		res := mustQuery(t, s, q)
		return res.Rows()[0][0].I
	}
	if got := count(); got != 40 {
		t.Fatalf("COUNT(*) = %d, want 40", got)
	}
	hits0 := counterVal(t, db, "resultcache.hits")
	if got := count(); got != 40 {
		t.Fatalf("cached COUNT(*) = %d, want 40", got)
	}
	if got := counterVal(t, db, "resultcache.hits"); got != hits0+1 {
		t.Fatalf("resultcache.hits = %d, want %d", got, hits0+1)
	}

	// New data must invalidate: a stale 40 here is the bug this cache
	// design exists to prevent.
	batch := types.NewBatch(types.Schema{
		{Name: "sale_id", Type: types.Int64},
		{Name: "customer", Type: types.Varchar},
		{Name: "price", Type: types.Float64},
		{Name: "region", Type: types.Varchar},
	}, 5)
	for i := 0; i < 5; i++ {
		batch.AppendRow(types.Row{
			types.NewInt(int64(1000 + i)), types.NewString("new"),
			types.NewFloat(1), types.NewString("east"),
		})
	}
	if err := db.LoadRows("sales", batch); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 45 {
		t.Fatalf("COUNT(*) after load = %d, want 45 (stale result served)", got)
	}

	// Deletes flow through delete-vector versions.
	mustExec(t, s, `DELETE FROM sales WHERE sale_id = 1001`)
	if got := count(); got != 44 {
		t.Fatalf("COUNT(*) after delete = %d, want 44 (stale result served)", got)
	}

	// And once the data is quiescent the cache serves again.
	hits1 := counterVal(t, db, "resultcache.hits")
	if got := count(); got != 44 {
		t.Fatalf("COUNT(*) = %d, want 44", got)
	}
	if got := counterVal(t, db, "resultcache.hits"); got != hits1+1 {
		t.Fatalf("resultcache.hits = %d, want %d", got, hits1+1)
	}

	// Parameterized statements cache per argument fingerprint.
	a1, err := s.QueryArgs(`SELECT customer FROM sales WHERE sale_id = $1`, types.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.QueryArgs(`SELECT customer FROM sales WHERE sale_id = $1`, types.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if a1.Rows()[0][0].S == a2.Rows()[0][0].S {
		t.Fatal("different arguments returned the same cached row")
	}

	// BypassCache sessions never read or populate the cache.
	bypass := db.NewSession()
	bypass.BypassCache = true
	hits2 := counterVal(t, db, "resultcache.hits")
	if _, err := bypass.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := counterVal(t, db, "resultcache.hits"); got != hits2 {
		t.Fatalf("BypassCache query hit the result cache")
	}
}

// TestAdmissionControllerUnit exercises the controller directly: FIFO
// order, the concurrency cap, the memory throttle with its admit-alone
// escape, and the deadline-bounded wait.
func TestAdmissionControllerUnit(t *testing.T) {
	t.Run("concurrency", func(t *testing.T) {
		a := newAdmissionController(1, 0)
		rel1, err := a.admit(context.Background(), "n1", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		// Second query times out in the queue.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		if _, err := a.admit(ctx, "n1", "", 0); !errors.Is(err, ErrQueuedTooLong) {
			t.Fatalf("saturated admit = %v, want ErrQueuedTooLong", err)
		}
		if a.timeouts.Value() != 1 {
			t.Fatalf("timeouts = %d, want 1", a.timeouts.Value())
		}
		// FIFO: two waiters are admitted in arrival order as slots free.
		var mu sync.Mutex
		var order []int
		var wg sync.WaitGroup
		ready := make(chan struct{}, 2)
		for i := 1; i <= 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Serialize enqueue order: waiter i parks before i+1 starts.
				<-ready
				rel, err := a.admit(context.Background(), "n1", "", 0)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				time.Sleep(10 * time.Millisecond)
				rel()
			}(i)
			ready <- struct{}{}
			time.Sleep(20 * time.Millisecond)
		}
		rel1()
		wg.Wait()
		if len(order) != 2 || order[0] != 1 || order[1] != 2 {
			t.Fatalf("admission order = %v, want [1 2]", order)
		}
	})

	t.Run("memory", func(t *testing.T) {
		a := newAdmissionController(0, 100)
		relA, err := a.admit(context.Background(), "n1", "", 80)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		if _, err := a.admit(ctx, "n1", "", 50); !errors.Is(err, ErrQueuedTooLong) {
			t.Fatalf("over-budget admit = %v, want ErrQueuedTooLong", err)
		}
		relA()
		// Admit-alone: a budget above the limit still runs when idle.
		relBig, err := a.admit(context.Background(), "n1", "", 500)
		if err != nil {
			t.Fatalf("admit-alone failed: %v", err)
		}
		relBig()
	})

	t.Run("subcluster isolation", func(t *testing.T) {
		a := newAdmissionController(1, 0)
		relA, err := a.admit(context.Background(), "n1", "alpha", 0)
		if err != nil {
			t.Fatal(err)
		}
		// A saturated alpha does not block beta.
		relB, err := a.admit(context.Background(), "n2", "beta", 0)
		if err != nil {
			t.Fatalf("beta blocked by alpha: %v", err)
		}
		relA()
		relB()
	})
}

// TestSessionTimeoutBoundsAdmission: a query that spends its whole
// Session.Timeout parked behind a saturated admission slot fails with
// ErrQueuedTooLong, not a generic deadline error.
func TestSessionTimeoutBoundsAdmission(t *testing.T) {
	db := newServingDB(t, Config{
		SubclusterConcurrency: 1,
		QueryCost:             400 * time.Millisecond,
	})
	defer db.Shutdown()
	setupSales(t, db, 10)

	slow := db.NewSession()
	done := make(chan error, 1)
	go func() {
		_, err := slow.Query(`SELECT COUNT(*) FROM sales`)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the slow query get admitted

	fast := db.NewSession()
	fast.Timeout = 50 * time.Millisecond
	_, err := fast.Query(`SELECT COUNT(*) FROM sales`)
	if !errors.Is(err, ErrQueuedTooLong) {
		t.Fatalf("queued query error = %v, want ErrQueuedTooLong", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("slow query failed: %v", err)
	}
	if got := counterVal(t, db, "admission.timeouts"); got < 1 {
		t.Fatalf("admission.timeouts = %d, want >= 1", got)
	}
}

// TestAdmissionQueuesConcurrent runs more concurrent queries than the
// per-subcluster cap and checks everyone finishes, the queue drains, and
// the waits are visible in the metrics and the Data Collector ring.
func TestAdmissionQueuesConcurrent(t *testing.T) {
	db := newServingDB(t, Config{
		SubclusterConcurrency: 2,
		QueryCost:             20 * time.Millisecond,
	})
	defer db.Shutdown()
	setupSales(t, db, 20)

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			if _, err := s.Query(`SELECT COUNT(*) FROM sales`); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if got := counterVal(t, db, "admission.admitted"); got < 6 {
		t.Fatalf("admission.admitted = %d, want >= 6", got)
	}
	if got := counterVal(t, db, "admission.queued"); got < 1 {
		t.Fatalf("admission.queued = %d, want >= 1 (cap 2, 6 concurrent)", got)
	}
	s := db.NewSession()
	res := mustQuery(t, s, `SELECT a.subcluster, a.running, a.queued FROM v_monitor.admission_queue a`)
	if res.NumRows() != 1 || res.Rows()[0][0].S != "default" {
		t.Fatalf("admission_queue rows = %v", rowStrings(res))
	}
	res = mustQuery(t, s, `SELECT d.state, COUNT(*) FROM v_monitor.dc_admission_waits d GROUP BY d.state ORDER BY d.state`)
	states := map[string]bool{}
	for _, row := range res.Rows() {
		states[row[0].S] = true
	}
	for _, want := range []string{"admitted", "finished", "queued"} {
		if !states[want] {
			t.Fatalf("dc_admission_waits missing %q state: %v", want, rowStrings(res))
		}
	}
}

// TestServingSystemTables smoke-tests the new v_monitor tables.
func TestServingSystemTables(t *testing.T) {
	db := newServingDB(t, Config{ResultCacheBytes: 1 << 20})
	defer db.Shutdown()
	setupSales(t, db, 10)
	s := db.NewSession()

	mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	mustQuery(t, s, `SELECT COUNT(*) FROM sales`) // populate + hit

	res := mustQuery(t, s, `SELECT p.statement, p.params, p.hits FROM v_monitor.plan_cache p`)
	if res.NumRows() < 1 {
		t.Fatal("v_monitor.plan_cache is empty after queries")
	}
	res = mustQuery(t, s, `SELECT r.statement, r.rows, r.hits FROM v_monitor.result_cache r`)
	found := false
	for _, row := range res.Rows() {
		if strings.Contains(row[0].S, "COUNT(*) FROM SALES") {
			found = true
			if row[2].I < 1 {
				t.Fatalf("cached entry has no hits: %v", rowStrings(res))
			}
		}
	}
	if !found {
		t.Fatalf("v_monitor.result_cache missing the hot statement: %v", rowStrings(res))
	}
}
