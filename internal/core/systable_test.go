package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"eon/internal/obs"
	"eon/internal/tuplemover"
	"eon/internal/types"
)

// TestVMonitorMetricsSQL runs ordinary SQL over v_monitor.metrics and
// checks the values against an obs.Snapshot taken immediately before.
// Only scan.* counters are compared: a monitoring query never scans
// storage, so they cannot move between the snapshot and the fill.
func TestVMonitorMetricsSQL(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 100)
	s := db.NewSession()
	mustQuery(t, s, `SELECT COUNT(*) FROM sales WHERE price > 10`)

	snap := db.Metrics()
	res := mustQuery(t, s, `SELECT m.name, m.value FROM v_monitor.metrics m
		WHERE m.kind = 'counter' ORDER BY m.name`)
	got := map[string]int64{}
	for _, row := range res.Rows() {
		got[row[0].S] = row[1].I
	}
	if len(got) != len(snap.Counters) {
		t.Errorf("v_monitor.metrics lists %d counters, snapshot has %d", len(got), len(snap.Counters))
	}
	checked := 0
	for name, want := range snap.Counters {
		if !strings.HasPrefix(name, "scan.") {
			continue
		}
		checked++
		if got[name] != want {
			t.Errorf("%s = %d via SQL, %d via Snapshot", name, got[name], want)
		}
	}
	if checked == 0 {
		t.Fatal("snapshot has no scan.* counters to compare")
	}
	if got["scan.fetches"] != db.ScanStats().Fetches {
		t.Errorf("scan.fetches = %d via SQL, %d via DB.ScanStats", got["scan.fetches"], db.ScanStats().Fetches)
	}

	// Aggregates over the virtual table run through the ordinary
	// executor on both engines.
	for _, rowEngine := range []bool{false, true} {
		s.RowEngine = rowEngine
		res := mustQuery(t, s, `SELECT m.kind, COUNT(*) AS n FROM v_monitor.metrics m GROUP BY m.kind ORDER BY m.kind`)
		if res.NumRows() != 3 { // counter, gauge, histogram
			t.Fatalf("rowEngine=%v: metric kinds = %v", rowEngine, res.Rows())
		}
	}
}

// TestVMonitorDepotTables checks depot_storage and depot_fetches against
// the cache's own stats, and that the dc_depot_fetches ring recorded the
// scan traffic.
func TestVMonitorDepotTables(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 100)
	s := db.NewSession()
	mustQuery(t, s, `SELECT COUNT(*) FROM sales`)

	res := mustQuery(t, s, `SELECT d.node, SUM(d.bytes) AS bytes, COUNT(*) AS files
		FROM v_monitor.depot_storage d GROUP BY d.node ORDER BY d.node`)
	if res.NumRows() == 0 {
		t.Fatal("depot_storage is empty after a load and a scan")
	}
	for _, row := range res.Rows() {
		n, ok := db.Node(row[0].S)
		if !ok {
			t.Fatalf("depot_storage lists unknown node %q", row[0].S)
		}
		st := n.cache.Stats()
		if row[1].I != st.BytesCached || row[2].I != int64(st.Files) {
			t.Errorf("%s: SQL says %d bytes / %d files, cache says %d / %d",
				row[0].S, row[1].I, row[2].I, st.BytesCached, st.Files)
		}
	}

	res = mustQuery(t, s, `SELECT f.node, f.hits, f.misses FROM v_monitor.depot_fetches f ORDER BY f.node`)
	if res.NumRows() != 3 {
		t.Fatalf("depot_fetches rows = %d, want one per node", res.NumRows())
	}
	for _, row := range res.Rows() {
		n, _ := db.Node(row[0].S)
		st := n.cache.Stats()
		if row[1].I != st.Hits || row[2].I != st.Misses {
			t.Errorf("%s: SQL says %d/%d, cache says %d/%d", row[0].S, row[1].I, row[2].I, st.Hits, st.Misses)
		}
	}

	res = mustQuery(t, s, `SELECT COUNT(*) FROM v_monitor.dc_depot_fetches`)
	if res.Batch.Cols[0].Ints[0] == 0 {
		t.Error("dc_depot_fetches recorded no events")
	}
	res = mustQuery(t, s, `SELECT e.outcome, COUNT(*) AS n FROM v_monitor.dc_depot_fetches e GROUP BY e.outcome`)
	for _, row := range res.Rows() {
		switch row[0].S {
		case "hit", "miss", "coalesced":
		default:
			t.Errorf("unknown fetch outcome %q", row[0].S)
		}
	}
}

// TestVMonitorCatalogTables checks storage_containers and
// shard_subscriptions against a catalog snapshot.
func TestVMonitorCatalogTables(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 100)
	s := db.NewSession()

	res := mustQuery(t, s, `SELECT c.table_name, SUM(c.row_count) AS total_rows
		FROM v_monitor.storage_containers c GROUP BY c.table_name`)
	if res.NumRows() != 1 || res.Rows()[0][0].S != "sales" || res.Rows()[0][1].I != 100 {
		t.Fatalf("storage_containers = %v", res.Rows())
	}

	res = mustQuery(t, s, `SELECT sub.node, COUNT(*) AS shards FROM v_monitor.shard_subscriptions sub
		WHERE sub.state = 'ACTIVE' AND sub.node_up = TRUE GROUP BY sub.node ORDER BY sub.node`)
	if res.NumRows() != 3 {
		t.Fatalf("active subscriptions cover %d nodes, want 3: %v", res.NumRows(), res.Rows())
	}

	res = mustQuery(t, s, `SELECT COUNT(*) FROM v_monitor.sessions`)
	if res.Batch.Cols[0].Ints[0] < 1 {
		t.Error("sessions table does not list the querying session")
	}
}

// TestSessionRingBounded opens more sessions than the ring holds and
// checks both the internal ring and the SQL view stay bounded.
func TestSessionRingBounded(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	for i := 0; i < sessionLogSize+25; i++ {
		db.NewSession()
	}
	if n := len(db.sessions.items()); n != sessionLogSize {
		t.Fatalf("session ring holds %d, want %d", n, sessionLogSize)
	}
	s := db.NewSession() // evicts the oldest; ring stays full
	res := mustQuery(t, s, `SELECT COUNT(*) FROM v_monitor.sessions`)
	if got := res.Batch.Cols[0].Ints[0]; got != sessionLogSize {
		t.Fatalf("v_monitor.sessions rows = %d, want %d", got, sessionLogSize)
	}
}

// TestSlowQueryExecStatsAndRing checks satellite wiring: slow-log
// entries carry ExecStats, the dc_slow_queries ring mirrors them, and
// oversized SQL text is truncated in the ring.
func TestSlowQueryExecStatsAndRing(t *testing.T) {
	db, err := Create(Config{
		Mode:               ModeEon,
		Nodes:              []NodeSpec{{Name: "n1"}, {Name: "n2"}},
		ShardCount:         2,
		SlowQueryThreshold: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	setupSales(t, db, 40)
	s := db.NewSession()
	mustQuery(t, s, `SELECT region, COUNT(*) FROM sales GROUP BY region`)

	entries := db.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("no slow-log entries")
	}
	last := entries[len(entries)-1]
	if want := s.LastExecStats(); last.Exec != want {
		t.Errorf("slow entry's ExecStats = %+v, session's = %+v", last.Exec, want)
	}

	// A statement longer than dcSQLLimit is truncated in the ring but
	// not in the slow log itself.
	long := `SELECT COUNT(*) FROM sales WHERE customer <> '` + strings.Repeat("x", dcSQLLimit) + `'`
	mustQuery(t, s, long)
	if e := db.SlowQueries()[len(db.SlowQueries())-1]; len(e.SQL) <= dcSQLLimit {
		t.Error("slow log truncated the statement; only the ring should")
	}

	res := mustQuery(t, s, `SELECT q.sql, q.wall_ns FROM v_monitor.dc_slow_queries q`)
	if res.NumRows() < 2 {
		t.Fatalf("dc_slow_queries rows = %d, want >= 2", res.NumRows())
	}
	for _, row := range res.Rows() {
		if len(row[0].S) > dcSQLLimit {
			t.Errorf("ring holds %d-byte SQL, limit is %d", len(row[0].S), dcSQLLimit)
		}
		if row[1].I <= 0 {
			t.Errorf("slow query event has wall_ns = %d", row[1].I)
		}
	}
}

// TestDisableDataCollector: with the collector off, emits are no-ops,
// dc_* tables are absent, and the snapshot tables still work.
func TestDisableDataCollector(t *testing.T) {
	db, err := Create(Config{
		Mode:                 ModeEon,
		Nodes:                []NodeSpec{{Name: "n1"}, {Name: "n2"}},
		ShardCount:           2,
		DisableDataCollector: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.DataCollector() != nil {
		t.Fatal("DataCollector() non-nil with DisableDataCollector set")
	}
	setupSales(t, db, 40)
	s := db.NewSession()
	mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	if _, err := db.RunMergeout(); err != nil {
		t.Fatal(err)
	}
	for _, name := range db.SystemTables().Names() {
		if strings.HasPrefix(name, "v_monitor.dc_") {
			t.Errorf("dc table %s registered with the collector disabled", name)
		}
	}
	res := mustQuery(t, s, `SELECT COUNT(*) FROM v_monitor.metrics`)
	if res.Batch.Cols[0].Ints[0] == 0 {
		t.Error("v_monitor.metrics empty")
	}
	if _, err := s.Query(`SELECT COUNT(*) FROM v_monitor.dc_depot_fetches`); err == nil {
		t.Error("querying a dc table succeeded with the collector disabled")
	}
}

// TestSubclusterGauges checks the computed-on-read membership gauges
// across node lifecycle events.
func TestSubclusterGauges(t *testing.T) {
	db, err := Create(Config{
		Mode:       ModeEon,
		Nodes:      []NodeSpec{{Name: "n1"}, {Name: "n2"}, {Name: "n3", Subcluster: "batch"}},
		ShardCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	gauge := func(name string) int64 {
		v, ok := db.Metrics().Gauges[name]
		if !ok {
			t.Fatalf("gauge %s not registered", name)
		}
		return v
	}
	if gauge("subcluster.default.nodes") != 2 || gauge("subcluster.batch.nodes") != 1 {
		t.Fatalf("membership gauges wrong: %v", db.Metrics().Gauges)
	}
	if err := db.KillNode("n2"); err != nil {
		t.Fatal(err)
	}
	if gauge("subcluster.default.up_nodes") != 1 || gauge("subcluster.default.nodes") != 2 {
		t.Error("up_nodes did not track the kill")
	}
	if err := db.AddNode(NodeSpec{Name: "n4", Subcluster: "etl"}); err != nil {
		t.Fatal(err)
	}
	if gauge("subcluster.etl.nodes") != 1 {
		t.Error("AddNode into a new subcluster did not register its gauges")
	}

	// The same values through SQL.
	s := db.NewSession()
	res := mustQuery(t, s, `SELECT m.name, m.value FROM v_monitor.metrics m
		WHERE m.kind = 'gauge' AND m.name = 'subcluster.etl.nodes'`)
	if res.NumRows() != 1 || res.Rows()[0][1].I != 1 {
		t.Fatalf("gauge via SQL = %v", res.Rows())
	}
}

// TestReconcileStatusProvider exercises the provider hook directly (the
// reconcile package installs a real one; core cannot import it).
func TestReconcileStatusProvider(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	s := db.NewSession()
	res := mustQuery(t, s, `SELECT COUNT(*) FROM v_monitor.reconcile_status`)
	if res.Batch.Cols[0].Ints[0] != 0 {
		t.Fatal("reconcile_status not empty with no providers")
	}
	db.SetReconcileStatusProvider("test", func() ReconcileStatus {
		return ReconcileStatus{Code: "Progressing", Round: 7, Pending: 2,
			Reasons: []string{"a", "b"}}
	})
	res = mustQuery(t, s, `SELECT r.name, r.code, r.round, r.reasons FROM v_monitor.reconcile_status r`)
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	row := res.Rows()[0]
	if row[0].S != "test" || row[1].S != "Progressing" || row[2].I != 7 || row[3].S != "a; b" {
		t.Fatalf("row = %v", row)
	}
	db.SetReconcileStatusProvider("test", nil)
	res = mustQuery(t, s, `SELECT COUNT(*) FROM v_monitor.reconcile_status`)
	if res.Batch.Cols[0].Ints[0] != 0 {
		t.Error("removing the provider did not clear the table")
	}
}

// TestVMonitorMergeoutAndEvictionRings drives the tuple mover and a
// tiny depot to verify the mergeouts and depot_evictions rings fill.
func TestVMonitorMergeoutAndEvictionRings(t *testing.T) {
	db, err := Create(Config{
		Mode:       ModeEon,
		Nodes:      []NodeSpec{{Name: "n1"}, {Name: "n2"}},
		ShardCount: 2,
		CacheBytes: 1 << 10, // tiny depot so scans evict
		Mergeout:   tuplemover.Policy{FanIn: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	setupSales(t, db, 200)
	s := db.NewSession()
	// Single-row inserts land one container each; with fan-in 2 any
	// shard holding two stratum-0 containers plans a job.
	for i := 0; i < 8; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO sales VALUES (%d, 'ada', 1.5, 'east')`, 1001+i))
	}
	if _, err := db.RunMergeout(); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, s, `SELECT m.table_name, m.containers FROM v_monitor.dc_mergeouts m`)
	if res.NumRows() == 0 {
		t.Fatal("dc_mergeouts recorded no jobs")
	}
	for _, row := range res.Rows() {
		if row[0].S != "sales" || row[1].I < 2 {
			t.Errorf("mergeout event = %v", row)
		}
	}
	mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	res = mustQuery(t, s, `SELECT COUNT(*) FROM v_monitor.dc_depot_evictions`)
	if res.Batch.Cols[0].Ints[0] == 0 {
		t.Error("tiny depot produced no eviction events")
	}
}

// TestHashOperatorsReportSlots: a join, a grouped aggregate and a
// distinct each put slots, the size their key table reached, on their
// span next to build_rows and groups: at least the keys the table holds.
// v_monitor.query_profiles shows it, so a query that builds a large
// table can be found there.
func TestHashOperatorsReportSlots(t *testing.T) {
	db := newTestDB(t, ModeEon, 1, 1)
	defer db.Shutdown()
	setupSales(t, db, 2000)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE regions (name VARCHAR, zone INTEGER)`)
	mustExec(t, s, `INSERT INTO regions VALUES ('east', 1), ('west', 2)`)
	s.Trace = true
	for _, q := range []struct {
		sql, op string
		keys    int64
	}{
		{`SELECT customer, region, COUNT(*) FROM sales GROUP BY customer, region`, "aggregate", 10},
		{`SELECT DISTINCT customer FROM sales`, "distinct", 5},
		{`SELECT r.zone, COUNT(*) FROM sales s JOIN regions r ON s.region = r.name GROUP BY r.zone`, "join", 2},
	} {
		mustQuery(t, s, q.sql)
		slots := int64(-1)
		s.LastProfile().Visit(func(n *obs.Profile) {
			if n.Name == q.op {
				slots = n.Attrs["slots"]
			}
		})
		if slots < q.keys {
			t.Errorf("%s: %s span reports slots=%d, want >= %d", q.sql, q.op, slots, q.keys)
		}
		res := mustQuery(t, db.NewSession(), fmt.Sprintf(`SELECT p.attrs FROM v_monitor.query_profiles p WHERE p.operator = '%s'`, q.op))
		want := fmt.Sprintf("slots=%d", slots)
		if !slices.ContainsFunc(res.Rows(), func(r types.Row) bool { return strings.Contains(r[0].S, want) }) {
			t.Errorf("%s: v_monitor.query_profiles shows %v for %s, want attrs with %s", q.sql, res.Rows(), q.op, want)
		}
	}
}
