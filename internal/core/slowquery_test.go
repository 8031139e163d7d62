package core

import (
	"testing"
	"time"

	"eon/internal/objstore"
	"eon/internal/types"
)

// TestSlowQueryLogBasics checks the threshold and ring behaviour: with a
// 1ns threshold every query is slow, entries come back oldest-first, and
// the ring caps at slowQueryLogSize.
func TestSlowQueryLogBasics(t *testing.T) {
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
	for i := 0; i < slowQueryLogSize+2; i++ {
		mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	}
	entries := db.SlowQueries()
	if len(entries) != slowQueryLogSize {
		t.Fatalf("slow log has %d entries, want ring size %d", len(entries), slowQueryLogSize)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Start.Before(entries[i-1].Start) {
			t.Fatalf("slow log not oldest-first: entry %d starts before entry %d", i, i-1)
		}
	}
	for i, e := range entries {
		if e.SQL == "" {
			t.Errorf("entry %d has no SQL text", i)
		}
		if e.Profile == nil {
			t.Errorf("entry %d has no profile", i)
		}
	}
}

// TestSlowQueryLogCompleteUnderChaos is the failure-path drill: with
// shared storage failing and throttling on a deterministic schedule,
// cleared caches forcing cold reads, and a mid-stream node kill, every
// slow-log entry — including failed queries — must carry a complete
// profile with zero dangling spans (no span left open by an error
// return).
func TestSlowQueryLogCompleteUnderChaos(t *testing.T) {
	// chaosSchedule's 5% rate is fully absorbed by the retry layer, so a
	// total-outage window is added on top: every op in it fails, which
	// exhausts retries and forces real query failures into the log.
	faults := chaosSchedule(33)
	// (This workload issues ~90 store ops total, so the outage sits in
	// the middle of the query stream.)
	faults.Windows = append(faults.Windows, objstore.FaultWindow{
		OpRange: objstore.OpRange{From: 30, To: 70}, Rate: 1.0,
	})
	sim := objstore.NewSim(objstore.NewMem(), objstore.SimConfig{
		Seed:   7,
		Faults: faults,
	})
	db, err := Create(Config{
		Mode:               ModeEon,
		Nodes:              []NodeSpec{{Name: "n1"}, {Name: "n2"}, {Name: "n3"}},
		ShardCount:         6,
		Shared:             sim,
		Seed:               9,
		Resilience:         chaosResilience(),
		SlowQueryThreshold: time.Nanosecond, // log every query, success or not
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE chaos (id INTEGER, grp INTEGER)`)
	schema := types.Schema{{Name: "id", Type: types.Int64}, {Name: "grp", Type: types.Int64}}
	const rows = 300
	b := types.NewBatch(schema, rows)
	for i := 0; i < rows; i++ {
		b.AppendRow(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 5))})
	}
	if err := db.LoadRows("chaos", b); err != nil {
		t.Fatalf("load under faults: %v", err)
	}

	failures := 0
	for q := 0; q < 24; q++ {
		if q == 9 {
			if err := db.KillNode("n3"); err != nil {
				t.Fatal(err)
			}
		}
		if q%3 == 0 {
			for _, n := range db.Nodes() {
				if n.Up() {
					n.cache.Clear(db.Context())
				}
			}
		}
		if _, err := s.Query(`SELECT grp, COUNT(*), SUM(id) FROM chaos GROUP BY grp`); err != nil {
			failures++
		}
	}

	entries := db.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("no slow-log entries recorded")
	}
	loggedFailures := 0
	for i, e := range entries {
		if e.Profile == nil {
			t.Fatalf("entry %d (%q, err=%q) has no profile", i, e.SQL, e.Err)
		}
		if e.Profile.Dangling != 0 {
			t.Errorf("entry %d (err=%q): %d dangling spans in profile", i, e.Err, e.Profile.Dangling)
		}
		if e.Wall <= 0 {
			t.Errorf("entry %d has non-positive wall time %v", i, e.Wall)
		}
		if e.Err != "" {
			loggedFailures++
		}
	}
	// Retried attempts each log separately, so the log can hold more
	// failures than the stream observed — but never fewer.
	if loggedFailures < failures {
		t.Errorf("stream saw %d failures but slow log records %d", failures, loggedFailures)
	}
	// The schedule is deterministic: this seed must actually drive
	// queries into failure paths, or the dangling-span check above
	// proves nothing about them.
	if loggedFailures == 0 {
		t.Error("no failed queries in the slow log; chaos schedule exercised no failure paths")
	}
	t.Logf("%d entries, %d failed attempts logged, %d stream failures", len(entries), loggedFailures, failures)
}
