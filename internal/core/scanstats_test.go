package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"eon/internal/objstore"
	"eon/internal/obs"
	"eon/internal/types"
)

// Add names every field, and scanCounters (the registry and the profile
// names) lists every field: neither may miss one.
func TestScanStatsAddCoversEveryCounter(t *testing.T) {
	if n := reflect.TypeOf(ScanStats{}).NumField(); n != len(scanCounters) {
		t.Fatalf("ScanStats has %d fields, scanCounters names %d", n, len(scanCounters))
	}
	var a ScanStats
	for i, c := range scanCounters {
		*c.of(&a) = int64(i + 1)
	}
	b := a
	b.Add(a)
	for i, c := range scanCounters {
		if got := *c.of(&b); got != 2*int64(i+1) {
			t.Errorf("%s: %d after Add, want %d", c.name, got, 2*(i+1))
		}
	}
}

// sumProfile sums a profile's scan counters into a ScanStats: each
// attribute under its registry name, the fetch spans' bytes, and the
// fetch/decode/filter accumulators' time.
func sumProfile(p *obs.Profile) ScanStats {
	var s ScanStats
	p.Visit(func(n *obs.Profile) {
		for _, c := range scanCounters {
			*c.of(&s) += n.Attrs[c.name]
		}
		switch n.Name {
		case "fetch":
			s.BytesFetched += n.Bytes
			s.IOWait += n.Wall
		case "decode":
			s.Decode += n.Wall
		case "filter":
			s.Filter += n.Wall
		}
	})
	return s
}

// scanDelta is what the registry's scan.* counters moved by since before.
func scanDelta(db *DB, before ScanStats) ScanStats {
	after := db.ScanStats()
	for _, c := range scanCounters {
		*c.of(&after) -= *c.of(&before)
	}
	return after
}

// A query's scan work reaches the registry, the session and the profile
// from one record, on every exit path: a query that fails on its
// deadline after its fragments pruned containers still counts them, and
// a LIMIT that abandons its fragments and a DELETE show the same numbers
// in all three places. Setup: the deadline test's 200 ms-per-GET store,
// four loads of 25 ids each, so each shard holds four containers with
// disjoint id ranges.
func TestScanAccountingOnEveryExit(t *testing.T) {
	sim := objstore.NewSim(objstore.NewMem(), objstore.SimConfig{
		GetLatency: 200 * time.Millisecond,
	})
	db, err := Create(Config{
		Mode:       ModeEon,
		Nodes:      []NodeSpec{{Name: "n1"}, {Name: "n2"}},
		ShardCount: 2,
		Shared:     sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db.NewSession(), `CREATE TABLE slow (id INTEGER)`)
	schema := types.Schema{{Name: "id", Type: types.Int64}}
	for l := 0; l < 4; l++ {
		rows := make([]types.Row, 25)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(l*25 + i))}
		}
		if err := db.LoadRows("slow", types.BatchFromRows(schema, rows)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range db.Nodes() {
		n.cache.Clear(db.Context())
	}

	qs := db.NewSession()
	qs.BypassCache = true
	qs.Timeout = 30 * time.Millisecond
	before := db.ScanStats()
	_, err = qs.Query(`SELECT COUNT(*) FROM slow WHERE id >= 75`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := scanDelta(db, before); d.ContainersPruned == 0 {
		t.Errorf("registry counted no pruned container for the failed query: %+v", d)
	}
	if st := qs.LastScanStats(); st.ContainersPruned == 0 {
		t.Errorf("session shows no pruned container for the failed query: %+v", st)
	}

	s := db.NewSession()
	s.Trace = true
	for _, stmt := range []string{
		`SELECT id FROM slow LIMIT 1`,
		`DELETE FROM slow WHERE id < 10`,
	} {
		before := db.ScanStats()
		if _, err := s.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		st := s.LastScanStats()
		if st.ContainersScanned == 0 {
			t.Errorf("%s: scanned no container: %+v", stmt, st)
		}
		if d := scanDelta(db, before); d != st {
			t.Errorf("%s: registry moved by %+v, session shows %+v", stmt, d, st)
		}
		// The profile has no wall or expression counters of the scan's.
		want := st
		want.Wall, want.RowsVectorized, want.RowsFallback = 0, 0, 0
		if got := sumProfile(s.LastProfile()); got != want {
			t.Errorf("%s: profile sums to %+v, session shows %+v", stmt, got, want)
		}
	}
}
