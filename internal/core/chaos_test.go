package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"eon/internal/cluster"
	"eon/internal/objstore"
	"eon/internal/resilience"
	"eon/internal/types"
)

// chaosResilience is a lenient retry/breaker configuration for chaos
// runs: enough attempts to drain a throttle burst (the burst is a range
// of store op indices, so each retry advances through it) and a breaker
// that only trips on near-total failure, so the schedule's 5% rate
// cannot wedge the cluster behind an open breaker.
func chaosResilience() *resilience.Config {
	return &resilience.Config{
		Policy: resilience.Policy{
			MaxAttempts: 8,
			BaseDelay:   200 * time.Microsecond,
			MaxDelay:    2 * time.Millisecond,
			OpTimeout:   2 * time.Second,
			Retryable:   objstore.IsRetryable,
		},
		HedgeDelay: time.Millisecond,
		Breaker: resilience.BreakerConfig{
			Window:     40,
			TripRatio:  0.9,
			MinSamples: 40,
			OpenFor:    10 * time.Millisecond,
		},
		Seed: 11,
	}
}

// chaosSchedule is the deterministic fault schedule for TestChaos: a 5%
// transient-failure window across the whole run, two throttle bursts, a
// latency spike, and an elevated rate on the data/ prefix.
func chaosSchedule(seed int64) *objstore.FaultSchedule {
	return &objstore.FaultSchedule{
		Seed:           seed,
		Windows:        []objstore.FaultWindow{{OpRange: objstore.OpRange{From: 0, To: 1 << 20}, Rate: 0.05}},
		PrefixRates:    map[string]float64{"data/": 0.03},
		ThrottleBursts: []objstore.OpRange{{From: 120, To: 132}, {From: 400, To: 412}},
		LatencySpikes:  []objstore.LatencySpike{{OpRange: objstore.OpRange{From: 200, To: 260}, Extra: 4 * time.Millisecond}},
	}
}

// TestChaos is the end-to-end fault drill of §5.3: a 3-node/6-shard Eon
// cluster runs load and a query stream over shared storage that fails,
// throttles and spikes on a deterministic schedule, loses a node
// mid-stream, recovers it, shuts down and revives. Every query must
// return the correct answer or fail cleanly; the revived cluster must
// see uncorrupted metadata; and the resilience layer must visibly have
// absorbed faults (retries > 0).
func TestChaos(t *testing.T) {
	sim := objstore.NewSim(objstore.NewMem(), objstore.SimConfig{
		GetLatency: 2 * time.Millisecond,
		Seed:       7,
		Faults:     chaosSchedule(21),
	})
	db, err := Create(Config{
		Mode:       ModeEon,
		Nodes:      []NodeSpec{{Name: "n1"}, {Name: "n2"}, {Name: "n3"}},
		ShardCount: 6,
		Shared:     sim,
		Seed:       9,
		Resilience: chaosResilience(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE chaos (id INTEGER, grp INTEGER)`)
	schema := types.Schema{{Name: "id", Type: types.Int64}, {Name: "grp", Type: types.Int64}}
	const rows = 400
	var wantSum int64
	b := types.NewBatch(schema, rows)
	for i := 0; i < rows; i++ {
		b.AppendRow(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7))})
		wantSum += int64(i)
	}
	if err := db.LoadRows("chaos", b); err != nil {
		t.Fatalf("load under faults: %v", err)
	}

	// Query stream with a node kill and recovery in the middle. Cold
	// reads (cleared caches) force shared-storage traffic into the fault
	// schedule.
	succeeded := 0
	for q := 0; q < 20; q++ {
		if q == 7 {
			if err := db.KillNode("n3"); err != nil {
				t.Fatal(err)
			}
		}
		if q == 14 {
			if err := db.RecoverNode("n3"); err != nil {
				t.Fatalf("recover under faults: %v", err)
			}
		}
		if q%3 == 0 {
			for _, n := range db.Nodes() {
				if n.Up() {
					n.cache.Clear(db.Context())
				}
			}
		}
		res, err := db.NewSession().Query(`SELECT COUNT(*), SUM(id) FROM chaos`)
		if err != nil {
			// Clean failure is acceptable under chaos; wrong answers are not.
			continue
		}
		r := res.Row(t, 0)
		if r[0].I != rows || r[1].I != wantSum {
			t.Fatalf("query %d: corrupted result count=%d sum=%d (want %d/%d)", q, r[0].I, r[1].I, rows, wantSum)
		}
		succeeded++
	}
	if succeeded < 15 {
		t.Fatalf("only %d/20 queries succeeded under a 5%% fault rate with retries", succeeded)
	}
	checkSubscribersAgree(t, db)

	// The resilience layer must have been exercised, observably.
	st := db.ResilienceStats()
	if st.Retries == 0 {
		t.Errorf("no retries recorded under a 5%% failure schedule: %+v", st)
	}
	if st.Attempts == 0 || st.Attempts < st.Retries {
		t.Errorf("implausible counters: %+v", st)
	}
	if sim.Stats().Failed == 0 && sim.Stats().Throttled == 0 {
		t.Fatal("fault schedule injected nothing; chaos run is vacuous")
	}

	// Shutdown then revive from the same (still faulty) storage: the
	// commit-point file must parse and the revived cluster must agree on
	// the data — zero tolerated corruption.
	if err := db.Shutdown(); err != nil {
		t.Fatalf("shutdown under faults: %v", err)
	}
	var info *cluster.Info
	err = objstore.WithRetry(context.Background(), 8, time.Millisecond, func() error {
		var e error
		info, _, e = cluster.ReadInfo(context.Background(), sim)
		return e
	})
	if err != nil {
		t.Fatalf("read the commit point: %v", err)
	}
	if info.TruncationVersion == 0 {
		t.Error("truncation version never advanced")
	}
	rdb, err := Revive(Config{
		Shared:     sim,
		Seed:       9,
		Resilience: chaosResilience(),
	})
	if err != nil {
		t.Fatalf("revive under faults: %v", err)
	}
	res, err := rdb.NewSession().Query(`SELECT COUNT(*), SUM(id) FROM chaos`)
	if err != nil {
		t.Fatalf("post-revive query: %v", err)
	}
	r := res.Row(t, 0)
	if r[0].I != rows || r[1].I != wantSum {
		t.Fatalf("post-revive corruption: count=%d sum=%d (want %d/%d)", r[0].I, r[1].I, rows, wantSum)
	}
	checkSubscribersAgree(t, rdb)
}

// A session deadline must propagate through the scan path into
// shared-storage requests: a query against a slow store cancels
// promptly with context.DeadlineExceeded instead of waiting out the
// store, and leaks no goroutines.
func TestQueryDeadlinePropagates(t *testing.T) {
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
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE slow (id INTEGER)`)
	rows := make([]types.Row, 50)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	if err := db.LoadRows("slow", types.BatchFromRows(types.Schema{{Name: "id", Type: types.Int64}}, rows)); err != nil {
		t.Fatal(err)
	}
	for _, n := range db.Nodes() {
		n.cache.Clear(db.Context())
	}
	before := runtime.NumGoroutine()

	qs := db.NewSession()
	qs.BypassCache = true
	qs.Timeout = 30 * time.Millisecond
	start := time.Now()
	_, err = qs.Query(`SELECT COUNT(*) FROM slow`)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query against a 200ms/Get store finished within a 30ms deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline not prompt: query took %v", elapsed)
	}

	// The canceled store requests and any hedges must not leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+3 {
		t.Errorf("goroutine leak: %d before, %d after", before, g)
	}

	// Without a deadline the same query succeeds.
	ok := db.NewSession()
	ok.BypassCache = true
	res := mustQuery(t, ok, `SELECT COUNT(*) FROM slow`)
	if res.Row(t, 0)[0].I != 50 {
		t.Fatalf("count = %v", res.Rows())
	}
}

// An open cache breaker degrades reads and loads to shared storage
// instead of failing them (§5.3 graceful degradation).
func TestCacheBreakerDegradesToSharedStorage(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	setupSales(t, db, 60)

	// Trip every node's cache breaker by force-feeding failures.
	for _, n := range db.Nodes() {
		brk := db.cacheBreakers.For(n.name)
		for i := 0; i < 64; i++ {
			brk.Record(true)
		}
		if brk.State() != resilience.Open {
			t.Fatalf("breaker for %s not open", n.name)
		}
	}

	// Loads still succeed: cache admission is skipped, shared storage is
	// the durability point.
	b := types.NewBatch(types.Schema{
		{Name: "sale_id", Type: types.Int64},
		{Name: "customer", Type: types.Varchar},
		{Name: "price", Type: types.Float64},
		{Name: "region", Type: types.Varchar},
	}, 10)
	for i := 0; i < 10; i++ {
		b.AppendRow(types.Row{
			types.NewInt(int64(1000 + i)), types.NewString("x"),
			types.NewFloat(1), types.NewString("east"),
		})
	}
	if err := db.LoadRows("sales", b); err != nil {
		t.Fatalf("load with open cache breakers: %v", err)
	}

	// Reads fall through to shared storage.
	for _, n := range db.Nodes() {
		n.cache.Clear(db.Context())
	}
	res := mustQuery(t, db.NewSession(), `SELECT COUNT(*) FROM sales`)
	if res.Row(t, 0)[0].I != 70 {
		t.Fatalf("count = %v", res.Rows())
	}
	st := db.ResilienceStats()
	if st.Fallbacks == 0 {
		t.Errorf("no degradation fallbacks recorded: %+v", st)
	}
}
