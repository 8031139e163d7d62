// Benchmarks regenerating every figure of the paper's evaluation (§8)
// plus ablations of the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Figure benches report the series the paper plots as custom metrics
// (qpm = queries/minute, lpm = loads/minute, ratio_* = relative
// runtimes); cmd/eon-bench prints the same data as tables.
package eon

import (
	"fmt"
	"testing"
	"time"

	"eon/internal/core"
	"eon/internal/experiments"
	"eon/internal/objstore"
	"eon/internal/types"
	"eon/internal/workload"
)

// --- Figure 10: TPC-H queries, Enterprise vs Eon in-cache vs Eon S3 ---

func BenchmarkFig10_TPCH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(experiments.Fig10Options{Scale: 0.05, Reps: 1})
		if err != nil {
			b.Fatal(err)
		}
		var ent, cache, s3 time.Duration
		for _, r := range rows {
			ent += r.Enterprise
			cache += r.EonCache
			s3 += r.EonS3
		}
		b.ReportMetric(float64(cache)/float64(ent), "ratio_eonCache_vs_ent")
		b.ReportMetric(float64(s3)/float64(cache), "ratio_eonS3_vs_cache")
	}
}

// --- Figure 11a: elastic throughput scaling ---

func BenchmarkFig11a_ElasticThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig11a(experiments.Fig11aOptions{
			Scale:         0.02,
			Window:        time.Second,
			Threads:       []int{24},
			EonNodeCounts: []int{3, 6, 9},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			b.ReportMetric(s.QPM[0], "qpm_"+sanitize(s.Label))
		}
	}
}

// --- Figure 11b: concurrent small-COPY throughput ---

func BenchmarkFig11b_CopyThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig11b(experiments.Fig11bOptions{
			Window:        time.Second,
			Threads:       []int{16},
			EonNodeCounts: []int{3, 6, 9},
			RowsPerLoad:   200,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			b.ReportMetric(s.LPM[0], "lpm_"+sanitize(s.Label))
		}
	}
}

// --- Figure 12: throughput through a node kill ---

func BenchmarkFig12_NodeDown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(experiments.Fig12Options{
			Mode: core.ModeEon, Scale: 0.02,
			Threads: 20, Window: 500 * time.Millisecond, NumWindows: 8, KillWindow: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		before, after := res.BeforeAfter()
		if before > 0 {
			b.ReportMetric(after/before, "throughput_retained")
		}
	}
}

// --- §8 elasticity: node addition cost ---

func BenchmarkElasticity_AddNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Elasticity(0.05)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.AddNodeTime.Microseconds()), "addnode_us")
		b.ReportMetric(float64(res.BytesWarmed), "bytes_warmed")
	}
}

// --- Ablations ---

// Running every query against shared storage vs through the cache (§5.2
// motivation for the cache's existence).
func BenchmarkAblation_CacheOff(b *testing.B) {
	db, _, err := experiments.NewEonCluster(3, 3, 2, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := experiments.LoadTPCH(db, 0.05); err != nil {
		b.Fatal(err)
	}
	warm := db.NewSession()
	if _, err := warm.Query(workload.DashboardQuery); err != nil {
		b.Fatal(err)
	}
	b.Run("cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := warm.Query(workload.DashboardQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("no-cache", func(b *testing.B) {
		cold := db.NewSession()
		cold.BypassCache = true
		for i := 0; i < b.N; i++ {
			for _, n := range db.Nodes() {
				n.Cache().Clear(db.Context())
			}
			if _, err := cold.Query(workload.DashboardQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// S < E gives linear per-node scale-out; S close to N*E steps (§4.2 slot
// arithmetic). Compare throughput at different shard counts on a fixed
// cluster.
func BenchmarkAblation_ShardCount(b *testing.B) {
	for _, shards := range []int{1, 3, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			db, _, err := experiments.NewEonCluster(4, shards, 4, 2*time.Millisecond, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := experiments.LoadTPCH(db, 0.02); err != nil {
				b.Fatal(err)
			}
			if _, err := db.NewSession().Query(workload.DashboardQuery); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := db.NewSession().Query(workload.DashboardQuery); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// Hash-filter vs container-split crunch scaling (§4.4).
func BenchmarkAblation_CrunchScaling(b *testing.B) {
	db, _, err := experiments.NewEonCluster(4, 2, 4, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := experiments.LoadTPCH(db, 0.1); err != nil {
		b.Fatal(err)
	}
	q := workload.NodeDownQuery
	if _, err := db.NewSession().Query(q); err != nil {
		b.Fatal(err)
	}
	for name, mode := range map[string]core.CrunchMode{
		"off": core.CrunchOff, "hash-filter": core.CrunchHashFilter, "container-split": core.CrunchContainerSplit,
	} {
		b.Run(name, func(b *testing.B) {
			s := db.NewSession()
			s.Crunch = mode
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Node recovery with peer cache warming vs a cold cache (§5.2, §6.1):
// first-query latency on the recovered node's shards.
func BenchmarkAblation_PeerWarming(b *testing.B) {
	run := func(b *testing.B, clearAfterRecovery bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db, _, err := experiments.NewEonCluster(3, 3, 3, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := experiments.LoadTPCH(db, 0.05); err != nil {
				b.Fatal(err)
			}
			if _, err := db.NewSession().Query(workload.NodeDownQuery); err != nil {
				b.Fatal(err)
			}
			if err := db.KillNode("node3"); err != nil {
				b.Fatal(err)
			}
			n3, _ := db.Node("node3")
			n3.Cache().Clear(db.Context()) // instance storage lost
			if err := db.RecoverNode("node3"); err != nil {
				b.Fatal(err)
			}
			if clearAfterRecovery {
				n3.Cache().Clear(db.Context())
			}
			b.StartTimer()
			if _, err := db.NewSession().Query(workload.NodeDownQuery); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("warmed", func(b *testing.B) { run(b, false) })
	b.Run("cold", func(b *testing.B) { run(b, true) })
}

// Write-through vs write-around on load (§5.2: "newly added files are
// likely to be referenced by queries"): read latency right after a load.
func BenchmarkAblation_WriteThrough(b *testing.B) {
	run := func(b *testing.B, writeThrough bool) {
		db, _, err := experiments.NewEonCluster(3, 3, 2, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.LoadTPCH(db, 0.05); err != nil {
			b.Fatal(err)
		}
		if !writeThrough {
			for _, n := range db.Nodes() {
				n.Cache().Clear(db.Context())
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.NewSession().Query(workload.NodeDownQuery); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("write-through", func(b *testing.B) { run(b, true) })
	b.Run("write-around", func(b *testing.B) { run(b, false) })
}

// Live aggregate projection (S2.1) vs aggregating the base data: the LAP
// scans a few pre-aggregated rows instead of every base row.
func BenchmarkAblation_LiveAggregate(b *testing.B) {
	db, _, err := experiments.NewEonCluster(3, 3, 2, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []string{
		`CREATE TABLE clicks (region VARCHAR, hits INTEGER)`,
		`CREATE PROJECTION clicks_super AS SELECT * FROM clicks ORDER BY region SEGMENTED BY HASH(region) ALL NODES`,
		`CREATE PROJECTION clicks_agg AS SELECT region, COUNT(*) AS n, SUM(hits) AS total FROM clicks GROUP BY region`,
	} {
		if _, err := db.NewSession().Execute(q); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.LoadRows("clicks", makeClicks(50000)); err != nil {
		b.Fatal(err)
	}
	s := db.NewSession()
	lapQ := `SELECT region, COUNT(*) AS n, SUM(hits) AS total FROM clicks GROUP BY region`
	baseQ := `SELECT region, COUNT(*) AS n, SUM(hits) AS total, AVG(hits) AS m FROM clicks GROUP BY region`
	for _, q := range []string{lapQ, baseQ} {
		if _, err := s.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("live-aggregate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(lapQ); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("base-projection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(baseQ); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Scan pipeline parallelism (ScanConcurrency sweep) ---

// scanBenchDB builds a single-node Eon cluster whose scans have plenty
// of independent I/O: bundling disabled (every column a separate file),
// a wide table loaded in several batches so each shard holds multiple
// containers.
func scanBenchDB(b *testing.B, scanConc int) *core.DB {
	b.Helper()
	sim := objstore.NewSim(objstore.NewMem(), experiments.SharedStorageSim(1))
	db, err := core.Create(core.Config{
		Mode:            core.ModeEon,
		Nodes:           []core.NodeSpec{{Name: "node1"}},
		ShardCount:      4,
		Shared:          sim,
		Net:             experiments.ClusterNet(),
		BundleThreshold: -1,
		ScanConcurrency: scanConc,
	})
	if err != nil {
		b.Fatal(err)
	}
	const cols = 8
	ddl := `CREATE TABLE wide (c0 INTEGER`
	proj := `CREATE PROJECTION wide_p AS SELECT * FROM wide ORDER BY c0 SEGMENTED BY HASH(c0) ALL NODES`
	schema := types.Schema{{Name: "c0", Type: types.Int64}}
	for i := 1; i < cols; i++ {
		ddl += fmt.Sprintf(", c%d INTEGER", i)
		schema = append(schema, types.Column{Name: fmt.Sprintf("c%d", i), Type: types.Int64})
	}
	ddl += `)`
	s := db.NewSession()
	for _, q := range []string{ddl, proj} {
		if _, err := s.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
	id := 0
	for load := 0; load < 6; load++ {
		batch := types.NewBatch(schema, 2000)
		for r := 0; r < 2000; r++ {
			id++
			row := make(types.Row, cols)
			row[0] = types.NewInt(int64(id))
			for c := 1; c < cols; c++ {
				row[c] = types.NewInt(int64(id * c))
			}
			batch.AppendRow(row)
		}
		if err := db.LoadRows("wide", batch); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// scanBenchQuery touches every column so a cold scan fetches every
// column file of every container.
const scanBenchQuery = `SELECT SUM(c0), SUM(c1), SUM(c2), SUM(c3), SUM(c4), SUM(c5), SUM(c6), SUM(c7) FROM wide`

// BenchmarkScanParallelism sweeps ScanConcurrency over cold and warm
// caches. Cold scans are dominated by shared-storage round trips
// (containers x columns fetches at the simulated 3 ms GET latency), so
// they shrink near-linearly with concurrency; warm scans measure the
// decode+filter pipeline alone.
func BenchmarkScanParallelism(b *testing.B) {
	for _, conc := range []int{1, 2, 4, 8, 16} {
		db := scanBenchDB(b, conc)
		s := db.NewSession()
		b.Run(fmt.Sprintf("cold/conc-%d", conc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, n := range db.Nodes() {
					n.Cache().Clear(db.Context())
				}
				b.StartTimer()
				if _, err := s.Query(scanBenchQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("warm/conc-%d", conc), func(b *testing.B) {
			if _, err := s.Query(scanBenchQuery); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(scanBenchQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Vectorized execution kernels (row engine vs batch kernels) ---

// kernelBenchDB builds a warm single-node cluster with a mixed-type
// table sized so expression evaluation and aggregation dominate the
// query time (decode and I/O are identical on both engines).
func kernelBenchDB(b *testing.B) *core.DB {
	b.Helper()
	return kernelBenchDBDC(b, false)
}

// kernelBenchDBDC is kernelBenchDB with the Data Collector optionally
// disabled, so BenchmarkDCOverhead and TestDCOverheadGate can compare
// emit cost against a cluster where every Emit is a nil-receiver no-op.
func kernelBenchDBDC(b testing.TB, disableDC bool) *core.DB {
	b.Helper()
	sim := objstore.NewSim(objstore.NewMem(), experiments.SharedStorageSim(1))
	db, err := core.Create(core.Config{
		Mode:                 core.ModeEon,
		Nodes:                []core.NodeSpec{{Name: "node1"}},
		ShardCount:           2,
		Shared:               sim,
		Net:                  experiments.ClusterNet(),
		BundleThreshold:      -1,
		DisableDataCollector: disableDC,
	})
	if err != nil {
		b.Fatal(err)
	}
	s := db.NewSession()
	for _, q := range []string{
		`CREATE TABLE metrics (k INTEGER, a INTEGER, b INTEGER, f FLOAT, s VARCHAR)`,
		`CREATE PROJECTION metrics_p AS SELECT * FROM metrics ORDER BY k SEGMENTED BY HASH(k) ALL NODES`,
	} {
		if _, err := s.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
	schema := types.Schema{
		{Name: "k", Type: types.Int64},
		{Name: "a", Type: types.Int64},
		{Name: "b", Type: types.Int64},
		{Name: "f", Type: types.Float64},
		{Name: "s", Type: types.Varchar},
	}
	names := []string{"sensor-a", "sensor-b", "gauge-x", "meter-7"}
	id := 0
	for load := 0; load < 4; load++ {
		batch := types.NewBatch(schema, 25000)
		for r := 0; r < 25000; r++ {
			id++
			batch.AppendRow(types.Row{
				types.NewInt(int64(id % 16)),
				types.NewInt(int64(id % 1000)),
				types.NewInt(int64(id % 97)),
				types.NewFloat(float64(id%100) / 100),
				types.NewString(names[id%4]),
			})
		}
		if err := db.LoadRows("metrics", batch); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// kernelBenchQuery stresses every kernel family: compound predicate
// with LIKE and numeric comparisons, mixed int/float arithmetic, CASE
// over a LIKE condition, and a grouped aggregation with the count, sum,
// avg and min/max paths.
const kernelBenchQuery = `SELECT k, COUNT(*) AS n, SUM(a * (1 - f)) AS disc,
	SUM(CASE WHEN s LIKE '%-b%' THEN f ELSE 0 END) AS promo,
	AVG(f) AS avg_f, MIN(b) AS lo, MAX(b) AS hi
	FROM metrics WHERE a > 25 AND f < 0.95 AND s LIKE 'sen%'
	GROUP BY k ORDER BY k`

// BenchmarkQueryKernels compares the vectorized engine (default)
// against the row engine on a warm filter+aggregate query. Both run the
// same plan over the same cached data; only expression evaluation and
// operator inner loops differ.
func BenchmarkQueryKernels(b *testing.B) {
	db := kernelBenchDB(b)
	for _, eng := range []struct {
		name string
		row  bool
	}{{"vec", false}, {"row", true}} {
		b.Run(eng.name, func(b *testing.B) {
			s := db.NewSession()
			s.RowEngine = eng.row
			res, err := s.Query(kernelBenchQuery)
			if err != nil {
				b.Fatal(err)
			}
			// The LIKE keeps id%4 in {0,1}, so k=id%16 takes 8 values.
			if res.NumRows() != 8 {
				b.Fatalf("groups = %d, want 8", res.NumRows())
			}
			if !eng.row {
				if st := s.LastScanStats(); st.RowsFallback != 0 {
					b.Fatalf("vectorized engine fell back on %d rows", st.RowsFallback)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(kernelBenchQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Streaming executor ---

// BenchmarkStreamingExec runs the streaming pipeline on a three-node
// cluster. "limit" shows early termination: the fragment scans stop as
// soon as the LIMIT is satisfied. "agg" runs a grouped aggregation and
// also reports its governed peak memory.
func BenchmarkStreamingExec(b *testing.B) {
	db, _, err := experiments.NewEonCluster(3, 3, 2, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := experiments.LoadTPCH(db, 0.05); err != nil {
		b.Fatal(err)
	}
	const limitQ = `SELECT l_orderkey, l_extendedprice FROM lineitem LIMIT 20`
	aggQ := workload.DashboardQuery
	for _, q := range []struct{ name, sql string }{{"limit", limitQ}, {"agg", aggQ}} {
		b.Run(q.name, func(b *testing.B) {
			s := db.NewSession()
			if _, err := s.Query(q.sql); err != nil { // warm the caches
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(q.sql); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(s.LastExecStats().PeakMemBytes), "peak_mem_bytes")
		})
	}
}

// --- Observability: span tracing overhead ---

// BenchmarkTracingOverhead measures the cost of per-query span tracing
// on a warm kernel-bench query: "off" is the production default (nil
// trace, every span call a no-op), "on" builds the full span tree and
// profile per query. EXPERIMENTS.md gates "off" at <=3% vs the pre-obs
// baseline; compare off/on here for the enabled cost.
func BenchmarkTracingOverhead(b *testing.B) {
	db := kernelBenchDB(b)
	for _, cfg := range []struct {
		name  string
		trace bool
	}{{"off", false}, {"on", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			s := db.NewSession()
			s.Trace = cfg.trace
			if _, err := s.Query(kernelBenchQuery); err != nil {
				b.Fatal(err)
			}
			if cfg.trace && s.LastProfile() == nil {
				b.Fatal("tracing on but no profile recorded")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(kernelBenchQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDCOverhead measures the Data Collector's cost on the warm
// kernel-bench query: "off" disables the collector at Create time (every
// Emit is a nil-receiver no-op), "on" is the production default with all
// rings live. The depot is warm, so the hot path sees the dc_depot_fetches
// emit per container read plus the session-ring append per query.
// `make systables` gates on/off at <=3%.
func BenchmarkDCOverhead(b *testing.B) {
	// Build both clusters before either timed loop: constructing the
	// second inside its own b.Run would make that sub-benchmark pay the
	// first one's heap garbage, drowning the emit cost in GC noise.
	dbOff := kernelBenchDBDC(b, true)
	dbOn := kernelBenchDBDC(b, false)
	if dbOff.DataCollector() != nil {
		b.Fatal("collector still live with DisableDataCollector")
	}
	for _, cfg := range []struct {
		name string
		db   *core.DB
	}{{"off", dbOff}, {"on", dbOn}} {
		b.Run(cfg.name, func(b *testing.B) {
			s := cfg.db.NewSession()
			if _, err := s.Query(kernelBenchQuery); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(kernelBenchQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func makeClicks(n int) *types.Batch {
	schema := types.Schema{
		{Name: "region", Type: types.Varchar},
		{Name: "hits", Type: types.Int64},
	}
	regions := []string{"east", "west", "north", "south"}
	b := types.NewBatch(schema, n)
	for i := 0; i < n; i++ {
		b.AppendRow(types.Row{types.NewString(regions[i%4]), types.NewInt(int64(i % 100))})
	}
	return b
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			out = append(out, '_')
			continue
		}
		out = append(out, r)
	}
	return string(out)
}

// --- Reconciler: chaos-measured recovery, warm spare vs cold revive ---

// BenchmarkReconcileRecovery kills a node (process and depot) in the
// middle of a sustained exact-result workload, lets the reconciler
// repair the cluster, and reports time-to-recovered-throughput and
// time-to-full-service for both repair paths. The claim under test:
// promoting a pre-warmed spare (one subscription flip) restores full
// service faster than reviving the dead node, which pays catch-up,
// re-subscription and a depot re-warm after the failure.
func BenchmarkReconcileRecovery(b *testing.B) {
	for _, mode := range []struct {
		name  string
		spare bool
	}{{"spare", true}, {"cold", false}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.ChaosRecovery(experiments.RecoveryOptions{
					Spare:  mode.spare,
					Warmup: 600 * time.Millisecond,
					Post:   3 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Wrong != 0 {
					b.Fatalf("%d wrong query results during recovery", res.Wrong)
				}
				b.ReportMetric(res.BaselineQPS, "baseline_qps")
				b.ReportMetric(float64(res.TimeToRestored.Microseconds()), "restore_us")
				b.ReportMetric(float64(res.TimeToRecovered.Milliseconds()), "ttr_ms")
				b.ReportMetric(float64(res.TimeToConverged.Milliseconds()), "converge_ms")
			}
		})
	}
}

// --- Serving path: plan/result caches and admission control ---

// BenchmarkServingThroughput hammers one hot analytic query from many
// concurrent sessions on a cache-enabled and a cache-disabled cluster
// (the warm side serves from the result cache without parsing, planning
// or executing), then measures the admission-queue latency tail with
// more sessions than the per-subcluster concurrency cap.
func BenchmarkServingThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ServingThroughput(experiments.ServingOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CachedQPM, "qpm_cached")
		b.ReportMetric(res.UncachedQPM, "qpm_uncached")
		if res.UncachedQPM > 0 {
			b.ReportMetric(res.CachedQPM/res.UncachedQPM, "speedup_cached")
		}
		b.ReportMetric(float64(res.AdmissionP50.Microseconds()), "admission_p50_us")
		b.ReportMetric(float64(res.AdmissionP99.Microseconds()), "admission_p99_us")
	}
}
