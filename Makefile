GO ?= go

.PHONY: all fmt vet build test race chaos obs exec reconcile systables serving check bench bench-all bench-smoke repo-bench

all: check

# bench-summary prints one "BenchmarkName ... ns/op ..." line per result
# out of the raw `go test -json` event stream in file $(1) (the stream
# splits a result across Output events; the awk rejoins name and numbers).
define bench-summary
	@grep -oE '"Output":"[^"]*"' $(1) \
		| sed 's/"Output":"//; s/"$$//; s/\\t/ /g; s/\\n//' \
		| awk '/^Benchmark/ && !/ns\/op/ {name=$$1; next} /ns\/op/ {if ($$0 ~ /^Benchmark/) print; else printf "%s %s\n", name, $$0}'
	@echo "wrote $(1)"
endef

# Default gate: formatting + vet + build + tests, then the full suite
# under the race detector (the scan pipeline is concurrent; races are
# tier-1 failures), then the repository benchmark's own tests.
check: fmt vet build test race bench-smoke

# Fails, listing them, if any Go file outside the dot-directories (build
# caches) is not gofmt-clean.
fmt:
	@out="$$(find . -name '*.go' -not -path './.*' | xargs gofmt -l)"; \
		if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector.
race:
	$(GO) test -race ./...

# Chaos smoke: the deterministic fault drill (load + query stream +
# node kill + revive under injected shared-storage faults), DELETE,
# UPDATE and ADD COLUMN across a node kill and recovery (every container
# rewritten, not only the initiator's), revive's and sync's I/O shape
# (round trips, fallback, the crash-point sweep over sync -> shutdown ->
# revive), plus the resilience layer's and the simulators' unit tests
# with the wait helper's, race-checked.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestQueryDeadlinePropagates|TestCacheBreakerDegradesToSharedStorage|TestDMLSeesEveryShard' ./internal/core/
	$(GO) test -race -count=1 -run 'TestRevive|TestSync|TestCommitPointCrashSweep' ./internal/core/
	$(GO) test -race -count=1 ./internal/resilience/ ./internal/objstore/ ./internal/netsim/ ./internal/simwait/

# Observability gate: the metrics/tracing package under the race
# detector (registry and span counters are written concurrently), then
# without it so the disabled-tracer zero-allocation test actually runs
# (it skips under -race, which inflates allocation counts).
obs:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -count=1 -run 'TestDisabledTracerZeroAlloc' ./internal/obs/
	$(GO) test -race -count=1 -run 'TestSlowQuery|TestResetStats' ./internal/core/ ./internal/objstore/

# Streaming-executor gate: the reference diff (every workload query on
# five Eon layouts, crunch modes included, against a 1-node Enterprise
# database on the row engine), the LIMIT pushdown / early-termination and
# memory-budget spill tests, and the cancellation leak check — all
# race-checked (the pipeline is goroutines connected by channels) —
# the pipe unit tests (the one bounded edge: k producers, first error,
# cancellation), the fetch rule (a cold query's GETs all in flight
# before one returns; a LIMIT and the fetch-ahead window bound them),
# plus the operator and fan-out helper unit tests, the typed write
# kernels against their Datum-based references and the container digests
# recorded before them, the hash operators' steady-state and the write
# path's allocation guards without the race detector (they skip under
# -race, which inflates allocation counts).
exec:
	$(GO) test -race -count=1 -run 'TestStreaming|TestLimitPushdown|TestQueryMemoryBudget' ./internal/experiments/
	$(GO) test -race -count=1 -run 'TestColdScanOneRoundTrip|TestLimitStopsFetching|TestPipe' ./internal/core/
	$(GO) test -race -count=1 -run 'TestPrefetch|TestTypedKernels|TestWriteColumnStatsNaNBlock|TestBuildContainerGolden' ./internal/storage/
	$(GO) test -race -count=1 ./internal/exec/ ./internal/parallel/
	$(GO) test -count=1 -run 'TestHashOperatorsSteadyStateAllocs' ./internal/exec/
	$(GO) test -count=1 -run 'TestWritePathAllocs' ./internal/storage/

# Reconciler gate: the spare lifecycle and RemoveNode regression tests,
# the membership-churn soak, the full reconcile package (all
# race-checked — membership changes race the query stream by design),
# then the chaos-recovery experiment without the race detector so its
# recovery timings stay meaningful, three times over because each run
# is one kill per path.
reconcile:
	$(GO) test -race -count=1 -run 'TestSpare|TestRemoveNode|TestSoakMembershipChurn' ./internal/core/
	$(GO) test -race -count=1 ./internal/reconcile/
	$(GO) test -count=3 -run 'TestChaosRecovery' -timeout 300s ./internal/experiments/

# System-table gate: the virtual-table layer and Data Collector unit
# tests, the v_monitor fill/differential tests, and the chaos liveness
# drill — all race-checked (virtual scans read state that the load,
# tuple-mover and reconcile paths mutate concurrently). Then the
# DC-overhead gate (emit cost <=3% vs a disabled collector; env-guarded
# so plain `go test ./...` stays deterministic) and the on/off
# benchmark into BENCH_systables.json.
systables:
	$(GO) test -race -count=1 ./internal/systable/
	$(GO) test -race -count=1 -run 'TestVMonitor|TestSessionRing|TestSlowQueryExecStats|TestDisableDataCollector|TestSubclusterGauges|TestReconcileStatusProvider' ./internal/core/
	$(GO) test -race -count=1 -run 'TestSystemTables' -timeout 300s ./internal/experiments/
	EON_DC_GATE=1 $(GO) test -count=1 -run 'TestDCOverheadGate' .
	$(GO) test -json -bench 'BenchmarkDCOverhead' -benchmem -benchtime=20x -run '^$$' . > BENCH_systables.json
	$(call bench-summary,BENCH_systables.json)

# Serving-path gate: the staged-lifecycle unit tests (plan cache and its
# invalidation rule, prepared statements, result-cache invalidation,
# admission control, parse-error accounting), the LRU behind both caches
# and the bounded ring behind the slow-query log and the session list,
# and the caches-on-vs-off TPC-H differential under concurrent
# DDL/load/mergeout churn — all race-checked (cached plans are shared by
# concurrent executions by design). Then the plan-cache hit's
# zero-allocation guard without the race detector (it skips under -race,
# which inflates allocation counts), the acceptance gate (warm hot-query
# throughput >=2x uncached, admission p99 bounded past the concurrency
# cap; env-guarded so plain `go test ./...` stays deterministic) and the
# throughput/latency benchmark into BENCH_serving.json.
serving:
	$(GO) test -race -count=1 -run 'TestPlanCache|TestPrepared|TestQueryArgs|TestParseError|TestResultCache|TestAdmission|TestSessionTimeout|TestServingSystem|TestLRU|TestRing' ./internal/core/
	$(GO) test -count=1 -run 'TestPlanCacheHitAllocs' ./internal/core/
	$(GO) test -race -count=1 -run 'TestServingCachesDifferential' -timeout 600s ./internal/experiments/
	EON_SERVING_GATE=1 $(GO) test -count=1 -run 'TestServingGate' -timeout 300s .
	$(GO) test -json -bench 'BenchmarkServingThroughput' -benchtime=1x -run '^$$' . > BENCH_serving.json
	$(call bench-summary,BENCH_serving.json)

# Fig-10 plus the ScanConcurrency sweep (cold/warm caches), with
# allocation stats; the raw `go test -json` event stream is kept in
# BENCH_scan.json for later comparison. The vectorized-vs-row kernel
# comparison runs separately into BENCH_query.json.
bench:
	$(GO) test -json -bench 'BenchmarkFig10_TPCH|BenchmarkScanParallelism' -benchmem -benchtime=1x -run '^$$' . > BENCH_scan.json
	$(call bench-summary,BENCH_scan.json)
	$(GO) test -json -bench 'BenchmarkQueryKernels' -benchmem -benchtime=10x -run '^$$' . > BENCH_query.json
	$(call bench-summary,BENCH_query.json)
	$(GO) test -json -bench 'BenchmarkTracingOverhead' -benchmem -benchtime=10x -run '^$$' . > BENCH_obs.json
	$(call bench-summary,BENCH_obs.json)
	$(GO) test -json -bench 'BenchmarkStreamingExec' -benchmem -benchtime=5x -run '^$$' . > BENCH_exec.json
	$(call bench-summary,BENCH_exec.json)
	$(GO) test -json -bench 'BenchmarkReconcileRecovery' -benchtime=1x -run '^$$' -timeout 600s . > BENCH_reconcile.json
	$(call bench-summary,BENCH_reconcile.json)

# Every benchmark in the repository (figures + ablations).
bench-all:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# The repository benchmark (BENCHMARK.json, bench/README.md) is a nested
# module that root `go test ./...` does not reach: its unit tests plus a
# quick smoke run of every workload, ~10 s. The sources are tested from
# a sibling copy because the tree carries a built binary, bench/bench,
# that makes the traced smoke runs resolve their output directory to a
# path under that file when run from bench/ itself; files under bench/
# are the benchmark's and are not this Makefile's to remove.
bench-smoke:
	rm -rf .bench_smoke && mkdir .bench_smoke
	cp bench/*.go bench/go.mod .bench_smoke/
	cd .bench_smoke && $(GO) test ./...
	rm -rf .bench_smoke

# One run of one benchmark workload, exactly as the driver runs it:
#   make repo-bench W=tpch_warm [SEED=1] [TRACE=0]
repo-bench:
	bash bench/run.sh --workload $(W) --seed $(or $(SEED),1) --seconds 15 --trace $(or $(TRACE),0)
