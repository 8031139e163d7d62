package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"

	"eon/internal/catalog"
)

// benchSpec is BENCHMARK.json, the single place metric names and units
// are declared; the program refuses to report a name it does not list
// and fails the run if a listed name was not reported.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads BENCHMARK.json from the working directory (the root of
// a checkout, where the driver runs the command) or its parent (when run
// from bench/ itself, as the tests are).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects one run's values against the declared names.
type metrics struct {
	defs   []metricDef
	units  map[string]string
	values map[string]metric
	errs   []string
}

func newMetrics(defs []metricDef) metrics {
	m := metrics{defs: defs, units: map[string]string{}, values: map[string]metric{}}
	for _, d := range defs {
		m.units[d.Name] = d.Unit
	}
	return m
}

func (m *metrics) set(name string, v float64) {
	unit, ok := m.units[name]
	if !ok {
		m.errs = append(m.errs, "metric "+name+" is not declared in BENCHMARK.json")
		return
	}
	m.values[name] = metric{Value: v, Unit: unit}
}

// check reports undeclared names that were set and declared names that
// were not.
func (m *metrics) check() error {
	errs := append([]string(nil), m.errs...)
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			errs = append(errs, "metric "+d.Name+" was not reported")
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}

// summary is what the closed loop looks like across clients. Every
// duration in it is at reference machine speed (see probe.go).
type summary struct {
	ops, reads, copies int
	attempted, failed  int
	firstErr           error
	probeUS            float64       // median probe time during the loop
	probeCPU           time.Duration // CPU the probes themselves used
	speed              float64       // probeRefUS / probeUS
	opsPerSec          float64
	rawOpsPerSec       float64 // as the wall clock saw it
	maint              [len(opKindNames)][]time.Duration
	jobs, gcDeleted    int
	readP50, readP95   []float64 // per read template, ms
	writeP50           float64
}

func summarize(w *workloadSpec, p *phase) summary {
	var s summary
	var probes []float64
	for _, cs := range p.clients {
		probes = append(probes, cs.probe...)
	}
	for _, us := range probes {
		s.probeCPU += time.Duration(us * 1e3) // single-threaded and compute-bound: CPU time = wall time
	}
	s.probeUS, s.speed = probeRefUS, 1
	if len(probes) > 0 {
		s.probeUS = median(probes)
		s.speed = probeRefUS / s.probeUS
	}
	lat := make([][]time.Duration, len(w.templates))
	for _, cs := range p.clients {
		// Throughput is the sum of each client's own rate over the time
		// it spent inside ops and scheduled maintenance; the harness's
		// answer checks, depot clears and probes between ops are not the
		// program's time.
		var n int
		var busy, rawBusy time.Duration
		for t, ts := range cs.lat {
			n += len(ts)
			if t == w.copyTmpl() {
				s.copies += len(ts)
			} else {
				s.reads += len(ts)
			}
			for _, x := range ts {
				d := x.normalize(s.speed)
				lat[t] = append(lat[t], d)
				busy += d
				rawBusy += x.wall
			}
		}
		for k, ts := range cs.maint {
			for _, x := range ts {
				d := x.normalize(s.speed)
				s.maint[k] = append(s.maint[k], d)
				busy += d
				rawBusy += x.wall
			}
		}
		s.opsPerSec += ratio(float64(n-cs.failed), busy.Seconds())
		s.rawOpsPerSec += ratio(float64(n-cs.failed), rawBusy.Seconds())
		s.attempted += cs.attempted
		s.failed += cs.failed
		if s.firstErr == nil {
			s.firstErr = cs.firstErr
		}
		s.jobs += cs.jobs
		s.gcDeleted += cs.gcDeleted
	}
	for k, ts := range p.finalMaint {
		for _, x := range ts {
			s.maint[k] = append(s.maint[k], x.normalize(s.speed))
		}
	}
	s.ops = s.reads + s.copies
	// Percentiles are taken per template, never over the mix: with 20
	// equally frequent queries every 5% step of a pooled percentile sits
	// in the gap between two templates and jumps from run to run.
	for t, ds := range lat {
		if len(ds) == 0 {
			continue
		}
		if t == w.copyTmpl() {
			s.writeP50 = median(msAll(ds))
			continue
		}
		s.readP50 = append(s.readP50, median(msAll(ds)))
		s.readP95 = append(s.readP95, percentile(msAll(ds), 95))
	}
	return s
}

// endToEnd fills the metrics a user of the system would see.
func endToEnd(m *metrics, s summary, p *phase, setups []time.Duration, revives []reviveResult) {
	ops := float64(s.ops)
	var setupS, reviveS []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	for _, r := range revives {
		reviveS = append(reviveS, r.total.Seconds())
	}
	sim0, sim1 := p.before.sim, p.after.sim
	reqs := (sim1.Gets - sim0.Gets) + (sim1.Puts - sim0.Puts) + (sim1.Lists - sim0.Lists) + (sim1.Deletes - sim0.Deletes)
	moved := (sim1.BytesRead - sim0.BytesRead) + (sim1.BytesWritten - sim0.BytesWritten)
	m.set("setup_s", median(setupS))
	m.set("ops_s", s.opsPerSec)
	m.set("read_lat_p50_ms", geomean(s.readP50))
	m.set("read_lat_p95_ms", geomean(s.readP95))
	m.set("write_lat_p50_ms", s.writeP50)
	m.set("cpu_ms_per_op", ratio(ms(p.after.cpu-p.before.cpu-s.probeCPU)*s.speed, ops))
	m.set("alloc_mb_per_op", ratio(float64(p.after.mem.TotalAlloc-p.before.mem.TotalAlloc)/1e6, ops))
	m.set("s3_req_per_op", ratio(float64(reqs), ops))
	m.set("s3_mb_per_op", ratio(float64(moved)/1e6, ops))
	m.set("write_amp", ratio(float64(p.putBytes), float64(p.userBytes)))
	m.set("space_amp", ratio(float64(p.liveBytes), float64(p.userBytes)))
	m.set("revive_s", median(reviveS))
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// perLayer fills the single-layer metrics that come from before/after
// readings of public counters and from the decorator.
func perLayer(m *metrics, e *env, s summary, p *phase, revives []reviveResult) {
	ops, reads := float64(s.ops), float64(s.reads)
	c0, c1 := p.before.reg.Counters, p.after.reg.Counters
	d := func(name string) float64 { return float64(c1[name] - c0[name]) }
	dNodes := func(suffix string) float64 {
		var sum float64
		for name := range c1 {
			if strings.HasPrefix(name, "node.") && strings.HasSuffix(name, suffix) {
				sum += d(name)
			}
		}
		return sum
	}

	m.set("core.plancache_hit_ratio", ratio(d("plancache.hits"), d("plancache.hits")+d("plancache.misses")))
	m.set("core.plancache_replans_per_op", ratio(d("plancache.replans"), ops))
	m.set("core.resultcache_hit_ratio", ratio(d("resultcache.hits"), d("resultcache.hits")+d("resultcache.misses")))
	m.set("core.resultcache_mb", float64(p.after.reg.Gauges["resultcache.bytes"])/1e6)
	m.set("core.admission_queued", d("admission.queued"))
	m.set("core.admit_wait_p50_us", float64(p.after.reg.Histograms["admission.wait_ns"].P50)/1e3)

	m.set("core.scan_rows_per_op", ratio(d("scan.rows_scanned"), reads))
	m.set("core.scan_containers_per_op", ratio(d("scan.containers_scanned"), reads))
	m.set("core.scan_blocks_pruned_ratio", ratio(d("scan.blocks_pruned"), d("scan.blocks_pruned")+d("scan.blocks_scanned")))
	m.set("core.scan_fetches_per_op", ratio(d("scan.fetches"), reads))
	m.set("core.scan_decode_ms_per_op", ratio(d("scan.decode_ns")/1e6, reads))
	m.set("core.scan_filter_ms_per_op", ratio(d("scan.filter_ns")/1e6, reads))
	m.set("core.scan_io_wait_ms_per_op", ratio(d("scan.io_wait_ns")/1e6, reads))
	m.set("core.scan_rows_fallback", d("scan.rows_fallback"))
	m.set("exec.spills", d("exec.spills"))
	m.set("exec.peak_mem_mb_p95", float64(p.after.reg.Histograms["exec.query_peak_mem_bytes"].P95)/1e6)

	hits, misses := dNodes(".cache.hits"), dNodes(".cache.misses")
	m.set("cache.hit_ratio", ratio(hits, hits+misses))
	m.set("cache.evictions", dNodes(".cache.evictions"))
	m.set("cache.coalesced_fetches", dNodes(".cache.coalesced_fetches"))
	var cached float64
	for name, v := range p.after.reg.Gauges {
		if strings.HasPrefix(name, "node.") && strings.HasSuffix(name, ".cache.bytes_cached") {
			cached += float64(v)
		}
	}
	m.set("cache.bytes_cached_mb", cached/1e6)

	m.set("resilience.retries", d("resilience.retries"))
	m.set("resilience.hedges", d("resilience.hedges_fired"))
	m.set("resilience.breaker_opens", d("resilience.breaker_opens"))
	m.set("netsim.msgs_per_op", ratio(float64(p.after.net.Messages-p.before.net.Messages), ops))
	m.set("netsim.mb_per_op", ratio(float64(p.after.net.Bytes-p.before.net.Bytes)/1e6, ops))

	m.set("tuplemover.jobs", float64(s.jobs))
	m.set("tuplemover.mergeout_ms_p50", median(msAll(s.maint[opMergeout])))
	var stall time.Duration
	for _, x := range s.maint[opMergeout] {
		stall += x
	}
	m.set("tuplemover.stall_ms_total", ms(stall))
	m.set("core.sync_ms_p50", median(msAll(s.maint[opSync])))
	m.set("core.gc_ms_p50", median(msAll(s.maint[opGC])))
	m.set("core.gc_files_deleted", float64(s.gcDeleted))
	containers := map[catalog.OID]bool{}
	for _, n := range e.db.Nodes() {
		n.Catalog().Snapshot().ForEach(catalog.KindStorageContainer, func(o catalog.Object) bool {
			containers[o.(*catalog.StorageContainer).OID] = true
			return true
		})
	}
	m.set("catalog.containers_end", float64(len(containers)))

	var rGets, rMB, rFirst []float64
	for _, r := range revives {
		rGets = append(rGets, float64(r.gets))
		rMB = append(rMB, float64(r.readBytes)/1e6)
		rFirst = append(rFirst, ms(r.firstQuery))
	}
	m.set("core.revive_gets", median(rGets))
	m.set("core.revive_mb", median(rMB))
	m.set("core.revive_first_query_ms", median(rFirst))

	m0, m1 := p.before.mem, p.after.mem
	m.set("proc.peak_rss_mb", peakRSSMB())
	m.set("proc.heap_live_mb", float64(m0.HeapAlloc)/1e6) // read right after a forced GC
	m.set("proc.allocs_per_op", ratio(float64(m1.Mallocs-m0.Mallocs), ops))
	m.set("proc.gc_cycles_per_op", ratio(float64(m1.NumGC-m0.NumGC), ops))
	m.set("proc.gc_pause_ms_total", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)

	objstoreLayer(m, e, s, p)
}

// objstoreLayer reports what the decorator saw during the measured loop
// and attributes calls to the kind of op they ran under.
func objstoreLayer(m *metrics, e *env, s summary, p *phase) {
	ops := float64(s.ops)
	records, calls, owner := e.attributed(p)

	count := map[string]float64{}
	bytes := map[string]float64{}
	var getMS, putMS, getKB []float64
	var busy time.Duration
	var maxIn int32
	var failed, readGets, rewritten, catalogPut float64
	for i, c := range calls {
		count[c.Kind]++
		bytes[c.Kind] += float64(c.Bytes)
		d := c.End.Sub(c.Start)
		busy += d
		if c.Inflight > maxIn {
			maxIn = c.Inflight
		}
		if c.Failed {
			failed++
		}
		switch c.Kind {
		case "get":
			getMS = append(getMS, ms(d))
			getKB = append(getKB, float64(c.Bytes)/1e3)
		case "put":
			putMS = append(putMS, ms(d))
			if c.Catalog {
				catalogPut += float64(c.Bytes)
			}
		}
		if owner[i] < 0 {
			continue
		}
		switch k := records[owner[i]].kind; {
		case k == opQuery && c.Kind == "get":
			readGets++
		case k == opMergeout && c.Kind == "put":
			rewritten += float64(c.Bytes)
		}
	}
	m.set("objstore.gets_per_op", ratio(count["get"], ops))
	m.set("objstore.puts_per_op", ratio(count["put"], ops))
	m.set("objstore.lists_per_op", ratio(count["list"], ops))
	m.set("objstore.deletes_per_op", ratio(count["delete"], ops))
	m.set("objstore.get_mb_per_op", ratio(bytes["get"]/1e6, ops))
	m.set("objstore.put_mb_per_op", ratio(bytes["put"]/1e6, ops))
	m.set("objstore.get_ms_p50", median(getMS))
	m.set("objstore.get_ms_p95", percentile(getMS, 95))
	m.set("objstore.put_ms_p50", median(putMS))
	m.set("objstore.get_kb_p50", median(getKB))
	m.set("objstore.busy_ms_per_op", ratio(ms(busy), ops))
	m.set("objstore.max_inflight", float64(maxIn))
	m.set("objstore.failed", failed)
	m.set("objstore.gets_per_read", ratio(readGets, float64(s.reads)))
	m.set("tuplemover.rewritten_mb", rewritten/1e6)
	m.set("catalog.put_kb_per_copy", ratio(catalogPut/1e3, float64(s.copies)))
}

// traceLayer reports the mean per-op fold of a traced pass (the parts
// sum to the mean op wall time) and what tracing cost.
func traceLayer(m *metrics, records []opRecord, untracedOps, tracedOps float64) {
	var sum stageTimes
	for i := range records {
		for j, d := range records[i].fold {
			sum[j] += d
		}
	}
	n := float64(len(records))
	for j, d := range sum {
		m.set("trace."+stageNames[j]+"_ms", ratio(ms(d), n))
	}
	m.set("obs.trace_overhead_pct", 100*ratio(untracedOps-tracedOps, untracedOps))
}

// printTable writes the human-readable view, sorted by name.
func printTable(out io.Writer, m *metrics) {
	names := make([]string, 0, len(m.values))
	for name := range m.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m.values[name]
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", name, v.Value, v.Unit)
	}
}
