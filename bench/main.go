// Command bench is the repository benchmark: one process runs one
// workload once, checks every answer, and prints every metric by name.
//
//	go run . -workload tpch_warm -seed 1 [-seconds 15] [-trace 1] [-quick]
//
// BENCHMARK.json at the repository root declares the workloads, metric
// names, units and regression bounds; README.md explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

const (
	benchProcs = 2   // the reference box has 2 cores; never more clients than that
	benchGOGC  = 100 // pinned so an inherited GOGC cannot move alloc-driven timings
	setups     = 3   // set-ups per run; setup_s is their median
	revives    = 3   // shutdown -> revive cycles per run; revive_s is their median
	cutoffX    = 4   // a closed loop is cut short after cutoffX * seconds
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the data, the op list and the storage simulator")
	flag.IntVar(&o.seconds, "seconds", 0, "run length the op count is sized for (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, reports the per-layer metrics and writes bench/out/trace_<workload>.json")
	flag.BoolVar(&o.quick, "quick", false, "smoke-test size (about 1/50), for the unit tests")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	if _, err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options, out io.Writer) (*result, error) {
	runtime.GOMAXPROCS(benchProcs)
	debug.SetGCPercent(benchGOGC)
	spec, err := loadSpec()
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var w *workloadSpec
	for _, cand := range workloads() {
		if cand.name == o.workload {
			w = cand
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	traced := o.trace != 0
	defs := spec.EndToEnd
	if traced {
		defs = spec.PerLayer
	}
	m := newMetrics(defs)

	// Inputs: everything below is a function of the seed alone.
	data := newDataset(w, o.seed, o.quick)
	units := w.units(o.seconds, o.quick)
	if traced && units > 1 {
		units /= 2 // a traced run makes two passes in the time of one
	}
	warm, measured := newOpGen(w, data, o.seed).plan(units)
	if err := fillOracle(w, data, warm, measured); err != nil {
		return nil, err
	}
	nOps := 0
	for _, ops := range measured {
		nOps += len(ops)
	}
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%d trace=%d quick=%v\n", w.name, o.seed, o.seconds, o.trace, o.quick)
	fmt.Fprintf(out, "GOMAXPROCS=%d GOGC=%d go=%s cpu=%q git=%s\n", benchProcs, benchGOGC, runtime.Version(), cpuModel(), gitSHA())
	fmt.Fprintf(out, "cluster: %d nodes, %d shards, k=%d, %d client(s), closed loop; units=%d listed_ops=%d oplist_sha=%s\n",
		w.nodes, w.shards, w.k, w.clients, units, nOps, oplistSHA(warm, measured))
	fmt.Fprintf(out, "cadence: %s\n", w.cadence)

	// Set up `setups` times; the last one (traced: the last two) carries
	// a measured pass. Earlier set-ups exist only to make setup_s a
	// median, and are dropped.
	passes := 1
	if traced {
		passes = 2
	}
	deadline := time.Duration(cutoffX*o.seconds) * time.Second
	res := &result{}
	var setupTimes []time.Duration
	var untracedOps float64
	for i := 0; i < setups; i++ {
		e, d, err := setup(w, data, warm, o.seed, traced)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d)
		switch i - (setups - passes) {
		case 0: // the untraced pass: every end-to-end number comes from here
			p, err := e.measure(measured, false, deadline)
			if err != nil {
				return nil, err
			}
			s := summarize(w, p)
			if traced {
				if err := e.replays(&m); err != nil {
					return nil, err
				}
			}
			rs := e.reviveAll(&s)
			if traced {
				perLayer(&m, e, s, p, rs)
			} else {
				endToEnd(&m, s, p, setupTimes, rs)
			}
			res.Attempted += s.attempted
			res.Failed += s.failed
			untracedOps = s.opsPerSec
			fmt.Fprintf(out, "measured: %d ops (%d reads, %d copies) in %.3fs; %d failed\n",
				s.ops, s.reads, s.copies, p.after.at.Sub(p.before.at).Seconds(), s.failed)
			fmt.Fprintf(out, "machine speed %.3f (probe %.0f us, reference %d us): timings are scaled to the reference; raw ops_s %.4g\n",
				s.speed, s.probeUS, probeRefUS, s.rawOpsPerSec)
			if s.firstErr != nil {
				fmt.Fprintf(out, "first failure: %v\n", s.firstErr)
			}
		case 1: // the traced pass: same op list, Session.Trace on
			p, err := e.measure(measured, true, deadline)
			if err != nil {
				return nil, err
			}
			s := summarize(w, p)
			records, calls, owner := e.attributed(p)
			path, err := writeTrace(traceDir(), w, records, calls, owner)
			if err != nil {
				return nil, fmt.Errorf("trace file: %w", err)
			}
			traceLayer(&m, records, untracedOps, s.opsPerSec)
			res.Attempted += s.attempted
			res.Failed += s.failed
			fmt.Fprintf(out, "traced: %d ops, %d spans -> %s\n", s.ops, len(records)+len(calls), path)
		}
	}
	if err := m.check(); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	res.Metrics = m.values
	printTable(out, &m)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// traceDir is bench/out under the checkout root, or out when run from
// bench/ itself.
func traceDir() string {
	if _, err := os.Stat("bench"); err == nil {
		return "bench/out"
	}
	return "out"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// gitSHA resolves HEAD by reading .git directly: the benchmark starts no
// processes, and the driver's checkout is not a repository at all.
func gitSHA() string {
	for _, dir := range []string{".git", "../.git"} {
		head, err := os.ReadFile(dir + "/HEAD")
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if sha, err := os.ReadFile(dir + "/" + name); err == nil {
				return strings.TrimSpace(string(sha))
			}
			return name
		}
		return ref
	}
	return "none"
}
