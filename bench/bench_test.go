package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"eon/internal/types"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndGeomean(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {95, 4.8}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}
	if got := geomean([]float64{4, 0}); !near(got, 4) {
		t.Errorf("geomean skipping zero = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v", got)
	}
}

func TestOplistFollowsSeed(t *testing.T) {
	for _, w := range workloads() {
		sha := func(seed int64) string {
			data := newDataset(w, seed, true)
			warm, measured := newOpGen(w, data, seed).plan(w.quickUnits)
			return oplistSHA(warm, measured)
		}
		a, b, c := sha(7), sha(7), sha(8)
		if a != b {
			t.Errorf("%s: same seed gave %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op list %s", w.name, a)
		}
	}
}

func TestUserBytes(t *testing.T) {
	b := types.NewBatch(types.Schema{
		{Name: "i", Type: types.Int64}, {Name: "f", Type: types.Float64},
		{Name: "d", Type: types.Date}, {Name: "ok", Type: types.Bool}, {Name: "s", Type: types.Varchar},
	}, 2)
	b.AppendRow(types.Row{types.NewInt(1), types.NewFloat(2), types.NewDate(3), types.NewBool(true), types.NewString("abc")})
	b.AppendRow(types.Row{types.NewInt(4), types.NewFloat(5), types.NewDate(6), types.NewBool(false), types.NewString("")})
	if got, want := userBytesOf(b), int64(2*4*8+3); got != want {
		t.Errorf("userBytesOf = %d, want %d", got, want)
	}
}

func TestSameRows(t *testing.T) {
	a := []types.Row{{types.NewString("x"), types.NewFloat(7060853.244999995)}, {types.NewString("y"), types.NullDatum(types.Float64)}}
	b := []types.Row{{types.NewString("y"), types.NullDatum(types.Float64)}, {types.NewString("x"), types.NewFloat(7060853.245000003)}}
	if !sameRows(a, b) {
		t.Error("reordered rows with last-bit float noise must match")
	}
	b[1][1] = types.NewFloat(7060853.3)
	if sameRows(a, b) {
		t.Error("a float off in the 8th digit must not match")
	}
	if sameRows(a, a[:1]) {
		t.Error("different row counts must not match")
	}
	if sameRows([]types.Row{a[0], a[0]}, a) {
		t.Error("a duplicated row must not pair with two different rows")
	}
}

// The decorator must see exactly the traffic the simulator bills.
func TestDecoratorMatchesSim(t *testing.T) {
	w := workloads()[3] // copy_mergeout: PUTs, DELETEs, and GETs and LISTs on revive
	data := newDataset(w, 1, true)
	warm, measured := newOpGen(w, data, 1).plan(w.quickUnits)
	e, _, err := setup(w, data, warm, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.measure(measured, false, 0); err != nil {
		t.Fatal(err)
	}
	if r := e.revive(); r.err != nil {
		t.Fatal(r.err)
	}
	n := map[string]int64{}
	var read, written int64
	for _, c := range e.traced.snapshot() {
		n[c.Kind]++
		switch c.Kind {
		case "get":
			read += c.Bytes
		case "put":
			written += c.Bytes
		}
	}
	st := e.sim.Stats()
	if n["get"] != st.Gets || n["put"] != st.Puts || n["list"] != st.Lists || n["delete"] != st.Deletes {
		t.Errorf("decorator saw %v, simulator billed %+v", n, st)
	}
	if read != st.BytesRead || written != st.BytesWritten {
		t.Errorf("decorator bytes read/written %d/%d, simulator %d/%d", read, written, st.BytesRead, st.BytesWritten)
	}
	if st.Gets == 0 || st.Puts == 0 || st.Lists == 0 {
		t.Errorf("test exercised too little: %+v", st)
	}
}

func TestFoldSumsToWall(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	records := []opRecord{
		{kind: opQuery, start: at(0), end: at(10), fold: stageTimes{stPlan: time.Millisecond, stFetch: 6 * time.Millisecond, stDecode: time.Millisecond}},
		{kind: opCopy, start: at(10), end: at(20)},
		{kind: opQuery, start: at(20), end: at(22), fold: stageTimes{stFetch: 5 * time.Millisecond, stDecode: 5 * time.Millisecond}}, // parallel leaves exceed the wall
	}
	calls := []objCall{
		{Kind: "get", Start: at(2), End: at(5)}, {Kind: "get", Start: at(4), End: at(6)}, // overlap: 4 ms busy
		{Kind: "put", Start: at(12), End: at(13)},
		{Kind: "get", Start: at(30), End: at(31)}, // outside every op
	}
	owner := attachObjstore(records, calls)
	if want := []int{0, 0, 1, -1}; len(owner) != 4 || owner[0] != want[0] || owner[1] != want[1] || owner[2] != want[2] || owner[3] != want[3] {
		t.Errorf("owners = %v, want %v", owner, want)
	}
	if got := records[0].fold; got[stObjstore] != 4*time.Millisecond || got[stFetch] != 2*time.Millisecond || got[stUnattributed] != 2*time.Millisecond {
		t.Errorf("query fold = %+v", got)
	}
	if got := records[1].fold; got[stObjstore] != time.Millisecond || got[stUnattributed] != 9*time.Millisecond {
		t.Errorf("copy fold = %+v", got)
	}
	for i := range records {
		var sum time.Duration
		for _, d := range records[i].fold {
			if d < 0 {
				t.Errorf("record %d has a negative part: %v", i, records[i].fold)
			}
			sum += d
		}
		if wall := records[i].end.Sub(records[i].start); sum != wall {
			t.Errorf("record %d parts sum to %v, wall %v", i, sum, wall)
		}
	}
}

// Every workload at smoke size, traced and untraced between them, must
// report every declared metric exactly once and fail nothing.
func TestQuickSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads()))
	}
	// The runs mostly sleep on simulated latency, so they go all at once
	// (go test's own -parallel defaults to GOMAXPROCS, which is 2 here).
	type smoke struct {
		name  string
		trace int
		out   bytes.Buffer
		res   *result
		err   error
	}
	var runs []*smoke
	for i, w := range spec.Workloads {
		runs = append(runs, &smoke{name: w.Name, trace: 1})
		if i == 0 { // the untraced path differs only in which metrics it fills
			runs = append(runs, &smoke{name: w.Name, trace: 0})
		}
	}
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(r *smoke) {
			defer wg.Done()
			r.res, r.err = run(options{workload: r.name, seed: 5, trace: r.trace, quick: true}, &r.out)
		}(r)
	}
	wg.Wait()
	for _, r := range runs {
		r := r
		t.Run(fmt.Sprintf("%s/trace=%d", r.name, r.trace), func(t *testing.T) {
			out, res, trace := r.out.String(), r.res, r.trace
			if r.err != nil {
				t.Fatalf("%v\n%s", r.err, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			defs := spec.EndToEnd
			if trace == 1 {
				defs = spec.PerLayer
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%d metrics reported, %d declared", len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := last.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("metric %s: reported %+v (present=%v), declared unit %q", d.Name, got, ok, d.Unit)
				}
				if n := strings.Count(out, "  "+d.Name+" "); n != 1 {
					t.Errorf("metric %s appears %d times in the table", d.Name, n)
				}
				if trace == 0 && !(got.Value > 0) {
					t.Errorf("end-to-end metric %s = %v; must never be 0", d.Name, got.Value)
				}
			}
		})
	}
}
