package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var nilC *Counter
	nilC.Inc() // must not panic
	if nilC.Value() != 0 {
		t.Fatalf("nil counter value != 0")
	}

	var g Gauge
	g.Set(7)
	g.Add(3)
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
	fg := Gauge{fn: func() int64 { return 99 }}
	if got := fg.Value(); got != 99 {
		t.Fatalf("func gauge = %d, want 99", got)
	}
	var nilG *Gauge
	nilG.Set(1)
	if nilG.Value() != 0 {
		t.Fatalf("nil gauge value != 0")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.Sum != 500500 {
		t.Fatalf("sum = %d, want 500500", s.Sum)
	}
	if s.Max != 1000 {
		t.Fatalf("max = %d, want 1000", s.Max)
	}
	// Exponential buckets: estimates are within the containing power-of-two
	// bucket, so allow 2x slack on each side of the true quantile.
	check := func(name string, got, trueQ int64) {
		if got < trueQ/2 || got > trueQ*2 {
			t.Errorf("%s = %d, want within [%d, %d]", name, got, trueQ/2, trueQ*2)
		}
	}
	check("p50", s.P50, 500)
	check("p95", s.P95, 950)
	check("p99", s.P99, 990)
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("quantiles not monotone: %d %d %d", s.P50, s.P95, s.P99)
	}
	if s.P99 > s.Max {
		t.Fatalf("p99 %d exceeds max %d", s.P99, s.Max)
	}
	if got := s.Mean(); got != 500 {
		t.Fatalf("mean = %d, want 500", got)
	}
}

func TestHistogramSingleValueClampedToMax(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	s := h.Snapshot()
	// 1000 lands in bucket [512, 1024); interpolation would report up to
	// 1023, but estimates must clamp to the observed max.
	if s.P99 != 1000 || s.P50 > 1000 {
		t.Fatalf("quantiles not clamped to max: p50=%d p99=%d", s.P50, s.P99)
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	h.Observe(-5) // negative goes to bucket 0, not a panic
	h.Observe(0)
	h.Observe(1 << 62)
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Max != 1<<62 {
		t.Fatalf("max = %d", s.Max)
	}
	var nilH *Histogram
	nilH.Observe(1)
	if nilH.Quantile(0.5) != 0 {
		t.Fatalf("nil histogram quantile != 0")
	}
}

func TestRegistryGetOrCreateAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("a").Add(4) // same counter
	r.Gauge("g").Set(11)
	r.GaugeFunc("gf", func() int64 { return 5 })
	r.Histogram("h").Observe(100)

	var ext Counter
	ext.Add(9)
	r.RegisterCounter("ext", &ext)

	s := r.Snapshot()
	if s.Counters["a"] != 7 {
		t.Fatalf("counter a = %d, want 7", s.Counters["a"])
	}
	if s.Counters["ext"] != 9 {
		t.Fatalf("counter ext = %d, want 9", s.Counters["ext"])
	}
	if s.Gauges["g"] != 11 || s.Gauges["gf"] != 5 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if s.Histograms["h"].Count != 1 {
		t.Fatalf("histogram h count = %d", s.Histograms["h"].Count)
	}

	// JSON round-trips.
	var back Snapshot
	if err := json.Unmarshal(s.JSON(), &back); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if back.Counters["a"] != 7 {
		t.Fatalf("round-trip counter a = %d", back.Counters["a"])
	}
	// Text contains every metric name.
	txt := s.Text()
	for _, name := range []string{"a", "ext", "g", "gf", "h"} {
		if !strings.Contains(txt, name) {
			t.Fatalf("text snapshot missing %q:\n%s", name, txt)
		}
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(1)
	r.GaugeFunc("f", func() int64 { return 1 })
	r.RegisterCounter("c", &Counter{})
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Histogram("lat").Observe(int64(j))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
}

func TestTraceNesting(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { clock = clock.Add(time.Millisecond); return clock }
	tr := NewTrace("query", now)
	root := tr.Root()

	scan := root.StartSpan("scan:sales")
	fetch := scan.StartSpan("fetch")
	fetch.AddBytes(4096)
	fetch.End()
	scan.AddRowsOut(100)
	scan.AddAttr("cache_hits", 3)
	scan.End()

	filt := root.StartSpan("filter")
	filt.AddRowsIn(100)
	filt.AddRowsOut(40)
	filt.End()

	p := tr.Finish()
	if p.Name != "query" {
		t.Fatalf("root name = %q", p.Name)
	}
	if len(p.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(p.Children))
	}
	ps := p.Find("scan:sales")
	if ps == nil || ps.RowsOut != 100 || ps.Attrs["cache_hits"] != 3 {
		t.Fatalf("scan profile = %+v", ps)
	}
	if len(ps.Children) != 1 || ps.Children[0].Name != "fetch" || ps.Children[0].Bytes != 4096 {
		t.Fatalf("fetch profile = %+v", ps.Children)
	}
	pf := p.Find("filter")
	if pf == nil || pf.RowsIn != 100 || pf.RowsOut != 40 {
		t.Fatalf("filter profile = %+v", pf)
	}
	if p.Dangling != 0 {
		t.Fatalf("dangling = %d, want 0", p.Dangling)
	}
	if p.Wall <= 0 || ps.Wall <= 0 {
		t.Fatalf("wall times not positive: root=%v scan=%v", p.Wall, ps.Wall)
	}
	txt := p.Text()
	for _, want := range []string{"query", "scan:sales", "fetch", "cache_hits=3", "rows_out=100"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("profile text missing %q:\n%s", want, txt)
		}
	}
}

func TestTraceDanglingSpansForceEnded(t *testing.T) {
	tr := NewTrace("query", nil)
	root := tr.Root()
	scan := root.StartSpan("scan")
	_ = scan.StartSpan("fetch") // never ended: simulates a failure mid-scan
	scan.End()
	p := tr.Finish()
	if p.Dangling != 1 {
		t.Fatalf("dangling = %d, want 1", p.Dangling)
	}
	// The dangling span still appears in the profile with a wall time.
	f := p.Find("fetch")
	if f == nil || f.Wall < 0 {
		t.Fatalf("fetch profile = %+v", f)
	}
}

func TestSpanDoubleEndIsNoop(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { clock = clock.Add(time.Millisecond); return clock }
	tr := NewTrace("q", now)
	sp := tr.Root().StartSpan("op")
	sp.End()
	wall := sp.wall
	sp.End()
	if sp.wall != wall {
		t.Fatalf("second End changed wall: %v -> %v", wall, sp.wall)
	}
}

// TestAccumulatorSpanReportsOnlyAddedTime: an accumulator's wall is the
// sum of what AddTime gave it — zero when nothing did (a scan fragment
// with no predicate never laps its filter span) — not its own lifetime.
func TestAccumulatorSpanReportsOnlyAddedTime(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { clock = clock.Add(time.Millisecond); return clock }
	tr := NewTrace("q", now)
	idle, busy := tr.Root().StartAccum("filter"), tr.Root().StartAccum("decode")
	busy.AddTime(3 * time.Microsecond)
	busy.AddTime(0)
	idle.End()
	busy.End()
	p := tr.Finish()
	if w := p.Find("filter").Wall; w != 0 {
		t.Errorf("idle accumulator reports %v, want 0", w)
	}
	if w := p.Find("decode").Wall; w != 3*time.Microsecond {
		t.Errorf("accumulator reports %v, want 3µs", w)
	}
	var off *Span
	if off.StartAccum("x") != nil {
		t.Error("StartAccum on a nil span must return nil")
	}
}

func TestSpanContextCarry(t *testing.T) {
	tr := NewTrace("q", nil)
	sp := tr.Root().StartSpan("op")
	ctx := WithSpan(context.Background(), sp)
	if got := SpanFrom(ctx); got != sp {
		t.Fatalf("SpanFrom = %p, want %p", got, sp)
	}
	if got := SpanFrom(context.Background()); got != nil {
		t.Fatalf("SpanFrom(empty) = %p, want nil", got)
	}
	// WithSpan(nil span) leaves the context untouched.
	if WithSpan(ctx, nil) != ctx {
		t.Fatalf("WithSpan(nil) returned a new context")
	}
}

// TestDisabledTracerZeroAlloc is the regression gate for the disabled
// fast path: every span operation on a nil trace/span must be free.
// CI runs this without -race (instrumentation allocates under -race).
func TestDisabledTracerZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	var tr *Trace
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		root := tr.Root()
		sp := root.StartSpan("scan")
		sp.AddRowsIn(10)
		sp.AddRowsOut(5)
		sp.AddBytes(100)
		sp.AddAttr("hits", 1)
		sp.AddTime(time.Microsecond)
		child := sp.StartSpan("fetch")
		child.End()
		sp.End()
		_ = SpanFrom(ctx)
		_ = WithSpan(ctx, nil)
		_ = tr.Finish()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f per op, want 0", allocs)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("q", nil)
	root := tr.Root()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				sp := root.StartSpan("frag")
				sp.AddRowsOut(1)
				sp.AddAttr("n", 1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	p := tr.Finish()
	if len(p.Children) != 1600 {
		t.Fatalf("children = %d, want 1600", len(p.Children))
	}
	if p.Dangling != 0 {
		t.Fatalf("dangling = %d", p.Dangling)
	}
}

func TestPublishGatherHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(5)
	Publish("obs-test-db", r)

	snaps := Gather()
	if snaps["obs-test-db"].Counters["reqs"] != 5 {
		t.Fatalf("gathered = %+v", snaps["obs-test-db"])
	}

	// Re-publishing under the same name replaces, not accumulates.
	r2 := NewRegistry()
	r2.Counter("reqs").Add(1)
	Publish("obs-test-db", r2)
	if got := Gather()["obs-test-db"].Counters["reqs"]; got != 1 {
		t.Fatalf("after republish reqs = %d, want 1", got)
	}

	h := Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "obs-test-db") {
		t.Fatalf("JSON handler: code=%d body=%s", rec.Code, rec.Body.String())
	}
	var out map[string]Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("handler JSON: %v", err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=text", nil))
	if !strings.Contains(rec.Body.String(), "== obs-test-db ==") {
		t.Fatalf("text handler body:\n%s", rec.Body.String())
	}
}
