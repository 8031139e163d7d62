package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace collects the spans of one query into a hierarchical profile.
// A nil *Trace (tracing disabled) is fully functional: StartSpan returns
// a nil *Span whose methods no-op without allocating, so instrumented
// code never branches on whether tracing is on.
type Trace struct {
	mu       sync.Mutex
	root     *Span
	now      func() time.Time
	open     int
	dangling int
}

// Span is one timed region of a trace. Child spans may be started from
// any goroutine; a span's own counters are mutated under the trace lock.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	wall     time.Duration
	rowsIn   int64
	rowsOut  int64
	bytes    int64
	attrs    map[string]int64
	children []*Span
	ended    bool
	// accum marks a span whose wall time is accumulated via AddTime
	// (summed across workers); End keeps the accumulated value instead of
	// measuring start-to-end.
	accum bool
}

// NewTrace starts a trace with a root span of the given name. The clock
// defaults to time.Now; tests inject a deterministic one.
func NewTrace(name string, now func() time.Time) *Trace {
	if now == nil {
		now = time.Now
	}
	t := &Trace{now: now}
	t.root = &Span{tr: t, name: name, start: now()}
	t.open = 1
	return t
}

// Root returns the trace's root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// StartSpan opens a child span under s. Returns nil when tracing is
// disabled (nil receiver) so the caller's End/Add calls all no-op.
func (s *Span) StartSpan(name string) *Span {
	if s == nil || s.tr == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	child := &Span{tr: t, name: name, start: t.now()}
	s.children = append(s.children, child)
	t.open++
	return child
}

// StartAccum is StartSpan for an accumulator span: its wall time is what
// AddTime adds — zero if nothing does — never its own start-to-end
// interval.
func (s *Span) StartAccum(name string) *Span {
	child := s.StartSpan(name)
	if child != nil {
		child.tr.mu.Lock()
		child.accum = true
		child.tr.mu.Unlock()
	}
	return child
}

// End closes the span, fixing its wall time. Ending twice is a no-op, so
// `defer sp.End()` composes with early explicit ends on error paths.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	if !s.accum {
		s.wall = t.now().Sub(s.start)
	}
	t.open--
}

// AddRowsIn accumulates rows consumed by the span's operator.
func (s *Span) AddRowsIn(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.tr.mu.Lock()
	s.rowsIn += n
	s.tr.mu.Unlock()
}

// AddRowsOut accumulates rows produced by the span's operator.
func (s *Span) AddRowsOut(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.tr.mu.Lock()
	s.rowsOut += n
	s.tr.mu.Unlock()
}

// AddBytes accumulates bytes fetched/transferred within the span.
func (s *Span) AddBytes(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.tr.mu.Lock()
	s.bytes += n
	s.tr.mu.Unlock()
}

// AddTime widens the span's wall time by d without closing it. Used by
// accumulator spans (decode/filter) that sum time across worker
// goroutines rather than measuring their own start-to-end interval.
func (s *Span) AddTime(d time.Duration) {
	if s == nil || d == 0 {
		return
	}
	s.tr.mu.Lock()
	s.accum = true
	s.wall += d
	s.tr.mu.Unlock()
}

// AddAttr accumulates a named counter on the span (cache hits, blocks
// pruned, ...). Attributes with zero deltas are not materialized.
func (s *Span) AddAttr(key string, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.tr.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]int64{}
	}
	s.attrs[key] += n
	s.tr.mu.Unlock()
}

// SetAttr sets a named counter on the span, however often it is set: a
// fact about the operator (a join ran fused) rather than a sum over the
// nodes that run it.
func (s *Span) SetAttr(key string, n int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]int64{}
	}
	s.attrs[key] = n
	s.tr.mu.Unlock()
}

// spanKey is the context key for the active span.
type spanKey struct{}

// WithSpan returns a context carrying sp as the active span.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFrom returns the active span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Finish closes the trace: any spans still open (a query that failed
// mid-scan) are force-ended so the profile is complete, and the count of
// such dangling spans is recorded. Returns the materialized profile.
func (t *Trace) Finish() *Profile {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var closeAll func(s *Span)
	closeAll = func(s *Span) {
		if !s.ended {
			s.ended = true
			if !s.accum {
				s.wall = t.now().Sub(s.start)
			}
			t.open--
			if s != t.root {
				t.dangling++
			}
		}
		for _, c := range s.children {
			closeAll(c)
		}
	}
	closeAll(t.root)
	p := profileOf(t.root)
	p.Dangling = t.dangling
	return p
}

// Profile is the immutable, exportable form of a finished trace: a tree
// of per-operator measurements backing EXPLAIN PROFILE and the
// slow-query log.
type Profile struct {
	Name     string           `json:"name"`
	Wall     time.Duration    `json:"wall_ns"`
	RowsIn   int64            `json:"rows_in,omitempty"`
	RowsOut  int64            `json:"rows_out,omitempty"`
	Bytes    int64            `json:"bytes,omitempty"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []*Profile       `json:"children,omitempty"`
	// Dangling is set on the root only: spans force-ended by Finish.
	Dangling int `json:"dangling,omitempty"`
}

// profileOf converts a span subtree; caller holds the trace lock.
func profileOf(s *Span) *Profile {
	p := &Profile{
		Name:    s.name,
		Wall:    s.wall,
		RowsIn:  s.rowsIn,
		RowsOut: s.rowsOut,
		Bytes:   s.bytes,
	}
	if len(s.attrs) > 0 {
		p.Attrs = make(map[string]int64, len(s.attrs))
		for k, v := range s.attrs {
			p.Attrs[k] = v
		}
	}
	for _, c := range s.children {
		p.Children = append(p.Children, profileOf(c))
	}
	return p
}

// Find returns the first profile node with the given name in preorder,
// or nil. Convenience for tests and report tooling.
func (p *Profile) Find(name string) *Profile {
	if p == nil {
		return nil
	}
	if p.Name == name {
		return p
	}
	for _, c := range p.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// Visit walks the profile tree in preorder.
func (p *Profile) Visit(fn func(*Profile)) {
	if p == nil {
		return
	}
	fn(p)
	for _, c := range p.Children {
		c.Visit(fn)
	}
}

// Text renders the profile as an indented per-operator report.
func (p *Profile) Text() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	var walk func(n *Profile, depth int)
	walk = func(n *Profile, depth int) {
		fmt.Fprintf(&b, "%s%s  wall=%s", strings.Repeat("  ", depth), n.Name, n.Wall.Round(time.Microsecond))
		if n.RowsIn > 0 {
			fmt.Fprintf(&b, " rows_in=%d", n.RowsIn)
		}
		if n.RowsOut > 0 {
			fmt.Fprintf(&b, " rows_out=%d", n.RowsOut)
		}
		if n.Bytes > 0 {
			fmt.Fprintf(&b, " bytes=%d", n.Bytes)
		}
		if len(n.Attrs) > 0 {
			keys := make([]string, 0, len(n.Attrs))
			for k := range n.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%d", k, n.Attrs[k])
			}
		}
		if n.Dangling > 0 {
			fmt.Fprintf(&b, " dangling=%d", n.Dangling)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return b.String()
}
