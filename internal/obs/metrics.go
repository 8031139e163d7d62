// Package obs is the unified observability layer: a lock-cheap metrics
// registry (counters, gauges, bounded-bucket histograms) that every
// subsystem registers into, and per-query hierarchical span tracing that
// feeds EXPLAIN PROFILE-style reports (trace.go).
//
// The package imports nothing from the rest of the system, so the lowest
// layers (objstore, resilience, netsim, cache) can build on it without
// cycles. All metric types have useful zero values and nil-safe methods:
// a subsystem embeds Counters directly and registers them into a shared
// Registry only when one is attached, and instrumented code paths never
// need to branch on "is observability on".
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready to use; a nil *Counter discards all adds.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 metric: either set explicitly or
// computed on read by a function (for derived values like cache bytes).
// The zero value is ready to use; a nil *Gauge discards sets.
type Gauge struct {
	v  atomic.Int64
	fn func() int64
}

// Set stores the gauge value (ignored on function-backed gauges).
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (ignored on function-backed gauges).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket 0 holds values <= 0 and
// bucket i (i >= 1) holds values in [2^(i-1), 2^i). 64 buckets cover the
// whole int64 range, so the histogram is bounded regardless of input.
const histBuckets = 64

// Histogram records an int64 value distribution (typically nanoseconds)
// in exponential buckets, cheap enough for hot paths: one atomic add per
// observation plus a CAS loop for the max. The zero value is ready to
// use; a nil *Histogram discards observations.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// HistStats is a point-in-time summary of a histogram.
type HistStats struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// Mean returns the average observed value.
func (s HistStats) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the containing bucket. Estimates are upper-bounded by the true
// bucket boundary, so p99 of a distribution entirely inside one bucket
// reports at most 2x the true value.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i := 0; i < histBuckets; i++ {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := bucketBounds(i)
			frac := 0.0
			if n > 0 {
				frac = (target - cum) / n
			}
			v := float64(lo) + frac*float64(hi-lo)
			// Compare in float64: the top bucket's upper bound rounds to
			// 2^63, which int64 conversion would overflow to MinInt64.
			if m := h.max.Load(); v >= float64(m) {
				return m
			}
			return int64(v)
		}
		cum += n
	}
	return h.max.Load()
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (int64, int64) {
	if i == 0 {
		return 0, 1
	}
	lo := int64(1) << (i - 1)
	if i == histBuckets-1 {
		return lo, 1<<62 + (1<<62 - 1) // clamp: top bucket is open-ended
	}
	return lo, int64(1) << i
}

// Counts returns a copy of the per-bucket observation counts. Two
// snapshots taken at different times can be differenced to recover the
// distribution of just the observations in between (see CountsQuantile),
// which is how the reconciler derives a windowed p95 from a cumulative
// histogram.
func (h *Histogram) Counts() []int64 {
	out := make([]int64, histBuckets)
	if h == nil {
		return out
	}
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// CountsQuantile estimates the q-quantile of a bucket-count vector laid
// out like Histogram.Counts (typically a difference of two snapshots).
// It returns 0 when the window holds no observations.
func CountsQuantile(counts []int64, q float64) int64 {
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i := 0; i < len(counts) && i < histBuckets; i++ {
		n := float64(counts[i])
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := bucketBounds(i)
			frac := (target - cum) / n
			v := float64(lo) + frac*float64(hi-lo)
			// Same overflow guard as Quantile: the top bucket's upper
			// bound does not fit int64 after float64 rounding.
			if v >= float64(math.MaxInt64) {
				return math.MaxInt64
			}
			return int64(v)
		}
		cum += n
	}
	return 0
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistStats {
	if h == nil {
		return HistStats{}
	}
	return HistStats{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}
