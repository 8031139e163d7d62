package objstore

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"eon/internal/obs"
	"eon/internal/simwait"
)

// SimConfig tunes the shared-storage simulator. Zero values disable each
// effect, so `Sim{Backend: NewMem()}` behaves like a plain in-memory store.
type SimConfig struct {
	// GetLatency etc. are the fixed per-request service times, modeling
	// the higher access latency of shared storage (§5 property 1).
	GetLatency    time.Duration
	PutLatency    time.Duration
	ListLatency   time.Duration
	DeleteLatency time.Duration
	// BytesPerSecond is the per-request transfer bandwidth; 0 means
	// infinite.
	BytesPerSecond float64
	// FailureRate is the probability in [0,1) that a request fails with
	// ErrTransient before doing any work ("any filesystem access can and
	// will fail", §5.3).
	FailureRate float64
	// ThrottleConcurrency caps in-flight requests; excess requests fail
	// immediately with ErrThrottled (S3 SlowDown). 0 means unlimited.
	ThrottleConcurrency int
	// Seed makes failure injection deterministic.
	Seed int64
	// Faults is an optional deterministic fault schedule layered on top
	// of the probabilistic knobs above (timed failure windows, per-prefix
	// rates, throttle bursts, latency spikes).
	Faults *FaultSchedule
}

// Costs is the request pricing used for cost accounting, loosely modeled
// on S3 pricing: PUT/LIST are an order of magnitude more expensive than
// GET ("requests cost money", §5.3).
type Costs struct {
	PerGet      float64
	PerPut      float64
	PerList     float64
	PerDelete   float64
	PerGBStored float64
}

// DefaultCosts approximates 2018 S3 request pricing in USD.
func DefaultCosts() Costs {
	return Costs{
		PerGet:    0.0000004,
		PerPut:    0.000005,
		PerList:   0.000005,
		PerDelete: 0,
	}
}

// Stats counts simulator traffic.
type Stats struct {
	Gets, Puts, Lists, Deletes int64
	BytesRead, BytesWritten    int64
	Throttled, Failed          int64
}

// RequestCostUSD prices the request counts under c.
func (s Stats) RequestCostUSD(c Costs) float64 {
	return float64(s.Gets)*c.PerGet + float64(s.Puts)*c.PerPut +
		float64(s.Lists)*c.PerList + float64(s.Deletes)*c.PerDelete
}

// Sim wraps a backend Store with the shared-storage behaviour model.
// It is safe for concurrent use.
type Sim struct {
	backend Store
	cfg     SimConfig

	mu  sync.Mutex
	rng *rand.Rand

	inflight chan struct{}

	ops atomic.Int64 // global request index for Faults

	// Traffic counters are monotonic for the life of the Sim (that is what
	// a metrics registry sees); Stats()/ResetStats() derive a resettable
	// view by subtracting a baseline captured under statsMu.
	gets, puts, lists, deletes obs.Counter
	bytesRead, bytesWritten    obs.Counter
	throttled, failed          obs.Counter
	getNS, putNS               obs.Histogram

	statsMu  sync.Mutex
	baseline Stats
}

// NewSim wraps backend with the given configuration.
func NewSim(backend Store, cfg SimConfig) *Sim {
	s := &Sim{backend: backend, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.ThrottleConcurrency > 0 {
		s.inflight = make(chan struct{}, cfg.ThrottleConcurrency)
	}
	return s
}

// read takes a raw snapshot of the monotonic counters. Byte counters are
// read before request counters: each operation increments its request
// counter before its byte counter, so a snapshot can never show more
// bytes than its request counts account for.
func (s *Sim) read() Stats {
	br, bw := s.bytesRead.Value(), s.bytesWritten.Value()
	return Stats{
		Gets: s.gets.Value(), Puts: s.puts.Value(),
		Lists: s.lists.Value(), Deletes: s.deletes.Value(),
		BytesRead: br, BytesWritten: bw,
		Throttled: s.throttled.Value(), Failed: s.failed.Value(),
	}
}

// Stats returns a snapshot of traffic counters since the last ResetStats.
func (s *Sim) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	cur := s.read()
	b := s.baseline
	return Stats{
		Gets: cur.Gets - b.Gets, Puts: cur.Puts - b.Puts,
		Lists: cur.Lists - b.Lists, Deletes: cur.Deletes - b.Deletes,
		BytesRead: cur.BytesRead - b.BytesRead, BytesWritten: cur.BytesWritten - b.BytesWritten,
		Throttled: cur.Throttled - b.Throttled, Failed: cur.Failed - b.Failed,
	}
}

// ResetStats zeroes the Stats() view. The underlying counters stay
// monotonic — the reset captures a baseline rather than storing zeros,
// so concurrent Stats() readers can never observe a torn half-reset
// (some counters zeroed, others not).
func (s *Sim) ResetStats() {
	s.statsMu.Lock()
	s.baseline = s.read()
	s.statsMu.Unlock()
}

// Instrument registers the simulator's counters, request-latency
// histograms, and a derived request-cost gauge (in nano-USD, priced at
// DefaultCosts) into reg under the "objstore." prefix. Registry values
// are monotonic: ResetStats affects only the Stats() view.
func (s *Sim) Instrument(reg *obs.Registry) {
	reg.RegisterCounter("objstore.gets", &s.gets)
	reg.RegisterCounter("objstore.puts", &s.puts)
	reg.RegisterCounter("objstore.lists", &s.lists)
	reg.RegisterCounter("objstore.deletes", &s.deletes)
	reg.RegisterCounter("objstore.bytes_read", &s.bytesRead)
	reg.RegisterCounter("objstore.bytes_written", &s.bytesWritten)
	reg.RegisterCounter("objstore.throttled", &s.throttled)
	reg.RegisterCounter("objstore.failed", &s.failed)
	reg.RegisterHistogram("objstore.get_ns", &s.getNS)
	reg.RegisterHistogram("objstore.put_ns", &s.putNS)
	reg.GaugeFunc("objstore.request_cost_nano_usd", func() int64 {
		return int64(s.read().RequestCostUSD(DefaultCosts()) * 1e9)
	})
}

// begin applies throttling and failure injection for a request on key;
// it returns a release function and any scheduled extra latency, or an
// error if the request was rejected. The fault schedule is consulted
// before the probabilistic knobs so chaos runs stay deterministic.
func (s *Sim) begin(key string) (func(), time.Duration, error) {
	var verdict Verdict
	if s.cfg.Faults != nil {
		verdict = s.cfg.Faults.Eval(s.ops.Add(1)-1, key)
	}
	if verdict.Throttle {
		s.throttled.Add(1)
		return nil, 0, ErrThrottled
	}
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
		default:
			s.throttled.Add(1)
			return nil, 0, ErrThrottled
		}
	}
	release := func() {
		if s.inflight != nil {
			<-s.inflight
		}
	}
	fail := verdict.Fail
	if !fail && s.cfg.FailureRate > 0 {
		s.mu.Lock()
		fail = s.rng.Float64() < s.cfg.FailureRate
		s.mu.Unlock()
	}
	if fail {
		release()
		s.failed.Add(1)
		return nil, 0, ErrTransient
	}
	return release, verdict.ExtraLatency, nil
}

// wait simulates service time for a request moving n payload bytes.
func (s *Sim) wait(ctx context.Context, base time.Duration, n int64) error {
	d := base
	if s.cfg.BytesPerSecond > 0 && n > 0 {
		d += time.Duration(float64(n) / s.cfg.BytesPerSecond * float64(time.Second))
	}
	return simwait.Sleep(ctx, d)
}

// Put implements Store. The request and its payload bytes are counted at
// request start — a canceled or failed upload is still billed, matching
// S3 billing semantics.
func (s *Sim) Put(ctx context.Context, key string, data []byte) error {
	release, extra, err := s.begin(key)
	if err != nil {
		return err
	}
	defer release()
	start := time.Now()
	defer func() { s.putNS.ObserveDuration(time.Since(start)) }()
	s.puts.Add(1)
	s.bytesWritten.Add(int64(len(data)))
	if err := s.wait(ctx, s.cfg.PutLatency+extra, int64(len(data))); err != nil {
		return err
	}
	return s.backend.Put(ctx, key, data)
}

// Get implements Store. The request is counted as soon as it reaches the
// backend and its bytes as soon as the object size is known, before the
// service-time wait — a request canceled mid-transfer is still billed.
func (s *Sim) Get(ctx context.Context, key string) ([]byte, error) {
	release, extra, err := s.begin(key)
	if err != nil {
		return nil, err
	}
	defer release()
	start := time.Now()
	defer func() { s.getNS.ObserveDuration(time.Since(start)) }()
	s.gets.Add(1)
	data, err := s.backend.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	s.bytesRead.Add(int64(len(data)))
	if err := s.wait(ctx, s.cfg.GetLatency+extra, int64(len(data))); err != nil {
		return nil, err
	}
	return data, nil
}

// GetRange implements Store. Counting follows Get.
func (s *Sim) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	release, extra, err := s.begin(key)
	if err != nil {
		return nil, err
	}
	defer release()
	start := time.Now()
	defer func() { s.getNS.ObserveDuration(time.Since(start)) }()
	s.gets.Add(1)
	data, err := s.backend.GetRange(ctx, key, offset, length)
	if err != nil {
		return nil, err
	}
	s.bytesRead.Add(int64(len(data)))
	if err := s.wait(ctx, s.cfg.GetLatency+extra, int64(len(data))); err != nil {
		return nil, err
	}
	return data, nil
}

// List implements Store. The request is counted at request start.
func (s *Sim) List(ctx context.Context, prefix string) ([]Info, error) {
	release, extra, err := s.begin(prefix)
	if err != nil {
		return nil, err
	}
	defer release()
	s.lists.Add(1)
	if err := s.wait(ctx, s.cfg.ListLatency+extra, 0); err != nil {
		return nil, err
	}
	return s.backend.List(ctx, prefix)
}

// Delete implements Store. The request is counted at request start.
func (s *Sim) Delete(ctx context.Context, key string) error {
	release, extra, err := s.begin(key)
	if err != nil {
		return err
	}
	defer release()
	s.deletes.Add(1)
	if err := s.wait(ctx, s.cfg.DeleteLatency+extra, 0); err != nil {
		return err
	}
	return s.backend.Delete(ctx, key)
}
