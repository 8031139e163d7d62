package main

import (
	"sort"
	"time"
)

// The box the benchmark runs on is a shared VM whose speed drifts: a
// pure compute loop takes up to 25% longer in some minutes than in
// others, and every timing of a run moves with it. The probe is that
// loop. Each client runs it between ops, outside every timed region,
// and the run's median probe time against probeRefUS gives the factor
// by which the CPU-bound part of each timing is scaled back to the
// reference machine speed (see normalize). Counts are never scaled.

// probeRefUS is the probe's median on the quiet reference box.
const probeRefUS = 950

// probeEvery is the busy time between two probe samples; one sample
// costs about 1 ms, so the probe adds about 4% to a run's wall time.
const probeEvery = 25 * time.Millisecond

type probe struct {
	buf     []uint64
	samples []float64 // microseconds
	sink    uint64
}

func newProbe() *probe {
	p := &probe{buf: make([]uint64, 1<<17)} // 1 MiB: cache-resident work with scattered writes
	for i := range p.buf {
		p.buf[i] = uint64(i) * 2654435761
	}
	return p
}

func (p *probe) sample() {
	start := time.Now()
	var h uint64 = 1469598103934665603
	buf := p.buf
	for i := range buf {
		h = (h ^ buf[i]) * 1099511628211
		buf[(h>>20)%uint64(len(buf))] += h
	}
	s := append([]uint64(nil), buf[:2048]...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p.sink += h + s[0]
	p.samples = append(p.samples, float64(time.Since(start))/1e3)
}

// timing is one timed call: its wall time and the CPU time the whole
// process used meanwhile.
type timing struct {
	wall, cpu time.Duration
}

// normalize returns t's wall time at reference machine speed, given the
// run's speed factor (reference probe time / measured probe time, below
// 1 on a slow machine). Only the part of the wall time the process was
// computing is scaled: min(wall, cpu). Time spent waiting on simulated
// storage or network latency does not depend on machine speed. Work
// spread over both cores has cpu > wall and is scaled whole.
func (t timing) normalize(speed float64) time.Duration {
	busy := t.wall
	if t.cpu < busy {
		busy = t.cpu
	}
	return t.wall - time.Duration(float64(busy)*(1-speed))
}
