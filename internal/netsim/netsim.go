// Package netsim models the cluster interconnect for the in-process
// simulation: per-message latency, per-link bandwidth, rack locality and
// node reachability. Higher layers call Transfer to account for the cost
// of moving bytes between nodes (metadata distribution, peer cache
// warming, query exchanges) and move the actual data in memory.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"eon/internal/obs"
	"eon/internal/simwait"
)

// ErrUnreachable is returned when an endpoint is down or partitioned.
var ErrUnreachable = errors.New("netsim: node unreachable")

// LinkCost describes one direction of a node pair.
type LinkCost struct {
	Latency   time.Duration
	Bandwidth float64 // bytes per second; 0 = infinite
}

// Stats counts network traffic.
type Stats struct {
	Messages int64
	Bytes    int64
	// Drops counts transfers rejected by the fault schedule.
	Drops int64
}

// OpRange is a half-open interval [From, To) of transfer indices.
type OpRange struct {
	From, To int64
}

func (r OpRange) contains(op int64) bool { return op >= r.From && op < r.To }

// DropWindow fails transfers with ErrUnreachable at the given rate
// within an op range.
type DropWindow struct {
	OpRange
	Rate float64
}

// LatencySpike adds Extra latency to transfers in an op range.
type LatencySpike struct {
	OpRange
	Extra time.Duration
}

// Faults is a deterministic, seedable schedule of injected network
// faults, mirroring objstore.FaultSchedule for the interconnect. Every
// decision is a pure function of (Seed, op index, endpoints).
type Faults struct {
	Seed          int64
	DropWindows   []DropWindow
	LatencySpikes []LatencySpike
}

// netVerdict is the schedule's decision for one transfer.
type netVerdict struct {
	drop  bool
	extra time.Duration
}

// eval decides the fate of transfer op between from and to.
func (f *Faults) eval(op int64, from, to string) netVerdict {
	if f == nil {
		return netVerdict{}
	}
	var v netVerdict
	for i, w := range f.DropWindows {
		if w.contains(op) && roll(f.Seed, op, from+"->"+to, i) < w.Rate {
			v.drop = true
		}
	}
	for _, s := range f.LatencySpikes {
		if s.contains(op) {
			v.extra += s.Extra
		}
	}
	return v
}

// roll derives a uniform value in [0,1) from the seed, op index, link
// and rule index.
func roll(seed, op int64, link string, idx int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%d\x00%s\x00%d", seed, op, link, idx)
	return float64(h.Sum64()>>11) / (1 << 53)
}

// Network is the simulated interconnect. The zero cost configuration
// transfers instantly, which unit tests rely on.
type Network struct {
	mu      sync.RWMutex
	def     LinkCost
	links   map[string]LinkCost // "from->to" overrides
	racks   map[string]string   // node -> rack
	crossRk LinkCost            // cost override for cross-rack links
	hasXRk  bool
	down    map[string]bool
	faults  *Faults

	ops atomic.Int64 // transfer index for the fault schedule

	// Traffic counters are monotonic (the registry view); ResetStats
	// captures a baseline for the Stats() view instead of zeroing, so a
	// concurrent reader can never observe a torn reset.
	messages obs.Counter
	bytes    obs.Counter
	drops    obs.Counter

	statsMu  sync.Mutex
	baseline Stats
}

// New returns a network with the given default link cost.
func New(def LinkCost) *Network {
	return &Network{
		def:   def,
		links: map[string]LinkCost{},
		racks: map[string]string{},
		down:  map[string]bool{},
	}
}

func key(from, to string) string { return from + "->" + to }

// SetLink overrides the cost of one directed link.
func (n *Network) SetLink(from, to string, c LinkCost) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[key(from, to)] = c
}

// SetRack places a node on a rack; links between different racks use the
// cross-rack cost when one is set.
func (n *Network) SetRack(node, rack string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.racks[node] = rack
}

// Rack returns the rack of a node ("" if unplaced).
func (n *Network) Rack(node string) string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.racks[node]
}

// SetCrossRackCost sets the cost of links crossing racks.
func (n *Network) SetCrossRackCost(c LinkCost) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crossRk = c
	n.hasXRk = true
}

// SetDown marks a node unreachable (true) or reachable (false).
func (n *Network) SetDown(node string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[node] = down
}

// IsDown reports whether a node is marked unreachable.
func (n *Network) IsDown(node string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.down[node]
}

// costFor resolves the link cost for a directed pair.
func (n *Network) costFor(from, to string) LinkCost {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if c, ok := n.links[key(from, to)]; ok {
		return c
	}
	if n.hasXRk {
		rf, rt := n.racks[from], n.racks[to]
		if rf != rt && (rf != "" || rt != "") {
			return n.crossRk
		}
	}
	return n.def
}

// SetFaults installs (or clears, with nil) the network fault schedule.
func (n *Network) SetFaults(f *Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = f
}

// Transfer accounts for moving size bytes from one node to another,
// sleeping for the modeled cost. It fails if either endpoint is down or
// the fault schedule drops the transfer.
func (n *Network) Transfer(ctx context.Context, from, to string, size int64) error {
	return n.send(ctx, from, to, size, true)
}

// send is the shared cost model behind Transfer and Stream.Send: one
// fault-schedule decision, an optional latency charge, a bandwidth
// charge, and the message/byte counters. includeLatency is false for
// follow-up chunks of an established stream, which are pipelined behind
// the first chunk's round trip.
func (n *Network) send(ctx context.Context, from, to string, size int64, includeLatency bool) error {
	if n.IsDown(from) || n.IsDown(to) {
		return fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to)
	}
	n.mu.RLock()
	faults := n.faults
	n.mu.RUnlock()
	var verdict netVerdict
	if faults != nil {
		verdict = faults.eval(n.ops.Add(1)-1, from, to)
	}
	if verdict.drop {
		n.drops.Add(1)
		return fmt.Errorf("%w: %s -> %s (injected fault)", ErrUnreachable, from, to)
	}
	c := n.costFor(from, to)
	d := verdict.extra
	if includeLatency {
		d += c.Latency
	}
	if c.Bandwidth > 0 && size > 0 {
		d += time.Duration(float64(size) / c.Bandwidth * float64(time.Second))
	}
	if d > 0 {
		if err := simwait.Sleep(ctx, d); err != nil {
			return err
		}
	}
	// Re-check after the transfer time: a node killed mid-transfer fails
	// the transfer.
	if n.IsDown(from) || n.IsDown(to) {
		return fmt.Errorf("%w: %s -> %s (during transfer)", ErrUnreachable, from, to)
	}
	n.messages.Add(1)
	n.bytes.Add(size)
	return nil
}

// Stream is a long-lived exchange channel between two nodes for chunked,
// pipelined sends: the link latency is paid once on the first chunk
// (connection setup), and each subsequent chunk pays only its bandwidth
// cost. Every chunk is a separate message for the fault schedule and the
// traffic counters, so drops and latency spikes still apply mid-stream.
// A Stream is not safe for concurrent use; open one per sender
// goroutine.
type Stream struct {
	n        *Network
	from, to string
	opened   bool
}

// Stream opens a chunked send channel from one node to another. Opening
// is free; costs are charged per Send.
func (n *Network) Stream(from, to string) *Stream {
	return &Stream{n: n, from: from, to: to}
}

// Send accounts for one chunk of the stream, sleeping for the modeled
// cost. The first chunk pays the link latency; later chunks are
// pipelined and pay bandwidth only. A failed first chunk leaves the
// stream unopened, so a retry pays latency again.
func (s *Stream) Send(ctx context.Context, size int64) error {
	err := s.n.send(ctx, s.from, s.to, size, !s.opened)
	if err == nil {
		s.opened = true
	}
	return err
}

// read takes a raw snapshot of the monotonic counters, bytes before
// messages (Transfer counts messages before bytes, so a snapshot never
// shows more bytes than its message count accounts for).
func (n *Network) read() Stats {
	b := n.bytes.Value()
	return Stats{Messages: n.messages.Value(), Bytes: b, Drops: n.drops.Value()}
}

// Stats returns traffic totals since the last ResetStats.
func (n *Network) Stats() Stats {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	cur := n.read()
	return Stats{
		Messages: cur.Messages - n.baseline.Messages,
		Bytes:    cur.Bytes - n.baseline.Bytes,
		Drops:    cur.Drops - n.baseline.Drops,
	}
}

// ResetStats zeroes the Stats() view by capturing a baseline (the
// fault-schedule op index is a schedule position, not a stat, and is not
// reset; the underlying counters stay monotonic for the registry).
func (n *Network) ResetStats() {
	n.statsMu.Lock()
	n.baseline = n.read()
	n.statsMu.Unlock()
}

// Instrument registers the interconnect's traffic counters into reg
// under the "net." prefix.
func (n *Network) Instrument(reg *obs.Registry) {
	reg.RegisterCounter("net.messages", &n.messages)
	reg.RegisterCounter("net.bytes", &n.bytes)
	reg.RegisterCounter("net.drops", &n.drops)
}
