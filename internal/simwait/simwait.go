// Package simwait is the one way the simulators (netsim's link cost,
// objstore.Sim's service time) let modelled time elapse.
//
// A Go timer cannot do it: an idle runtime parks in epoll_wait, whose
// timeout is whole milliseconds rounded up, so a 50 µs time.After returns
// after ~1.1 ms and a 3.3 ms one after ~4.3 ms (DESIGN §5 has the
// table). Sleep waits the whole-millisecond part of d on a timer, where
// the timer is accurate, and yields the processor until the deadline for
// the rest; a yielding goroutine keeps the scheduler awake, so the tail
// costs what it says.
//
// Not for real back-off: the resilience layer's hedge and retry timers
// and the LoadCost/QueryCost sleeps stay on package time. A
// testing/synctest build (ROADMAP item 2) must swap Sleep for a plain
// time.Sleep — a yield loop never durably blocks, so a bubble's virtual
// clock would not advance past it.
package simwait

import (
	"context"
	"runtime"
	"time"
)

// Sleep returns nil once d has elapsed, or ctx.Err() as soon as ctx is
// done. A non-positive d only checks ctx.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	deadline := time.Now().Add(d)
	done := ctx.Done() // polled below: a channel poll takes no lock, ctx.Err() takes the context's
	if whole := d.Truncate(time.Millisecond); whole > 0 {
		t := time.NewTimer(whole)
		select {
		case <-done:
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	for time.Now().Before(deadline) {
		select {
		case <-done:
			return ctx.Err()
		default:
			runtime.Gosched()
		}
	}
	return nil
}
