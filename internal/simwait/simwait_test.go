package simwait

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The bounds below are what the mechanism achieves on a quiet machine; a
// busy one (other packages' tests share the cores) can delay any single
// wake-up by milliseconds. Each timing check therefore passes if one of a
// few attempts meets its bound, and fails with the last attempt's reading.
func eventually(t *testing.T, attempt func() (ok bool, reading string)) {
	t.Helper()
	var reading string
	for i := 0; i < 5; i++ {
		var ok bool
		if ok, reading = attempt(); ok {
			return
		}
	}
	t.Error(reading)
}

func medianOf(n int, d time.Duration) time.Duration {
	took := make([]time.Duration, n)
	for i := range took {
		start := time.Now()
		_ = Sleep(context.Background(), d)
		took[i] = time.Since(start)
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	return took[n/2]
}

// A sub-millisecond wait costs what it says, not the runtime's
// millisecond parking quantum, and the fractional part of a longer one is
// not rounded up to the next millisecond.
func TestSleepIsPrecise(t *testing.T) {
	for _, c := range []struct {
		d, below time.Duration
		n        int
	}{
		{50 * time.Microsecond, 300 * time.Microsecond, 50},
		{3300 * time.Microsecond, 3600 * time.Microsecond, 9},
	} {
		eventually(t, func() (bool, string) {
			got := medianOf(c.n, c.d)
			return got >= c.d && got < c.below,
				"median of " + c.d.String() + " waits = " + got.String() + ", want at least that and below " + c.below.String()
		})
	}
}

// Concurrent waits overlap: a yielding waiter does not hold its
// processor the way a blocked syscall would.
func TestSleepConcurrentWaitsOverlap(t *testing.T) {
	const d = 50 * time.Microsecond
	eventually(t, func() (bool, string) {
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < 24; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = Sleep(context.Background(), d)
			}()
		}
		wg.Wait()
		got := time.Since(start)
		return got < time.Millisecond, "24 concurrent 50µs waits took " + got.String() + ", want < 1ms"
	})
}

// Cancellation is seen within a millisecond, in the timer phase (a 50 ms
// wait) and in the yield phase (an 800 µs one) alike.
func TestSleepCancellation(t *testing.T) {
	for _, d := range []time.Duration{800 * time.Microsecond, 50 * time.Millisecond} {
		eventually(t, func() (bool, string) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var canceledAt atomic.Int64 // the canceling timer is itself subject to the parking quantum
			time.AfterFunc(100*time.Microsecond, func() {
				canceledAt.Store(time.Now().UnixNano())
				cancel()
			})
			err := Sleep(ctx, d)
			if err == nil {
				return false, "Sleep(" + d.String() + ") finished before a cancel due at 100µs arrived"
			}
			late := time.Duration(time.Now().UnixNano() - canceledAt.Load())
			return errors.Is(err, context.Canceled) && late < time.Millisecond,
				"Sleep(" + d.String() + ") returned " + err.Error() + " " + late.String() + " after the cancel; want context.Canceled within 1ms"
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("Sleep(0) on a done context = %v, want context.Canceled", err)
	}
	if err := Sleep(context.Background(), -time.Second); err != nil {
		t.Errorf("Sleep(<0) = %v, want nil", err)
	}
}
