package netsim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestTransferFree(t *testing.T) {
	n := New(LinkCost{})
	if err := n.Transfer(context.Background(), "a", "b", 1000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Messages != 1 || st.Bytes != 1000 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTransferLatency(t *testing.T) {
	n := New(LinkCost{Latency: 20 * time.Millisecond})
	start := time.Now()
	n.Transfer(context.Background(), "a", "b", 0)
	if time.Since(start) < 15*time.Millisecond {
		t.Error("latency not applied")
	}
}

func TestTransferBandwidth(t *testing.T) {
	n := New(LinkCost{Bandwidth: 1 << 20}) // 1 MiB/s
	start := time.Now()
	n.Transfer(context.Background(), "a", "b", 1<<18) // 256 KiB -> ~250 ms
	if time.Since(start) < 200*time.Millisecond {
		t.Error("bandwidth not applied")
	}
}

func TestDownNodeUnreachable(t *testing.T) {
	n := New(LinkCost{})
	n.SetDown("b", true)
	err := n.Transfer(context.Background(), "a", "b", 10)
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("want ErrUnreachable, got %v", err)
	}
	if n.Stats().Messages != 0 {
		t.Error("failed transfer must not count")
	}
	n.SetDown("b", false)
	if err := n.Transfer(context.Background(), "a", "b", 10); err != nil {
		t.Errorf("recovered node should be reachable: %v", err)
	}
}

func TestLinkOverride(t *testing.T) {
	n := New(LinkCost{})
	n.SetLink("a", "b", LinkCost{Latency: 30 * time.Millisecond})
	start := time.Now()
	n.Transfer(context.Background(), "a", "b", 0)
	if time.Since(start) < 20*time.Millisecond {
		t.Error("link override not applied")
	}
	// Reverse direction uses the default (free).
	start = time.Now()
	n.Transfer(context.Background(), "b", "a", 0)
	if time.Since(start) > 15*time.Millisecond {
		t.Error("override leaked to reverse direction")
	}
}

func TestCrossRackCost(t *testing.T) {
	n := New(LinkCost{})
	n.SetRack("a", "rack1")
	n.SetRack("b", "rack2")
	n.SetRack("c", "rack1")
	n.SetCrossRackCost(LinkCost{Latency: 30 * time.Millisecond})

	start := time.Now()
	n.Transfer(context.Background(), "a", "b", 0)
	if time.Since(start) < 20*time.Millisecond {
		t.Error("cross-rack cost not applied")
	}
	start = time.Now()
	n.Transfer(context.Background(), "a", "c", 0)
	if time.Since(start) > 15*time.Millisecond {
		t.Error("same-rack should use default cost")
	}
	if n.Rack("a") != "rack1" {
		t.Error("rack lookup")
	}
}

func TestTransferContextCancel(t *testing.T) {
	n := New(LinkCost{Latency: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := n.Transfer(ctx, "a", "b", 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("want deadline exceeded, got %v", err)
	}
}

func TestResetStats(t *testing.T) {
	n := New(LinkCost{})
	n.Transfer(context.Background(), "a", "b", 5)
	n.ResetStats()
	if st := n.Stats(); st.Messages != 0 || st.Bytes != 0 {
		t.Error("reset failed")
	}
}

func TestFaultScheduleDropsDeterministically(t *testing.T) {
	run := func(seed int64) []bool {
		n := New(LinkCost{})
		n.SetFaults(&Faults{Seed: seed, DropWindows: []DropWindow{{OpRange{0, 100}, 0.3}}})
		var out []bool
		for i := 0; i < 100; i++ {
			err := n.Transfer(context.Background(), "a", "b", 10)
			out = append(out, err != nil)
		}
		return out
	}
	a, b := run(9), run(9)
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transfer %d differs under same seed", i)
		}
		if a[i] {
			drops++
		}
	}
	if drops == 0 || drops == 100 {
		t.Errorf("drop rate 0.3 produced %d/100 drops", drops)
	}
	c := run(10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds yielded identical drop patterns")
	}
}

func TestFaultScheduleDropCounted(t *testing.T) {
	n := New(LinkCost{})
	n.SetFaults(&Faults{Seed: 1, DropWindows: []DropWindow{{OpRange{0, 10}, 1.0}}})
	err := n.Transfer(context.Background(), "a", "b", 1)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if n.Stats().Drops != 1 {
		t.Errorf("stats = %+v", n.Stats())
	}
	n.SetFaults(nil)
	if err := n.Transfer(context.Background(), "a", "b", 1); err != nil {
		t.Errorf("cleared faults must pass: %v", err)
	}
}

func TestStreamLatencyPaidOncePerStream(t *testing.T) {
	n := New(LinkCost{Latency: 20 * time.Millisecond})

	s := n.Stream("a", "b")
	start := time.Now()
	if err := s.Send(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("first chunk did not pay link latency")
	}
	start = time.Now()
	for i := 0; i < 5; i++ {
		if err := s.Send(context.Background(), 100); err != nil {
			t.Fatal(err)
		}
	}
	if time.Since(start) > 15*time.Millisecond {
		t.Error("follow-up chunks paid latency again")
	}
	st := n.Stats()
	if st.Messages != 6 || st.Bytes != 600 {
		t.Errorf("stats = %+v, want 6 messages / 600 bytes", st)
	}
}

func TestStreamChunksPayBandwidth(t *testing.T) {
	n := New(LinkCost{Bandwidth: 1 << 20}) // 1 MiB/s
	s := n.Stream("a", "b")
	start := time.Now()
	for i := 0; i < 2; i++ {
		if err := s.Send(context.Background(), 1<<17); err != nil { // 128 KiB each -> ~125 ms
			t.Fatal(err)
		}
	}
	if time.Since(start) < 200*time.Millisecond {
		t.Error("bandwidth not applied per chunk")
	}
}

func TestStreamDownNodeMidStream(t *testing.T) {
	n := New(LinkCost{})
	s := n.Stream("a", "b")
	if err := s.Send(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	n.SetDown("b", true)
	if err := s.Send(context.Background(), 10); !errors.Is(err, ErrUnreachable) {
		t.Errorf("want ErrUnreachable mid-stream, got %v", err)
	}
}

func TestStreamFailedOpenRepaysLatency(t *testing.T) {
	n := New(LinkCost{Latency: 20 * time.Millisecond})
	n.SetDown("b", true)
	s := n.Stream("a", "b")
	if err := s.Send(context.Background(), 10); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
	n.SetDown("b", false)
	start := time.Now()
	if err := s.Send(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("retry after failed open did not repay latency")
	}
}

func TestStreamChunksHitFaultSchedule(t *testing.T) {
	n := New(LinkCost{})
	n.SetFaults(&Faults{Seed: 1, DropWindows: []DropWindow{{OpRange{0, 1000}, 1.0}}})
	s := n.Stream("a", "b")
	if err := s.Send(context.Background(), 10); !errors.Is(err, ErrUnreachable) {
		t.Errorf("chunk bypassed the fault schedule: %v", err)
	}
	if n.Stats().Drops != 1 {
		t.Errorf("stats = %+v", n.Stats())
	}
}

func TestStreamContextCancel(t *testing.T) {
	n := New(LinkCost{Latency: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	s := n.Stream("a", "b")
	if err := s.Send(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("want deadline exceeded, got %v", err)
	}
}

// eventually passes if one of a few attempts meets its bound: the bounds
// are what a quiet machine achieves, and other packages' tests share the
// cores. It fails with the last attempt's reading.
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

// A modelled hop costs what the model says, not the runtime's
// millisecond timer quantum (internal/simwait): the first chunk of a
// stream its 50 µs latency, follow-up chunks their bandwidth share.
func TestTransferCostIsPrecise(t *testing.T) {
	n := New(LinkCost{Latency: 50 * time.Microsecond, Bandwidth: 2 << 30})
	median := func(send func() error) time.Duration {
		took := make([]time.Duration, 50)
		for i := range took {
			start := time.Now()
			if err := send(); err != nil {
				t.Fatal(err)
			}
			took[i] = time.Since(start)
		}
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		return took[len(took)/2]
	}
	eventually(t, func() (bool, string) {
		got := median(func() error { return n.Transfer(context.Background(), "a", "b", 4096) })
		return got >= 50*time.Microsecond && got < 300*time.Microsecond,
			fmt.Sprintf("median of 50 transfers over a 50µs link = %v, want in [50µs, 300µs)", got)
	})
	s := n.Stream("a", "b")
	if err := s.Send(context.Background(), 4096); err != nil {
		t.Fatal(err)
	}
	eventually(t, func() (bool, string) {
		got := median(func() error { return s.Send(context.Background(), 64<<10) })
		return got < 300*time.Microsecond,
			fmt.Sprintf("median follow-up chunk (64 KiB at 2 GiB/s = 31µs) = %v, want < 300µs", got)
	})
}

func TestTransferCancelIsPrompt(t *testing.T) {
	n := New(LinkCost{Latency: 50 * time.Millisecond})
	eventually(t, func() (bool, string) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var canceledAt atomic.Int64
		time.AfterFunc(time.Millisecond, func() {
			canceledAt.Store(time.Now().UnixNano())
			cancel()
		})
		err := n.Transfer(ctx, "a", "b", 0)
		late := time.Duration(time.Now().UnixNano() - canceledAt.Load())
		return errors.Is(err, context.Canceled) && late < time.Millisecond,
			fmt.Sprintf("canceled transfer: err=%v, returned %v after the cancel; want context.Canceled within 1ms", err, late)
	})
}
