package objstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMemPutGet(t *testing.T) {
	ctx := context.Background()
	m := NewMem()
	if err := m.Put(ctx, "a/b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := m.Get(ctx, "a/b")
	if err != nil || string(got) != "hello" {
		t.Fatalf("get = %q, %v", got, err)
	}
}

func TestMemImmutable(t *testing.T) {
	ctx := context.Background()
	m := NewMem()
	if err := m.Put(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	err := m.Put(ctx, "k", []byte("v2"))
	if !errors.Is(err, ErrExists) {
		t.Errorf("overwrite should fail with ErrExists, got %v", err)
	}
}

func TestMemGetNotFound(t *testing.T) {
	_, err := NewMem().Get(context.Background(), "nope")
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
}

func TestMemGetCopiesData(t *testing.T) {
	ctx := context.Background()
	m := NewMem()
	src := []byte("abc")
	m.Put(ctx, "k", src)
	src[0] = 'z' // caller mutation must not affect stored copy
	got, _ := m.Get(ctx, "k")
	if string(got) != "abc" {
		t.Errorf("stored data mutated: %q", got)
	}
	got[0] = 'q'
	got2, _ := m.Get(ctx, "k")
	if string(got2) != "abc" {
		t.Errorf("returned data aliases store: %q", got2)
	}
}

func TestMemGetRange(t *testing.T) {
	ctx := context.Background()
	m := NewMem()
	m.Put(ctx, "k", []byte("0123456789"))
	got, err := m.GetRange(ctx, "k", 3, 4)
	if err != nil || string(got) != "3456" {
		t.Fatalf("range = %q, %v", got, err)
	}
	got, err = m.GetRange(ctx, "k", 7, -1)
	if err != nil || string(got) != "789" {
		t.Fatalf("range to EOF = %q, %v", got, err)
	}
	if _, err := m.GetRange(ctx, "k", 99, 1); err == nil {
		t.Error("out-of-bounds range should fail")
	}
}

func TestMemListPrefix(t *testing.T) {
	ctx := context.Background()
	m := NewMem()
	m.Put(ctx, "data/1", []byte("x"))
	m.Put(ctx, "data/2", []byte("xy"))
	m.Put(ctx, "meta/1", []byte("z"))
	infos, err := m.List(ctx, "data/")
	if err != nil || len(infos) != 2 {
		t.Fatalf("list = %v, %v", infos, err)
	}
	if infos[0].Key != "data/1" || infos[1].Size != 2 {
		t.Errorf("list contents = %v", infos)
	}
	all, _ := m.List(ctx, "")
	if len(all) != 3 {
		t.Errorf("list all = %d", len(all))
	}
}

func TestMemDeleteIdempotent(t *testing.T) {
	ctx := context.Background()
	m := NewMem()
	m.Put(ctx, "k", []byte("v"))
	if err := m.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(ctx, "k"); err != nil {
		t.Errorf("second delete should be nil, got %v", err)
	}
	if _, err := m.Get(ctx, "k"); !errors.Is(err, ErrNotFound) {
		t.Error("deleted object should be gone")
	}
}

func TestMemAccounting(t *testing.T) {
	ctx := context.Background()
	m := NewMem()
	m.Put(ctx, "a", make([]byte, 10))
	m.Put(ctx, "b", make([]byte, 5))
	if m.Len() != 2 || m.TotalBytes() != 15 {
		t.Errorf("len=%d bytes=%d", m.Len(), m.TotalBytes())
	}
}

func TestExistsViaList(t *testing.T) {
	ctx := context.Background()
	m := NewMem()
	m.Put(ctx, "abc", []byte("v"))
	m.Put(ctx, "abcd", []byte("v"))
	ok, err := Exists(ctx, m, "abc")
	if err != nil || !ok {
		t.Error("abc should exist")
	}
	ok, _ = Exists(ctx, m, "ab")
	if ok {
		t.Error("prefix-only match must not count as existence")
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewMem()
	if err := m.Put(ctx, "k", []byte("v")); err == nil {
		t.Error("canceled context should fail")
	}
}

func TestSimStats(t *testing.T) {
	ctx := context.Background()
	s := NewSim(NewMem(), SimConfig{})
	s.Put(ctx, "k", []byte("hello"))
	s.Get(ctx, "k")
	s.List(ctx, "")
	s.Delete(ctx, "k")
	st := s.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.Lists != 1 || st.Deletes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesWritten != 5 || st.BytesRead != 5 {
		t.Errorf("bytes = %+v", st)
	}
	s.ResetStats()
	if s.Stats().Puts != 0 {
		t.Error("reset failed")
	}
}

func TestSimLatency(t *testing.T) {
	ctx := context.Background()
	s := NewSim(NewMem(), SimConfig{GetLatency: 20 * time.Millisecond})
	s.Put(ctx, "k", []byte("v"))
	start := time.Now()
	s.Get(ctx, "k")
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("get should take ~20ms, took %v", elapsed)
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

// Service time is what the model says, not rounded up to the runtime's
// millisecond timer quantum (internal/simwait): a 3.3 ms GET takes
// 3.3 ms, not 4.3, and a 50 µs LIST 50 µs, not 1.1 ms.
func TestSimLatencyIsPrecise(t *testing.T) {
	ctx := context.Background()
	s := NewSim(NewMem(), SimConfig{GetLatency: 3300 * time.Microsecond, ListLatency: 50 * time.Microsecond})
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	median := func(n int, op func() error) time.Duration {
		took := make([]time.Duration, n)
		for i := range took {
			start := time.Now()
			if err := op(); err != nil {
				t.Fatal(err)
			}
			took[i] = time.Since(start)
		}
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		return took[n/2]
	}
	eventually(t, func() (bool, string) {
		got := median(9, func() error { _, err := s.Get(ctx, "k"); return err })
		return got >= 3300*time.Microsecond && got < 3600*time.Microsecond,
			fmt.Sprintf("median 3.3ms GET took %v, want in [3.3ms, 3.6ms)", got)
	})
	eventually(t, func() (bool, string) {
		got := median(50, func() error { _, err := s.List(ctx, "k"); return err })
		return got >= 50*time.Microsecond && got < 300*time.Microsecond,
			fmt.Sprintf("median of 50 x 50µs LISTs = %v, want in [50µs, 300µs)", got)
	})
}

func TestSimCancelIsPrompt(t *testing.T) {
	s := NewSim(NewMem(), SimConfig{GetLatency: 50 * time.Millisecond})
	s.Put(context.Background(), "k", []byte("v"))
	eventually(t, func() (bool, string) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var canceledAt atomic.Int64
		time.AfterFunc(time.Millisecond, func() {
			canceledAt.Store(time.Now().UnixNano())
			cancel()
		})
		_, err := s.Get(ctx, "k")
		late := time.Duration(time.Now().UnixNano() - canceledAt.Load())
		return errors.Is(err, context.Canceled) && late < time.Millisecond,
			fmt.Sprintf("canceled GET: err=%v, returned %v after the cancel; want context.Canceled within 1ms", err, late)
	})
}

func TestSimBandwidth(t *testing.T) {
	ctx := context.Background()
	s := NewSim(NewMem(), SimConfig{BytesPerSecond: 1 << 20}) // 1 MiB/s
	data := make([]byte, 1<<18)                               // 256 KiB -> ~250ms
	start := time.Now()
	s.Put(ctx, "k", data)
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Errorf("bandwidth-limited put took only %v", elapsed)
	}
}

func TestSimFailureInjection(t *testing.T) {
	ctx := context.Background()
	s := NewSim(NewMem(), SimConfig{FailureRate: 1.0, Seed: 42})
	err := s.Put(ctx, "k", []byte("v"))
	if !errors.Is(err, ErrTransient) {
		t.Errorf("want ErrTransient, got %v", err)
	}
	if s.Stats().Failed != 1 {
		t.Error("failure not counted")
	}
}

func TestSimThrottle(t *testing.T) {
	ctx := context.Background()
	s := NewSim(NewMem(), SimConfig{ThrottleConcurrency: 1, GetLatency: 50 * time.Millisecond})
	s.Put(ctx, "k", []byte("v"))

	var wg sync.WaitGroup
	var throttled int64
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Get(ctx, "k"); errors.Is(err, ErrThrottled) {
				mu.Lock()
				throttled++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if throttled == 0 {
		t.Error("expected some throttled requests")
	}
}

func TestWithRetrySucceedsAfterTransient(t *testing.T) {
	calls := 0
	err := WithRetry(context.Background(), 5, time.Millisecond, func() error {
		calls++
		if calls < 3 {
			return ErrTransient
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
}

func TestWithRetryGivesUpOnPermanent(t *testing.T) {
	calls := 0
	err := WithRetry(context.Background(), 5, time.Millisecond, func() error {
		calls++
		return ErrNotFound
	})
	if !errors.Is(err, ErrNotFound) || calls != 1 {
		t.Errorf("permanent error should not retry: err=%v calls=%d", err, calls)
	}
}

func TestWithRetryExhausts(t *testing.T) {
	err := WithRetry(context.Background(), 3, time.Microsecond, func() error {
		return ErrThrottled
	})
	if !errors.Is(err, ErrThrottled) {
		t.Errorf("want ErrThrottled after exhaustion, got %v", err)
	}
}

func TestWithRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := WithRetry(ctx, 10, time.Hour, func() error { return ErrTransient })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

func TestRequestCost(t *testing.T) {
	st := Stats{Gets: 1000, Puts: 100}
	c := DefaultCosts()
	cost := st.RequestCostUSD(c)
	want := 1000*c.PerGet + 100*c.PerPut
	if cost != want {
		t.Errorf("cost = %v, want %v", cost, want)
	}
}

func TestSimPreservesImmutability(t *testing.T) {
	ctx := context.Background()
	s := NewSim(NewMem(), SimConfig{})
	s.Put(ctx, "k", []byte("v"))
	if err := s.Put(ctx, "k", []byte("v2")); !errors.Is(err, ErrExists) {
		t.Errorf("sim should pass through ErrExists, got %v", err)
	}
}
