package storage

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func prefetchPaths(n int) []string {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("f%03d", i)
	}
	return paths
}

// TestPrefetchWindowBound: whatever the interleaving, no file is read
// from further ahead than the window that starts at the furthest file the
// scan has asked for, so the files fetched and not yet asked for never
// exceed the window.
func TestPrefetchWindowBound(t *testing.T) {
	const n, window = 300, 8
	paths := prefetchPaths(n)
	var asked atomic.Int64 // the furthest file asked for, set before asking
	var beyond atomic.Int64
	p := StartPrefetch(context.Background(), paths, window, func(_ context.Context, path string) ([]byte, error) {
		i, _ := strconv.Atoi(path[1:])
		if int64(i) >= asked.Load()+window {
			beyond.Add(1)
		}
		return []byte(path), nil
	})
	defer p.Stop()
	for i, path := range paths {
		asked.Store(int64(i))
		data, err := p.Fetch(context.Background(), path)
		if err != nil || string(data) != path {
			t.Fatalf("Fetch(%s) = %q, %v", path, data, err)
		}
	}
	if b := beyond.Load(); b != 0 {
		t.Errorf("%d files were read from beyond the %d-file window", b, window)
	}
}

// TestPrefetchIssuesWindowAtOnce: the first window files are all in
// flight before any read returns — one round trip, not window of them —
// and nothing beyond them is read until the scan asks.
func TestPrefetchIssuesWindowAtOnce(t *testing.T) {
	const n, window = 40, 16
	var started sync.WaitGroup
	started.Add(window)
	var issued atomic.Int64
	p := StartPrefetch(context.Background(), prefetchPaths(n), window, func(_ context.Context, path string) ([]byte, error) {
		if issued.Add(1) <= window {
			started.Done()
			started.Wait() // parks until the whole first window was issued
		}
		return []byte(path), nil
	})
	defer p.Stop()
	if _, err := p.Fetch(context.Background(), "f000"); err != nil {
		t.Fatal(err)
	}
	if got := issued.Load(); got != window {
		t.Errorf("%d reads issued when the scan had asked for the first file only, want the window, %d", got, window)
	}
}

// TestPrefetchUnlistedAndErrors: a path that was not listed is read in
// place, and a listed file's error reaches the Fetch of that file only.
func TestPrefetchUnlistedAndErrors(t *testing.T) {
	boom := errors.New("boom")
	var reads sync.Map
	p := StartPrefetch(context.Background(), prefetchPaths(3), 2, func(_ context.Context, path string) ([]byte, error) {
		if _, again := reads.LoadOrStore(path, true); again {
			return nil, fmt.Errorf("%s read twice", path)
		}
		if path == "f001" {
			return nil, boom
		}
		return []byte(path), nil
	})
	defer p.Stop()
	ctx := context.Background()
	if data, err := p.Fetch(ctx, "elsewhere"); err != nil || string(data) != "elsewhere" {
		t.Errorf("unlisted path: %q, %v", data, err)
	}
	if _, err := p.Fetch(ctx, "f001"); !errors.Is(err, boom) {
		t.Errorf("Fetch(f001) err = %v, want boom", err)
	}
	for _, path := range []string{"f000", "f002"} {
		if data, err := p.Fetch(ctx, path); err != nil || string(data) != path {
			t.Errorf("Fetch(%s) = %q, %v", path, data, err)
		}
	}
}

// TestPrefetchStopStopsReading: Stop issues nothing more, waits for the
// reads in flight, and fails the files never read.
func TestPrefetchStopStopsReading(t *testing.T) {
	const n, window = 100, 8
	var issued, returned atomic.Int64
	p := StartPrefetch(context.Background(), prefetchPaths(n), window, func(ctx context.Context, _ string) ([]byte, error) {
		issued.Add(1)
		<-ctx.Done()
		returned.Add(1)
		return nil, ctx.Err()
	})
	p.Stop()
	if i, r := issued.Load(), returned.Load(); i > window || r != i {
		t.Errorf("after Stop: %d reads issued (window %d), %d returned", i, window, r)
	}
	if _, err := p.Fetch(context.Background(), "f099"); !errors.Is(err, context.Canceled) {
		t.Errorf("Fetch of a never-read file after Stop: err = %v, want context.Canceled", err)
	}
}
