package storage

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Prefetch reads a fixed list of storage files ahead of the scan that
// opens them. Its fetcher issues the reads in list order, each on its own
// goroutine, through the window of files that starts at the furthest one
// the scan has asked for: window reads are in flight at once — they wait
// on shared storage rather than compute, so window is a latency choice,
// not a CPU count — and at most window files are held unasked. Fetch
// hands a file over when the scan opens it.
type Prefetch struct {
	paths  []string
	index  map[string]int
	files  []prefetched
	fetch  FetchFunc
	window int
	// limit is the list index below which the fetcher may issue; moved
	// (capacity 1: a wake-up, not a count) tells it that limit rose.
	limit  atomic.Int64
	moved  chan struct{}
	waited atomic.Int64
	cancel context.CancelFunc
	done   chan struct{}
}

type prefetched struct {
	ready chan struct{}
	data  []byte
	err   error
}

// StartPrefetch begins reading paths (distinct, in the order the scan
// opens them) through fetch. The caller must Stop it.
func StartPrefetch(ctx context.Context, paths []string, window int, fetch FetchFunc) *Prefetch {
	ctx, cancel := context.WithCancel(ctx)
	p := &Prefetch{
		paths: paths, index: make(map[string]int, len(paths)), files: make([]prefetched, len(paths)),
		fetch: fetch, window: max(window, 1), moved: make(chan struct{}, 1), cancel: cancel, done: make(chan struct{}),
	}
	for i, path := range paths {
		p.index[path] = i
		p.files[i].ready = make(chan struct{})
	}
	p.limit.Store(int64(p.window))
	go p.run(ctx)
	return p
}

// run is the fetcher. Once ctx is canceled it issues nothing more, fails
// the files it never issued, and returns when the issued reads have.
func (p *Prefetch) run(ctx context.Context) {
	defer close(p.done)
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := range p.files {
		for int64(i) >= p.limit.Load() && ctx.Err() == nil {
			select {
			case <-p.moved:
			case <-ctx.Done():
			}
		}
		if err := ctx.Err(); err != nil {
			for j := i; j < len(p.files); j++ {
				p.files[j].err = err
				close(p.files[j].ready)
			}
			return
		}
		wg.Add(1)
		go func(f *prefetched, path string) {
			defer wg.Done()
			f.data, f.err = p.fetch(ctx, path)
			close(f.ready)
		}(&p.files[i], p.paths[i])
	}
}

// Fetch is the scan's FetchFunc: it waits for a listed file — once; the
// file is then the caller's — and reads any other path in place. Asking
// for file i lets the fetcher issue the window that starts at i, so a
// scan that asks in list order never waits on a read that was not
// started, and a window of 1 reads one file at a time.
func (p *Prefetch) Fetch(ctx context.Context, path string) ([]byte, error) {
	i, listed := p.index[path]
	if !listed {
		return p.fetch(ctx, path)
	}
	for to := int64(i + p.window); ; {
		cur := p.limit.Load()
		if to <= cur {
			break
		}
		if p.limit.CompareAndSwap(cur, to) {
			select {
			case p.moved <- struct{}{}:
			default:
			}
			break
		}
	}
	start := time.Now()
	f := &p.files[i]
	select {
	case <-f.ready:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	p.waited.Add(int64(time.Since(start)))
	data := f.data
	f.data = nil
	return data, f.err
}

// Stop ends the fetcher, waits for the reads in flight, and returns how
// long Fetch calls were blocked on listed files in total. A nil Prefetch
// (a scan that had nothing to list) stops as a no-op.
func (p *Prefetch) Stop() time.Duration {
	if p == nil {
		return 0
	}
	p.cancel()
	p.Wait()
	return time.Duration(p.waited.Load())
}

// Wait returns once the fetcher has: every file read, or its context
// canceled and the reads in flight back.
func (p *Prefetch) Wait() { <-p.done }
