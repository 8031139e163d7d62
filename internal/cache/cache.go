// Package cache implements the per-node disk cache of shared-storage
// files (paper §5.2). The cache holds entire immutable data files, uses
// least-recently-used eviction, is write-through on data load (newly
// written files are likely to be queried), supports shaping policies
// ("don't use the cache for this query", "never cache table T", pinned
// partitions), and can warm itself from a peer's most-recently-used list
// when a node subscribes to a shard.
//
// Because storage files are never modified, the cache handles only add
// and drop — there is no invalidation path.
package cache

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"eon/internal/obs"
	"eon/internal/parallel"
	"eon/internal/udfs"
)

// Policy directs how the cache treats a file.
type Policy uint8

// Policies.
const (
	// PolicyDefault caches the file under LRU.
	PolicyDefault Policy = iota
	// PolicyBypass serves the file without admitting it (large batch
	// historical queries must not evict dashboard working sets).
	PolicyBypass
	// PolicyPin caches the file and exempts it from eviction.
	PolicyPin
)

// Fetcher reads a file from shared storage on cache miss.
type Fetcher func(ctx context.Context, path string) ([]byte, error)

// Outcome classifies how a Get was served.
type Outcome uint8

// Get outcomes.
const (
	// OutcomeHit served from the cached file.
	OutcomeHit Outcome = iota
	// OutcomeMiss issued its own shared-storage fetch.
	OutcomeMiss
	// OutcomeCoalesced joined another caller's in-flight fetch of the
	// same path instead of issuing its own.
	OutcomeCoalesced
)

// Stats counts cache traffic.
type Stats struct {
	Hits, Misses, Evictions int64
	// CoalescedFetches counts misses that piggybacked on another
	// caller's in-flight fetch of the same path (single-flight).
	CoalescedFetches int64
	BytesCached      int64
	Files            int
}

type entry struct {
	path   string
	size   int64
	pinned bool
	elem   *list.Element
}

// flight is one in-progress shared-storage fetch that concurrent misses
// on the same path share.
type flight struct {
	done chan struct{} // closed once data/err are set
	data []byte
	err  error
}

// Cache is one node's file cache. The file bytes live on the node's local
// filesystem under dir; the Cache keeps the index and LRU order. Safe for
// concurrent use.
type Cache struct {
	fs  udfs.FileSystem
	dir string

	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[string]*entry
	lru      *list.List // front = most recently used
	policy   func(path string) Policy

	// pending holds byte reservations for admissions whose file write is
	// still in progress: the space is claimed (so eviction accounting is
	// correct) but the entry is not yet readable. Readers treat pending
	// paths as misses; the single-flight layer keeps them from stampeding
	// shared storage.
	pending map[string]int64
	// inflight tracks one shared fetch per missing path (single-flight).
	inflight map[string]*flight

	// Traffic counters are obs metrics so a node can Register them into
	// its registry; they are incremented under c.mu (the atomics cost
	// nothing extra and buy registry visibility).
	hits, misses, evictions, coalesced obs.Counter

	// onEvict, when set, is called once per evicted file, after c.mu is
	// released (it may take its own locks, e.g. a Data Collector emit).
	onEvict func(path string, size int64)
}

// New returns a cache of the given byte capacity backed by dir on fs.
func New(fs udfs.FileSystem, dir string, capacity int64) *Cache {
	return &Cache{
		fs:       fs,
		dir:      dir,
		capacity: capacity,
		entries:  map[string]*entry{},
		lru:      list.New(),
		pending:  map[string]int64{},
		inflight: map[string]*flight{},
	}
}

// SetPolicy installs the shaping policy; nil restores the default.
func (c *Cache) SetPolicy(p func(path string) Policy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policy = p
}

func (c *Cache) policyFor(path string) Policy {
	if c.policy == nil {
		return PolicyDefault
	}
	return c.policy(path)
}

// SetEvictHook installs a callback invoked for every evicted file; nil
// removes it. The hook runs outside the cache lock.
func (c *Cache) SetEvictHook(fn func(path string, size int64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onEvict = fn
}

// Entry describes one cached file for monitoring (v_monitor.depot_storage).
type Entry struct {
	Path   string
	Size   int64
	Pinned bool
}

// Entries lists the cached files in LRU order (most recently used
// first). It copies the index under the cache lock without touching
// file data, so it is safe to call from a monitoring scan against
// concurrent traffic.
func (c *Cache) Entries() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, len(c.entries))
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		out = append(out, Entry{Path: e.path, Size: e.size, Pinned: e.pinned})
	}
	return out
}

// Capacity returns the configured byte capacity.
func (c *Cache) Capacity() int64 { return c.capacity }

// local returns the on-disk path for a cached file.
func (c *Cache) local(path string) string { return c.dir + "/" + path }

// Get returns the file contents, reading through the cache. bypass forces
// PolicyBypass for this call regardless of the shaping policy ("don't use
// the cache for this query").
//
// The returned bytes are read-only and may be shared: a hit hands out the
// local filesystem's view of the file and coalesced misses share the
// leader's buffer. Files are immutable, so the bytes stay valid, with
// their original contents, after the file is evicted or dropped.
func (c *Cache) Get(ctx context.Context, path string, fetch Fetcher, bypass bool) ([]byte, error) {
	data, _, err := c.GetTracked(ctx, path, fetch, bypass)
	return data, err
}

// GetTracked is Get (same read-only contract) plus the outcome
// classification (hit, miss, coalesced miss), which scan statistics
// record per query.
//
// Concurrent misses on one path are single-flighted: the first caller
// issues the shared-storage fetch; later callers wait on it and share
// the result, so N concurrent cold scans of a file cost exactly one
// fetch. If the leading fetch fails, each waiter falls back to its own
// fetch — the leader's failure may be its own cancellation rather than
// the file's.
func (c *Cache) GetTracked(ctx context.Context, path string, fetch Fetcher, bypass bool) ([]byte, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.entries[path]; ok {
		c.lru.MoveToFront(e.elem)
		c.hits.Inc()
		c.mu.Unlock()
		data, err := c.fs.ReadFile(ctx, c.local(path))
		if err == nil {
			return data, OutcomeHit, nil
		}
		// The entry raced with a concurrent eviction; fall through to a
		// shared-storage fetch (not counted as a second miss).
		c.mu.Lock()
		return c.getMiss(ctx, path, fetch, bypass, false)
	}
	c.misses.Inc()
	return c.getMiss(ctx, path, fetch, bypass, true)
}

// getMiss resolves a cache miss with single-flight coalescing. Called
// with c.mu held; returns with it released. coalesce is false on the
// hit-then-read-failed path, which must not wait on a flight it may
// itself have led.
func (c *Cache) getMiss(ctx context.Context, path string, fetch Fetcher, bypass bool, coalesce bool) ([]byte, Outcome, error) {
	if f, ok := c.inflight[path]; ok && coalesce {
		c.coalesced.Inc()
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, OutcomeCoalesced, ctx.Err()
		}
		if f.err == nil {
			return f.data, OutcomeCoalesced, nil
		}
		// The leader failed (possibly just canceled); fetch independently.
		data, err := fetch(ctx, path)
		if err != nil {
			return nil, OutcomeCoalesced, err
		}
		if !bypass && c.policyFor(path) != PolicyBypass {
			_ = c.admit(ctx, path, data)
		}
		return data, OutcomeCoalesced, nil
	}

	var f *flight
	if coalesce {
		f = &flight{done: make(chan struct{})}
		c.inflight[path] = f
	}
	c.mu.Unlock()

	data, err := fetch(ctx, path)
	if err == nil && !bypass && c.policyFor(path) != PolicyBypass {
		// Admit before publishing the flight result so a follower's next
		// Get finds the entry instead of refetching. Admission failure
		// must not fail the read.
		_ = c.admit(ctx, path, data)
	}
	if f != nil {
		f.data, f.err = data, err
		c.mu.Lock()
		delete(c.inflight, path)
		c.mu.Unlock()
		close(f.done)
	}
	if err != nil {
		return nil, OutcomeMiss, err
	}
	return data, OutcomeMiss, nil
}

// Put write-through inserts a newly written file (data load and mergeout
// put their outputs in the cache before uploading, §5.2).
func (c *Cache) Put(ctx context.Context, path string, data []byte) error {
	if c.policyFor(path) == PolicyBypass {
		return nil
	}
	return c.admit(ctx, path, data)
}

// admit stores the file and evicts LRU entries to fit. Files larger than
// the whole cache are not admitted.
//
// The index entry is published only after the file is durably written:
// until then the path holds a pending byte reservation (visible to
// eviction accounting, invisible to readers), so a concurrent Get never
// sees an entry whose backing file does not exist yet and never takes
// the read-fail-refetch path against a half-admitted file.
func (c *Cache) admit(ctx context.Context, path string, data []byte) error {
	size := int64(len(data))
	if size > c.capacity {
		return fmt.Errorf("cache: file %s (%d bytes) exceeds cache capacity %d", path, size, c.capacity)
	}
	c.mu.Lock()
	if _, ok := c.entries[path]; ok {
		c.mu.Unlock()
		return nil // already cached; files are immutable
	}
	if _, ok := c.pending[path]; ok {
		c.mu.Unlock()
		return nil // another caller is admitting the same immutable file
	}
	// Evict from the LRU tail, skipping pinned entries. Pending
	// reservations are not in the LRU, so they cannot be evicted.
	var evict []Entry
	need := c.used + size - c.capacity
	for el := c.lru.Back(); el != nil && need > 0; el = el.Prev() {
		e := el.Value.(*entry)
		if e.pinned {
			continue
		}
		evict = append(evict, Entry{Path: e.path, Size: e.size})
		need -= e.size
	}
	if need > 0 {
		c.mu.Unlock()
		return fmt.Errorf("cache: cannot fit %s: %d bytes pinned", path, c.used)
	}
	for _, ev := range evict {
		e := c.entries[ev.Path]
		c.lru.Remove(e.elem)
		delete(c.entries, ev.Path)
		c.used -= e.size
		c.evictions.Inc()
	}
	c.pending[path] = size
	c.used += size
	onEvict := c.onEvict
	c.mu.Unlock()

	for _, ev := range evict {
		_ = c.fs.Remove(ctx, c.local(ev.Path))
		if onEvict != nil {
			onEvict(ev.Path, ev.Size)
		}
	}
	err := c.fs.WriteFile(ctx, c.local(path), data)

	c.mu.Lock()
	if _, ok := c.pending[path]; !ok {
		// The reservation was wiped by Clear while the write was in
		// flight; the admission is abandoned (Clear already reset the
		// byte accounting).
		c.mu.Unlock()
		if err == nil {
			_ = c.fs.Remove(ctx, c.local(path))
		}
		return err
	}
	delete(c.pending, path)
	if err != nil {
		c.used -= size
		c.mu.Unlock()
		return err
	}
	e := &entry{path: path, size: size, pinned: c.policyFor(path) == PolicyPin}
	e.elem = c.lru.PushFront(e)
	c.entries[path] = e
	c.mu.Unlock()
	return nil
}

// Contains reports whether the file is cached (without touching LRU
// order).
func (c *Cache) Contains(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[path]
	return ok
}

// Drop removes a file from the cache (on storage file delete).
func (c *Cache) Drop(ctx context.Context, path string) {
	c.mu.Lock()
	e, ok := c.entries[path]
	if ok {
		c.lru.Remove(e.elem)
		delete(c.entries, path)
		c.used -= e.size
	}
	c.mu.Unlock()
	if ok {
		_ = c.fs.Remove(ctx, c.local(path))
	}
}

// Clear empties the cache entirely.
func (c *Cache) Clear(ctx context.Context) {
	c.mu.Lock()
	paths := make([]string, 0, len(c.entries))
	for p := range c.entries {
		paths = append(paths, p)
	}
	c.entries = map[string]*entry{}
	c.lru.Init()
	c.used = 0
	// Abandon in-flight admissions: their completion sees the missing
	// reservation and discards the write instead of resurrecting state.
	c.pending = map[string]int64{}
	c.mu.Unlock()
	for _, p := range paths {
		_ = c.fs.Remove(ctx, c.local(p))
	}
}

// Stats returns a snapshot of counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits.Value(), Misses: c.misses.Value(), Evictions: c.evictions.Value(),
		CoalescedFetches: c.coalesced.Value(),
		BytesCached:      c.used, Files: len(c.entries),
	}
}

// Register publishes the cache's counters and derived occupancy gauges
// into reg under prefix (e.g. "node.n1.cache.").
func (c *Cache) Register(reg *obs.Registry, prefix string) {
	reg.RegisterCounter(prefix+"hits", &c.hits)
	reg.RegisterCounter(prefix+"misses", &c.misses)
	reg.RegisterCounter(prefix+"evictions", &c.evictions)
	reg.RegisterCounter(prefix+"coalesced_fetches", &c.coalesced)
	reg.GaugeFunc(prefix+"bytes_cached", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.used
	})
	reg.GaugeFunc(prefix+"files", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.entries))
	})
}

// MostRecentlyUsed returns cached file paths in MRU order whose summed
// size fits the byte budget — the list a warming peer requests (§5.2:
// "the subscriber supplies the peer with a capacity target and the peer
// supplies a list of most-recently-used files that fit within the
// budget").
func (c *Cache) MostRecentlyUsed(budget int64) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.size > budget {
			continue
		}
		out = append(out, e.path)
		budget -= e.size
	}
	return out
}

// ReadCached returns the bytes of a cached file without counting a hit or
// miss; used to serve peer warming transfers.
func (c *Cache) ReadCached(ctx context.Context, path string) ([]byte, bool) {
	c.mu.Lock()
	_, ok := c.entries[path]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	data, err := c.fs.ReadFile(ctx, c.local(path))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Warm fetches the listed files into the cache (most recently used
// first), skipping files that fail to fetch, and returns the number of
// files admitted. Fetches fan out across at most concurrency workers;
// admissions happen in reverse list order regardless, so the peer's MRU
// file still ends up most recent here and the resulting LRU order is
// deterministic. The fetched set is bounded by the warm budget the MRU
// list was built under, so buffering it before admission is safe.
func (c *Cache) Warm(ctx context.Context, paths []string, fetch Fetcher, concurrency int) int {
	if concurrency < 1 {
		concurrency = 1
	}
	fetched := make([][]byte, len(paths))
	_ = parallel.ForEach(ctx, len(paths), concurrency, func(ctx context.Context, _, i int) error {
		if c.Contains(paths[i]) {
			return nil // admitted lazily below
		}
		data, err := fetch(ctx, paths[i])
		if err != nil {
			return nil // skip this file; warm the rest
		}
		fetched[i] = data
		return nil
	})
	warmed := 0
	// Admit in reverse so the peer's MRU file ends up most recent here.
	for i := len(paths) - 1; i >= 0; i-- {
		if c.Contains(paths[i]) {
			warmed++
			continue
		}
		if fetched[i] == nil {
			continue
		}
		if err := c.admit(ctx, paths[i], fetched[i]); err == nil {
			warmed++
		}
	}
	return warmed
}
