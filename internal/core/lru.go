package core

import (
	"container/list"
	"sync"

	"eon/internal/obs"
	"eon/internal/types"
)

// lru is the map, recency list and eviction policy behind the plan cache
// and the result cache. Every entry has a cost, and the entries' total
// cost never exceeds max: the plan cache gives each entry cost 1 (an
// entry-count bound), the result cache its size in bytes. It counts
// hits, misses and evictions, which each cache registers under its own
// prefix, and builds the cache's v_monitor rows. Safe for concurrent use.
type lru[K comparable, V any] struct {
	mu      sync.Mutex
	max     int64
	cost    int64
	entries map[K]*list.Element
	order   *list.List // of *lruItem[K, V]; front = most recent

	// Counters are created detached and registered into the metrics
	// registry by the owning cache (the caches are built before the
	// registry exists).
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

type lruItem[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

func newLRU[K comparable, V any](max int64) *lru[K, V] {
	return &lru[K, V]{
		max:       max,
		entries:   map[K]*list.Element{},
		order:     list.New(),
		hits:      &obs.Counter{},
		misses:    &obs.Counter{},
		evictions: &obs.Counter{},
	}
}

// register publishes the counters as prefix.hits, prefix.misses and
// prefix.evictions.
func (c *lru[K, V]) register(reg *obs.Registry, prefix string) {
	reg.RegisterCounter(prefix+".hits", c.hits)
	reg.RegisterCounter(prefix+".misses", c.misses)
	reg.RegisterCounter(prefix+".evictions", c.evictions)
}

// get returns the entry stored under key and makes it the most recent.
// A present entry for which fresh (when non-nil) reports false is a
// miss: it comes back with ok=false so the caller can replace it. An
// absent key returns the zero V.
func (c *lru[K, V]) get(key K, fresh func(V) bool) (v V, ok bool) {
	c.mu.Lock()
	el, found := c.entries[key]
	if found {
		c.order.MoveToFront(el)
		v = el.Value.(*lruItem[K, V]).val
	}
	c.mu.Unlock()
	if !found || (fresh != nil && !fresh(v)) {
		c.misses.Inc()
		return v, false
	}
	c.hits.Inc()
	return v, true
}

// put stores v under key as the most recent entry, replacing any entry
// the key had, and evicts least-recent entries until the total cost fits.
// An entry costing more than the whole bound is refused (ok=false): one
// oversized value must not flush the cache.
func (c *lru[K, V]) put(key K, v V, cost int64) bool {
	if cost > c.max {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.entries[key]; found {
		it := el.Value.(*lruItem[K, V])
		c.cost += cost - it.cost
		it.val, it.cost = v, cost
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&lruItem[K, V]{key: key, val: v, cost: cost})
		c.cost += cost
	}
	for c.cost > c.max {
		old := c.order.Remove(c.order.Back()).(*lruItem[K, V])
		delete(c.entries, old.key)
		c.cost -= old.cost
		c.evictions.Inc()
	}
	return true
}

// rows builds one row per entry, most recent first.
func (c *lru[K, V]) rows(cols types.Schema, row func(key K, v V, cost int64) types.Row) *types.Batch {
	c.mu.Lock()
	items := make([]lruItem[K, V], 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		items = append(items, *el.Value.(*lruItem[K, V]))
	}
	c.mu.Unlock()
	b := types.NewBatch(cols, len(items))
	for _, it := range items {
		b.AppendRow(row(it.key, it.val, it.cost))
	}
	return b
}

// size returns the entry count and their total cost.
func (c *lru[K, V]) size() (n int, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.cost
}

// ring is a bounded log that keeps the newest size values: once full, each
// add overwrites the oldest. Safe for concurrent use; size must be
// positive.
type ring[T any] struct {
	mu   sync.Mutex
	size int
	buf  []T
	next int // index of the oldest value once buf is full
}

func (r *ring[T]) add(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < r.size {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
}

// items copies the values out, oldest first.
func (r *ring[T]) items() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
