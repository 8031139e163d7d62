package core

import (
	"container/list"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"eon/internal/catalog"
	"eon/internal/obs"
	"eon/internal/planner"
	"eon/internal/types"
)

// resultCache caches complete result sets of parameterized hot queries.
// Entries are never expired by wall time: the key embeds a fingerprint
// of the shard-level catalog object versions the plan actually reads
// (catalog.ModVersion of every table, projection, storage container and
// delete vector any participant could touch), so any commit that changes
// the data a query would see — a load, delete, mergeout or DDL — changes
// the fingerprint computed at lookup time and the stale entry simply
// stops matching, while unrelated catalog activity leaves hot entries
// valid. Capacity is bounded in bytes (Config.ResultCacheBytes) with LRU
// eviction; the cache is off by default.
//
// Cached batches are shared across executions and must be treated as
// read-only by callers (Result consumers only ever read).
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	entries  map[resultKey]*list.Element
	lru      *list.List // of *resultEntry; front = most recent

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	inserts   *obs.Counter
}

// resultKey identifies one cached result: the statement, its bound
// argument values, the session knobs that change how it executes — noSeg
// (a container-split crunch plan, which may reorder rows) and rowEng
// (Session.RowEngine) — and the data-version fingerprint. The row engine
// cannot change result bytes (the engines are differentially tested as
// identical) but is part of the key anyway so engine-differential tests
// exercise both engines instead of one engine plus its cached output.
type resultKey struct {
	norm     string
	args     string // canonical encoding of bound parameter values
	noSeg    bool
	rowEng   bool
	depsHash uint64
}

type resultEntry struct {
	key   resultKey
	res   *Result
	bytes int64
	rows  int
	hits  atomic.Int64
}

func newResultCache(maxBytes int64) *resultCache {
	if maxBytes <= 0 {
		return nil // opt-in: off unless Config.ResultCacheBytes is set
	}
	return &resultCache{
		maxBytes: maxBytes,
		entries:  map[resultKey]*list.Element{},
		lru:      list.New(),
		hits:     &obs.Counter{}, misses: &obs.Counter{},
		evictions: &obs.Counter{}, inserts: &obs.Counter{},
	}
}

// register wires the cache's counters and gauges into the registry.
func (c *resultCache) register(reg *obs.Registry) {
	if c == nil {
		return
	}
	reg.RegisterCounter("resultcache.hits", c.hits)
	reg.RegisterCounter("resultcache.misses", c.misses)
	reg.RegisterCounter("resultcache.evictions", c.evictions)
	reg.RegisterCounter("resultcache.inserts", c.inserts)
	reg.GaugeFunc("resultcache.bytes", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.curBytes
	})
	reg.GaugeFunc("resultcache.entries", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.lru.Len())
	})
}

func (c *resultCache) lookup(key resultKey) (*Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*resultEntry)
	c.hits.Inc()
	e.hits.Add(1)
	return e.res, true
}

func (c *resultCache) store(key resultKey, res *Result) {
	if c == nil {
		return
	}
	size := batchBytes(res.Batch) + int64(len(key.norm)+len(key.args)) + 128
	if size > c.maxBytes {
		return // one oversized result must not flush the whole cache
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Another execution of the same query raced us here; keep the
		// existing entry (byte-identical by construction).
		c.lru.MoveToFront(el)
		return
	}
	e := &resultEntry{key: key, res: res, bytes: size, rows: res.NumRows()}
	c.entries[key] = c.lru.PushFront(e)
	c.curBytes += size
	c.inserts.Inc()
	for c.curBytes > c.maxBytes && c.lru.Len() > 1 {
		old := c.lru.Back()
		c.lru.Remove(old)
		oe := old.Value.(*resultEntry)
		delete(c.entries, oe.key)
		c.curBytes -= oe.bytes
		c.evictions.Inc()
	}
}

// resultCacheRow is one entry's stats for v_monitor.result_cache.
type resultCacheRow struct {
	Statement string
	Args      string
	Rows      int
	Bytes     int64
	Hits      int64
	DepsHash  uint64
}

// snapshotRows copies the cache contents, most recently used first.
func (c *resultCache) snapshotRows() []resultCacheRow {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]resultCacheRow, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*resultEntry)
		out = append(out, resultCacheRow{
			Statement: e.key.norm, Args: e.key.args,
			Rows: e.rows, Bytes: e.bytes, Hits: e.hits.Load(),
			DepsHash: e.key.depsHash,
		})
	}
	return out
}

// argsFingerprint canonically encodes bound parameter values for the
// result key. Type tags keep 1, 1.0 and '1' distinct.
func argsFingerprint(args []types.Datum) string {
	if len(args) == 0 {
		return ""
	}
	var b []byte
	for _, d := range args {
		b = append(b, byte('0'+int(d.K)%10), ':')
		switch {
		case d.Null:
			b = append(b, 'n')
		case d.K.Physical() == types.Float64:
			b = strconv.AppendFloat(b, d.F, 'g', -1, 64)
		case d.K.Physical() == types.Varchar:
			b = strconv.AppendQuote(b, d.S)
		case d.K.Physical() == types.Bool:
			if d.B {
				b = append(b, 't')
			} else {
				b = append(b, 'f')
			}
		default:
			b = strconv.AppendInt(b, d.I, 10)
		}
		b = append(b, ';')
	}
	return string(b)
}

// depsFingerprint hashes the catalog object versions the plan's scans
// depend on, unioned across every participating node's snapshot. The
// union matters: in Eon mode each node's catalog is filtered to its
// subscribed shards, so no single snapshot sees every storage container
// the query will read — but the participants collectively cover all
// shards, and the union is therefore the projection's full container
// set regardless of which covering assignment was chosen. ok=false marks
// the plan uncacheable: a virtual (v_monitor) scan reads live monitoring
// state with no version discipline.
func (env *queryEnv) depsFingerprint(plan *planner.Plan) (uint64, bool) {
	scans := planner.Scans(plan)
	deps := map[catalog.OID]uint64{}
	for _, s := range scans {
		if s.Virtual || s.Table == nil || s.Proj == nil {
			return 0, false
		}
		for _, name := range env.nodes {
			snap := env.snapshots[name]
			deps[s.Table.OID] = snap.ModVersion(s.Table.OID)
			deps[s.Proj.OID] = snap.ModVersion(s.Proj.OID)
			for _, sc := range snap.ContainersOf(s.Proj.OID, catalog.GlobalShard) {
				deps[sc.OID] = snap.ModVersion(sc.OID)
				for _, dv := range snap.DeleteVectorsOf(sc.OID) {
					deps[dv.OID] = snap.ModVersion(dv.OID)
				}
			}
		}
	}
	oids := make([]catalog.OID, 0, len(deps))
	for oid := range deps {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	h := fnv.New64a()
	var buf [16]byte
	for _, oid := range oids {
		putU64(buf[:8], uint64(oid))
		putU64(buf[8:], deps[oid])
		h.Write(buf[:])
	}
	return h.Sum64(), true
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
