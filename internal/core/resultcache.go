package core

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync/atomic"

	"eon/internal/catalog"
	"eon/internal/obs"
	"eon/internal/planner"
	"eon/internal/systable"
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
	lru     *lru[resultKey, *resultEntry]
	inserts *obs.Counter
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
	res  *Result
	rows int
	hits atomic.Int64
}

func newResultCache(maxBytes int64) *resultCache {
	if maxBytes <= 0 {
		return nil // opt-in: off unless Config.ResultCacheBytes is set
	}
	return &resultCache{lru: newLRU[resultKey, *resultEntry](maxBytes), inserts: &obs.Counter{}}
}

// register wires the cache's counters and gauges into the registry.
func (c *resultCache) register(reg *obs.Registry) {
	if c == nil {
		return
	}
	c.lru.register(reg, "resultcache")
	reg.RegisterCounter("resultcache.inserts", c.inserts)
	reg.GaugeFunc("resultcache.bytes", func() int64 {
		_, bytes := c.lru.size()
		return bytes
	})
	reg.GaugeFunc("resultcache.entries", func() int64 {
		n, _ := c.lru.size()
		return int64(n)
	})
}

func (c *resultCache) lookup(key resultKey) (*Result, bool) {
	e, ok := c.lru.get(key, nil)
	if !ok {
		return nil, false
	}
	e.hits.Add(1)
	return e.res, true
}

func (c *resultCache) store(key resultKey, res *Result) {
	size := batchBytes(res.Batch) + int64(len(key.norm)+len(key.args)) + 128
	if c.lru.put(key, &resultEntry{res: res, rows: res.NumRows()}, size) {
		c.inserts.Inc()
	}
}

// resultCacheDef is v_monitor.result_cache: one row per cached result
// set, most recently used first, with its size and hit count.
func (db *DB) resultCacheDef() *systable.Def {
	cols := types.Schema{
		{Name: "statement", Type: types.Varchar},
		{Name: "args", Type: types.Varchar},
		{Name: "rows", Type: types.Int64},
		{Name: "bytes", Type: types.Int64},
		{Name: "hits", Type: types.Int64},
		{Name: "deps_hash", Type: types.Int64},
	}
	return &systable.Def{
		Name:    systable.SchemaName + ".result_cache",
		Columns: cols,
		Fill: func() (*types.Batch, error) {
			if db.resultCache == nil {
				return types.NewBatch(cols, 0), nil
			}
			return db.resultCache.lru.rows(cols, func(k resultKey, e *resultEntry, bytes int64) types.Row {
				return types.Row{
					types.NewString(truncateSQL(k.norm)), types.NewString(truncateSQL(k.args)),
					types.NewInt(int64(e.rows)), types.NewInt(bytes),
					types.NewInt(e.hits.Load()), types.NewInt(int64(k.depsHash)),
				}
			}), nil
		},
	}
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
// set regardless of which covering assignment was chosen. In Enterprise
// mode a node serving a down owner's segment reads a buddy copy
// (projectionCopyFor), so the whole buddy family counts. ok=false marks
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
			projs := []*catalog.Projection{s.Proj}
			if env.db.mode == ModeEnterprise && !s.Replicated {
				projs = projectionFamily(snap, s.Proj)
			}
			for _, p := range projs {
				deps[p.OID] = snap.ModVersion(p.OID)
				for _, sc := range snap.ContainersOf(p.OID, catalog.GlobalShard) {
					deps[sc.OID] = snap.ModVersion(sc.OID)
					for _, dv := range snap.DeleteVectorsOf(sc.OID) {
						deps[dv.OID] = snap.ModVersion(dv.OID)
					}
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
