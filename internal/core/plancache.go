package core

import (
	"sync/atomic"

	"eon/internal/catalog"
	"eon/internal/obs"
	"eon/internal/planner"
	"eon/internal/systable"
	"eon/internal/types"
)

// planCache caches bound physical plans keyed on the normalized SQL text
// and the plan-shaping session knob (crunch segmentation). The key is
// computable without running the lexer — sql.Normalize is a single byte
// pass — so a warm hit skips lexing, parsing, binding and planning
// entirely; the acceptance proof is the absent "parse"/"plan" spans in
// the query profile.
//
// A plan reads only global catalog objects: each base table it scans and
// the choice among that table's projections. An entry is therefore valid,
// like a result-cache entry, for as long as those objects are unchanged:
// it records the (OID, ModVersion) of every scanned table and of each of
// the table's projections, and a lookup compares them with the
// initiator's snapshot. Loads, deletes and mergeout change only storage
// containers and delete vectors, so they leave plans valid; DDL on a
// table the statement reads (ADD COLUMN, a new projection, DROP and
// re-CREATE) makes the entry stale, and the statement goes through the
// front end again. The one planner input the rule leaves out is container
// row counts, which the planner reads only when BroadcastRowLimit > 0; no
// caller outside tests sets that option. A plan over virtual tables only
// has no dependencies and stays valid.
//
// Cached plans are shared by concurrent executions and must be treated
// as read-only; plan nodes carry no execution state, and bind parameters
// are substituted into copies (planner.BindParams), never in place.
type planCache struct {
	lru     *lru[planCacheKey, *planEntry]
	replans *obs.Counter
}

// planCacheKey identifies one cacheable statement shape.
type planCacheKey struct {
	norm string
	// noSeg mirrors planner.Options.AssumeNoSegmentation: a
	// container-split crunch session plans joins and aggregations without
	// the segmentation property, so its plans are not interchangeable
	// with ordinary ones.
	noSeg bool
}

// planEntry is one cached statement.
type planEntry struct {
	nparams int
	version uint64 // catalog version the plan was built at
	plan    *planner.Plan
	deps    []dep // one per base-table scan
	hits    atomic.Int64
	replans atomic.Int64
}

// dep is one catalog object's (OID, ModVersion) at planning time; a
// table's dep also lists its projections', in Snapshot.ProjectionsOf
// order.
type dep struct {
	oid   catalog.OID
	mod   uint64
	projs []dep
}

// planDeps records the tables plan scans as of snap.
func planDeps(plan *planner.Plan, snap *catalog.Snapshot) []dep {
	var deps []dep
	for _, s := range planner.Scans(plan) {
		if s.Virtual || s.Table == nil {
			continue
		}
		d := dep{oid: s.Table.OID, mod: snap.ModVersion(s.Table.OID)}
		for _, p := range snap.ProjectionsOf(s.Table.OID) {
			d.projs = append(d.projs, dep{oid: p.OID, mod: snap.ModVersion(p.OID)})
		}
		deps = append(deps, d)
	}
	return deps
}

// validAt reports whether every table the plan read, and its projection
// set, is unchanged in snap. It allocates nothing.
func (e *planEntry) validAt(snap *catalog.Snapshot) bool {
	for _, d := range e.deps {
		projs := snap.ProjectionsOf(d.oid)
		if snap.ModVersion(d.oid) != d.mod || len(projs) != len(d.projs) {
			return false
		}
		for i, p := range projs {
			if p.OID != d.projs[i].oid || snap.ModVersion(p.OID) != d.projs[i].mod {
				return false
			}
		}
	}
	return true
}

// defaultPlanCacheSize is the entry cap when Config.PlanCacheSize is 0.
const defaultPlanCacheSize = 256

func newPlanCache(max int) *planCache {
	if max < 0 {
		return nil // caching disabled
	}
	if max == 0 {
		max = defaultPlanCacheSize
	}
	return &planCache{lru: newLRU[planCacheKey, *planEntry](int64(max)), replans: &obs.Counter{}}
}

// register wires the cache's counters and size gauge into the registry.
func (c *planCache) register(reg *obs.Registry) {
	if c == nil {
		return
	}
	c.lru.register(reg, "plancache")
	reg.RegisterCounter("plancache.replans", c.replans)
	reg.GaugeFunc("plancache.size", func() int64 {
		n, _ := c.lru.size()
		return int64(n)
	})
}

// lookup returns the cached entry for (norm, noSeg) and whether its plan
// is valid at snap. A stale entry comes back with ok=false and counts as
// a replan; the caller plans again and passes it to insert.
func (c *planCache) lookup(norm string, noSeg bool, snap *catalog.Snapshot) (e *planEntry, ok bool) {
	e, ok = c.lru.get(planCacheKey{norm, noSeg}, func(cand *planEntry) bool { return cand.validAt(snap) })
	switch {
	case ok:
		e.hits.Add(1)
	case e != nil:
		c.replans.Inc()
		e.replans.Add(1)
	}
	return e, ok
}

// insert stores a statement's plan, built against snap, replacing stale
// (the entry lookup found invalid, or nil) and keeping its counts.
func (c *planCache) insert(norm string, noSeg bool, snap *catalog.Snapshot, nparams int, plan *planner.Plan, stale *planEntry) {
	e := &planEntry{nparams: nparams, version: snap.Version(), plan: plan, deps: planDeps(plan, snap)}
	if stale != nil {
		e.hits.Store(stale.hits.Load())
		e.replans.Store(stale.replans.Load())
	}
	c.lru.put(planCacheKey{norm, noSeg}, e, 1)
}

// planCacheDef is v_monitor.plan_cache: one row per cached statement,
// most recently used first, with the catalog version it was planned at,
// its parameter count, hit count and replan count.
func (db *DB) planCacheDef() *systable.Def {
	cols := types.Schema{
		{Name: "statement", Type: types.Varchar},
		{Name: "assume_no_seg", Type: types.Bool},
		{Name: "catalog_version", Type: types.Int64},
		{Name: "params", Type: types.Int64},
		{Name: "hits", Type: types.Int64},
		{Name: "replans", Type: types.Int64},
	}
	return &systable.Def{
		Name:    systable.SchemaName + ".plan_cache",
		Columns: cols,
		Fill: func() (*types.Batch, error) {
			if db.planCache == nil {
				return types.NewBatch(cols, 0), nil
			}
			return db.planCache.lru.rows(cols, func(k planCacheKey, e *planEntry, _ int64) types.Row {
				return types.Row{
					types.NewString(truncateSQL(k.norm)), types.NewBool(k.noSeg),
					types.NewInt(int64(e.version)), types.NewInt(int64(e.nparams)),
					types.NewInt(e.hits.Load()), types.NewInt(e.replans.Load()),
				}
			}), nil
		},
	}
}
