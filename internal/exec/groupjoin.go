package exec

import (
	"slices"

	"eon/internal/expr"
	"eon/internal/types"
)

// GroupJoin is a HashAggregate fused with the HashJoin it reads (through
// Filters over the join's rows and Counters) where every group key reads
// only the build side: the groupjoin (Moerkotte & Neumann, PVLDB 2011;
// DESIGN.md §8). It probes as the join does (HashJoin.match) and folds
// the matched pairs into the aggregate's states. A build row gets its
// group id at its first match, so each is inserted into the key table
// once, and groups and the order states fold in are
// join-then-aggregate's, bit for bit. Per pair it gathers only the
// columns the filters and arguments read (HashJoin.gather).
type GroupJoin struct {
	*HashAggregate
	join   *HashJoin
	preds  []expr.Expr // the Filters', innermost first, over the pairs
	gather []bool      // per pair column: a pred or an argument reads it
	counts []counted   // the Counters it reads through

	gid   []int32     // per build row: its group id + 1; 0: not matched yet
	fresh []int       // build rows first matched in this batch, in pair order
	build types.Batch // the build side's columns at their join positions
}

// Counter is a row-counting wrapper (core's profile edges). GroupJoin
// reads through one and tells it the rows that would have passed.
type Counter interface {
	Operator
	Counted() Operator // what it counts the rows of
	Count(rows int64)
}

// counted is a Counter and the number of Filters above it.
type counted struct {
	Counter
	above int
}

// NewGroupJoin fuses agg with in, or returns nil: in must be a HashJoin
// under Filters and Counters, on the vectorized engine, every group key
// must read only its build side, what the filters and arguments
// evaluate must read a column, and agg's governor must be unlimited (agg
// keeps its spill path). A fused join's span reads groupjoin = 1.
func NewGroupJoin(agg *HashAggregate, in Operator) *GroupJoin {
	g := &GroupJoin{HashAggregate: agg}
walk:
	for {
		switch op := in.(type) {
		case Counter:
			g.counts, in = append(g.counts, counted{op, len(g.preds)}), op.Counted()
		case *Filter:
			g.preds, in = append([]expr.Expr{op.pred}, g.preds...), op.input
		default:
			break walk
		}
	}
	j, ok := in.(*HashJoin)
	if !ok || agg.Eng.Row || j.Eng.Row || agg.Mem.Limited() {
		return nil
	}
	n0 := len(j.in[0].Schema())
	for _, k := range agg.keys {
		for _, c := range expr.Columns(k) {
			if min(c/n0, 1) != j.Build {
				return nil
			}
		}
	}
	evals := slices.Clip(g.preds)
	for _, a := range agg.aggs {
		evals = append(evals, a.Arg, a.ArgCount)
	}
	g.gather, g.join = make([]bool, len(j.schema)), j
	for _, e := range evals {
		for _, c := range expr.Columns(e) {
			g.gather[c] = true
		}
	}
	if !slices.Contains(g.gather, true) && slices.ContainsFunc(evals, func(e expr.Expr) bool { return e != nil }) {
		return nil // SUM(1), ON ... AND 1 = 1: over no column it sees no pairs
	}
	j.Span.SetAttr("groupjoin", 1)
	return g
}

// Next implements Operator.
func (g *GroupJoin) Next() (*types.Batch, error) { return g.emit(g.run) }

// count tells the Counters over the innermost passed Filters the rows
// that passed them.
func (g *GroupJoin) count(passed, rows int) {
	for _, c := range g.counts {
		if len(g.preds)-c.above == passed {
			c.Count(int64(rows))
		}
	}
}

// run joins and aggregates to the end and assembles the groups.
func (g *GroupJoin) run() (*types.Batch, error) {
	h, j, free := g.HashAggregate, g.join, g.Eng.Free
	defer func() {
		giveSlots(free, g.gid)
		giveSlots(free, g.fresh)
		g.gid, g.fresh = nil, nil
	}()
	na := len(h.aggs)
	h.table, h.states = keyTable{free: free}, h.newStates()
	keyVals := make([]*types.Vector, len(h.keys))
	argVals, cntVals := make([]*types.Vector, na), make([]*types.Vector, na)
	for {
		pb, err := j.match()
		if pb == nil {
			if err != nil {
				return nil, err
			}
			h.Span.AddAttr("slots", int64(len(h.table.ids)))
			return h.assemble(h.table.cols, &h.states, h.table.len()), nil
		}
		h.arena.Reset()
		pairs, keep, m := j.gather(pb, g.gather), []int(nil), len(j.buildIdx)
		g.count(0, m)
		// The filters narrow the pairs, which keep their order.
		for i := 0; i < len(g.preds) && m > 0 && err == nil; i++ {
			keep, err = h.arena.FilterVec(g.preds[i], pairs, keep, h.Eng.Stats)
			m = len(keep)
			g.count(i+1, m)
		}
		if m == 0 && err == nil {
			continue
		}
		for k, p := range keep {
			j.buildIdx[k] = j.buildIdx[p]
		}
		if err == nil {
			err = g.groupIDs(j.buildIdx[:m], keyVals)
		}
		for ai, a := range h.aggs {
			if a.Arg != nil && err == nil {
				argVals[ai], err = h.arena.EvalVec(a.Arg, pairs, keep, h.Eng.Stats)
			}
			if a.ArgCount != nil && err == nil {
				cntVals[ai], err = h.arena.EvalVec(a.ArgCount, pairs, keep, h.Eng.Stats)
			}
		}
		if err == nil {
			h.states.grow(free, max(h.table.len(), 1)*na)
			err = h.accumulate(&h.states, h.gis, 0, m, argVals, cntVals)
		}
		if err != nil {
			return j.finish(err)
		}
	}
}

// groupIDs resolves the pairs' build rows to group ids in h.gis, first
// inserting the keys of those matched for the first time, in pair order.
func (g *GroupJoin) groupIDs(buildIdx []int, keyVals []*types.Vector) (err error) {
	h, free := g.HashAggregate, g.Eng.Free
	if h.gis = growSlots(free, h.gis, len(buildIdx)); len(h.keys) == 0 {
		clear(h.gis)
		return nil
	}
	if g.gid == nil {
		j := g.join
		g.gid = takeSlots[int32](free, j.all.NumRows())
		g.build.Cols = make([]*types.Vector, len(j.schema))
		copy(g.build.Cols[len(j.in[0].Schema())*j.Build:], j.all.Cols)
	}
	g.fresh = growSlots(free, g.fresh, len(buildIdx))[:0]
	for _, bi := range buildIdx {
		if g.gid[bi] == 0 {
			g.gid[bi] = -1 // pending: taken once
			g.fresh = append(g.fresh, bi)
		}
	}
	for i, k := range h.keys {
		if keyVals[i], err = h.arena.EvalVec(k, &g.build, g.fresh, h.Eng.Stats); err != nil {
			return err
		}
	}
	h.table.insert(h.table.hash(keyVals, nil, len(g.fresh)), keyVals, nil, 0, h.gis, nil)
	for k, bi := range g.fresh {
		g.gid[bi] = h.gis[k] + 1
	}
	for p, bi := range buildIdx {
		h.gis[p] = g.gid[bi] - 1
	}
	return nil
}
