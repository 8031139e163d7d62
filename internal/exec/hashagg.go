package exec

import (
	"fmt"
	"slices"

	"eon/internal/expr"
	"eon/internal/obs"
	"eon/internal/types"
)

// AggKind enumerates the aggregation functions the engine executes.
type AggKind uint8

// Aggregate kinds. The *Merge kinds combine partial states during
// distributed final aggregation: counts are summed, sums summed, min/min
// and max/max taken, and averages merged from (sum, count) column pairs.
const (
	AggCountStar AggKind = iota + 1
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
	AggCountMerge
	AggAvgMerge
)

// AggDef is one aggregate output: kind plus its bound argument expression
// (nil for COUNT(*)). Name labels the output column.
type AggDef struct {
	Kind AggKind
	Arg  expr.Expr
	// ArgCount is the bound count column for AggAvgMerge (the second of
	// the partial (sum, count) pair).
	ArgCount expr.Expr
	Name     string
}

// resultType returns the output type of the aggregate.
func (a AggDef) resultType() types.Type {
	switch a.Kind {
	case AggCountStar, AggCount, AggCountMerge:
		return types.Int64
	case AggAvg, AggAvgMerge:
		return types.Float64
	case AggSum:
		if a.Arg.Type().Physical() == types.Float64 {
			return types.Float64
		}
		return types.Int64
	default: // Min/Max
		return a.Arg.Type()
	}
}

// aggState is one group's partial state of one aggregate: 24 bytes and
// no pointer, so the collector never scans a state array. Every kind
// counts the non-NULL values it folds in (an AVG merge adds its partial
// counts), so a state has seen a value iff count > 0.
type aggState struct {
	count int64
	sumI  int64
	sumF  float64
}

// aggStates is an aggregation's flat state array, stride len(aggs). ext
// holds the running extreme of each AggMin or AggMax at its state's
// index, and is nil when the operator has neither.
type aggStates struct {
	s   []aggState
	ext []types.Datum
}

// HashAggregate groups rows by bound key expressions and computes
// aggregates. When Partial is set, AggAvg emits its (sum, count) state as
// two columns named Name and Name+"_cnt" for a downstream AggAvgMerge.
//
// With a limited memory governor and a spill store configured, grouped
// aggregation spills: when charging a new group would exceed the budget,
// the group table is written to local disk as a run sorted by encoded
// key bytes and the table resets; runs merge at the end by combining
// per-key partial states. Output order is then ascending key-byte order
// instead of first-seen order (SQL leaves it unspecified; budgeted
// queries wanting an order must sort). Without spilling, first-seen
// order and results are byte-identical to the ungoverned operator.
type HashAggregate struct {
	input   Operator
	keys    []expr.Expr
	aggs    []AggDef
	partial bool
	schema  types.Schema
	Eng     Engine

	// Mem and Spill, both set with a finite budget, enable spilling.
	// Configured by the executor, like Eng.
	Mem   *MemGovernor
	Spill SpillStore
	// Span, when set, receives the groups produced and slots.
	Span *obs.Span

	done bool
	// arena (from Eng.Free while it runs) holds one batch's key and
	// argument vectors: copied and folded in before the next.
	arena *expr.Arena
	// The table, states and id scratch (from Eng.Free) and the output,
	// whose key columns are the table's: they go back to the list on the
	// call that returns end-of-stream.
	table  keyTable
	states aggStates
	gis    []int32
	out    *types.Batch
}

// NewHashAggregate builds a grouping operator. keyNames label the group
// key output columns.
func NewHashAggregate(input Operator, keys []expr.Expr, keyNames []string, aggs []AggDef, partial bool) *HashAggregate {
	var schema types.Schema
	for i, k := range keys {
		schema = append(schema, types.Column{Name: keyNames[i], Type: k.Type()})
	}
	for _, a := range aggs {
		if partial && a.Kind == AggAvg {
			// The partial AVG sum column is always Float64 (avgSum
			// accumulates in float regardless of the argument type).
			schema = append(schema, types.Column{Name: a.Name, Type: types.Float64})
			schema = append(schema, types.Column{Name: a.Name + "_cnt", Type: types.Int64})
			continue
		}
		schema = append(schema, types.Column{Name: a.Name, Type: a.resultType()})
	}
	return &HashAggregate{input: input, keys: keys, aggs: aggs, partial: partial, schema: schema}
}

// Schema implements Operator.
func (h *HashAggregate) Schema() types.Schema { return h.schema }

// Next implements Operator.
func (h *HashAggregate) Next() (*types.Batch, error) {
	next := h.nextVec
	if h.Eng.Row {
		next = h.nextRow
	}
	return h.emit(next)
}

// emit returns what next aggregates, with an arena from the list while it
// runs, on the first call, and releases the operator on the next.
func (h *HashAggregate) emit(next func() (*types.Batch, error)) (*types.Batch, error) {
	if h.done {
		h.release()
		return nil, nil
	}
	h.done = true
	h.arena = h.Eng.Free.Arena()
	out, err := next()
	h.Eng.Free.PutArena(h.arena)
	if err != nil {
		h.release()
		return nil, err
	}
	h.out = out
	h.Span.AddAttr("groups", int64(out.NumRows()))
	return out, nil
}

// release gives the table, states, id scratch and output aggregate
// columns back to the list (the output's key columns are the table's).
func (h *HashAggregate) release() {
	if h.out != nil {
		h.Eng.Free.PutVectors(h.out.Cols[len(h.keys):])
		h.out = nil
	}
	h.table.release()
	giveSlots(h.Eng.Free, h.states.s)
	giveSlots(h.Eng.Free, h.gis)
	h.states, h.gis = aggStates{}, nil
}

// evalInputs evaluates the key and argument expressions of one batch
// into the given per-operator scratch slices, valid until the next call.
func (h *HashAggregate) evalInputs(b *types.Batch, sel []int, keyVals, argVals, cntVals []*types.Vector) error {
	h.arena.Reset()
	eval := func(e expr.Expr) (*types.Vector, error) {
		if e == nil {
			return nil, nil
		}
		if h.Eng.Row {
			return expr.EvalBatch(e, b)
		}
		return h.arena.EvalVec(e, b, sel, h.Eng.Stats)
	}
	var err error
	for i, k := range h.keys {
		if keyVals[i], err = eval(k); err != nil {
			return err
		}
	}
	for i, a := range h.aggs {
		if argVals[i], err = eval(a.Arg); err != nil {
			return err
		}
		if cntVals[i], err = eval(a.ArgCount); err != nil {
			return err
		}
	}
	return nil
}

// nextVec is the vectorized aggregation path: key and argument
// expressions evaluate densely over the upstream selection, group ids
// resolve through the key table, and accumulation runs column-at-a-time
// per aggregate into one flat state array (stride len(aggs)). Group
// output order (first-seen) is identical to the row path.
//
// Under a finite budget with a spill store the same loop asks the
// governor before admitting each new group; a refusal flushes the table
// as a key-sorted run and resumes at that row. Global aggregates (no
// keys) hold one group and never spill.
func (h *HashAggregate) nextVec() (*types.Batch, error) {
	na := len(h.aggs)
	h.table, h.states = keyTable{free: h.Eng.Free}, h.newStates()
	table, states := &h.table, &h.states
	keyVals := make([]*types.Vector, len(h.keys))
	argVals := make([]*types.Vector, na)
	cntVals := make([]*types.Vector, na)

	var runs []SpillHandle
	var charged int64
	defer func() { h.Mem.Release(charged) }()
	var admit func(j int) bool
	if h.Mem.Limited() && h.Spill != nil && len(h.keys) > 0 {
		admit = func(j int) bool {
			cost := groupMemBytes(keyVals, j, na, states.ext != nil)
			if table.len() > 0 && h.Mem.WouldExceed(cost) {
				return false
			}
			h.Mem.Charge(cost)
			charged += cost
			return true
		}
	}
	flush := func() error {
		hd, err := writeAggRun(h.Spill, table.cols, states, na)
		if err != nil {
			return err
		}
		h.Mem.NoteSpill(hd.Size)
		runs = append(runs, hd)
		h.Mem.Release(charged)
		charged = 0
		table.reset()
		states.s, states.ext = states.s[:0], states.ext[:0]
		return nil
	}

	for {
		b, sel, err := pullSel(h.input)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		m := selLen(b, sel)
		if m == 0 {
			continue
		}
		if err := h.evalInputs(b, sel, keyVals, argVals, cntVals); err != nil {
			return nil, err
		}
		h.gis = growSlots(h.Eng.Free, h.gis, m)
		gis := h.gis
		if len(h.keys) == 0 {
			clear(gis)
			states.grow(h.Eng.Free, na)
			if err := h.accumulate(states, gis, 0, m, argVals, cntVals); err != nil {
				return nil, err
			}
			continue
		}
		hs := table.hash(keyVals, nil, m)
		for from := 0; from < m; {
			next := table.insert(hs, keyVals, nil, from, gis, admit)
			states.grow(h.Eng.Free, table.len()*na)
			if err := h.accumulate(states, gis, from, next, argVals, cntVals); err != nil {
				return nil, err
			}
			if next < m {
				if err := flush(); err != nil {
					return nil, err
				}
			}
			from = next
		}
	}
	h.Span.AddAttr("slots", int64(len(table.ids)))

	if len(runs) == 0 {
		return h.assemble(table.cols, states, table.len()), nil
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return h.mergeAggRuns(runs)
}

// newStates returns the operator's empty state arrays, with extremes
// only if it has a MIN or MAX.
func (h *HashAggregate) newStates() (t aggStates) {
	if slices.ContainsFunc(h.aggs, func(a AggDef) bool { return a.Kind == AggMin || a.Kind == AggMax }) {
		t.ext = []types.Datum{}
	}
	return t
}

// grow extends the state arrays to n zeroed entries, the states in
// arrays from free.
func (t *aggStates) grow(free *FreeList, n int) {
	t.s = growZeroed(free, t.s, n)
	if t.ext != nil {
		t.ext = growZeroed(nil, t.ext, n)
	}
}

// growZeroed extends s to n zeroed elements, moving them into a larger
// array from f when s has no room, and giving s back.
func growZeroed[T any](f *FreeList, s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		grown := takeSlots[T](f, max(n, 2*cap(s)))
		copy(grown, s)
		giveSlots(f, s)
		return grown[:n]
	}
	clear(s[len(s):n]) // storage reused after a flush
	return s[:n]
}

// accumulate folds rows [lo, hi) of one batch into the flat state array:
// gis[j] is the group of row j of the (dense) argument vectors. One pass
// per aggregate, with typed fast paths for the count/sum/avg family.
func (h *HashAggregate) accumulate(t *aggStates, gis []int32, lo, hi int, argVals, cntVals []*types.Vector) error {
	na, states := len(h.aggs), t.s
	for ai, a := range h.aggs {
		argv, cntv := argVals[ai], cntVals[ai]
		switch a.Kind {
		case AggCountStar:
			for j := lo; j < hi; j++ {
				states[int(gis[j])*na+ai].count++
			}
		case AggCount:
			for j := lo; j < hi; j++ {
				if !argv.IsNull(j) {
					states[int(gis[j])*na+ai].count++
				}
			}
		case AggSum, AggAvg:
			if argv.Typ.Physical() == types.Float64 {
				fs := argv.Floats
				for j := lo; j < hi; j++ {
					if argv.IsNull(j) {
						continue
					}
					st := &states[int(gis[j])*na+ai]
					st.count++
					st.sumF += fs[j]
				}
			} else {
				is := argv.Ints // nil for non-numeric args, which sum as 0
				for j := lo; j < hi; j++ {
					if argv.IsNull(j) {
						continue
					}
					var v int64
					if is != nil {
						v = is[j]
					}
					st := &states[int(gis[j])*na+ai]
					st.count++
					st.sumI += v
					st.sumF += float64(v)
				}
			}
		default:
			// Min/Max and the merge kinds keep the Datum-based
			// update, whose semantics are shared with the row path.
			for j := lo; j < hi; j++ {
				if err := t.updateAt(int(gis[j])*na+ai, a.Kind, argv, cntv, j); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// assemble renders the accumulated groups in id order: keyCols hold one
// value per group and become the key output columns as they are; states
// is the flat per-group state array. A global aggregate always has its
// one group, even over no rows.
func (h *HashAggregate) assemble(keyCols []*types.Vector, states *aggStates, groups int) *types.Batch {
	na := len(h.aggs)
	if len(h.keys) == 0 {
		states.grow(h.Eng.Free, na)
		groups = 1
	}
	out := &types.Batch{Cols: make([]*types.Vector, 0, len(h.schema))}
	for c := range h.keys {
		if keyCols == nil { // grouped aggregate over no rows
			out.Cols = append(out.Cols, types.NewVector(h.schema[c].Type, 0))
			continue
		}
		v := *keyCols[c]
		v.Typ = h.schema[c].Type
		out.Cols = append(out.Cols, &v)
	}
	for ai, a := range h.aggs {
		if h.partial && a.Kind == AggAvg {
			sum, cnt := h.Eng.Free.Vector(types.Float64, groups), h.Eng.Free.Vector(types.Int64, groups)
			for g := 0; g < groups; g++ {
				st := &states.s[g*na+ai]
				sum.Floats = append(sum.Floats, st.sumF)
				cnt.Ints = append(cnt.Ints, st.count)
			}
			out.Cols = append(out.Cols, sum, cnt)
			continue
		}
		col := h.Eng.Free.Vector(h.schema[len(out.Cols)].Type, groups)
		for g := 0; g < groups; g++ {
			col.Append(states.result(g*na+ai, a))
		}
		out.Cols = append(out.Cols, col)
	}
	return out
}

// nextRow is the row-engine aggregation path and the reference the
// vectorized one is tested against: groups resolve row at a time through
// rowKey and a string-keyed map.
func (h *HashAggregate) nextRow() (*types.Batch, error) {
	na := len(h.aggs)
	groups := map[string]int{} // key -> group index
	keys := types.NewBatch(h.schema[:len(h.keys)], 0)
	h.states = h.newStates()
	states := &h.states
	keyVals := make([]*types.Vector, len(h.keys))
	argVals := make([]*types.Vector, na)
	cntVals := make([]*types.Vector, na)

	var keyBuf []byte
	for {
		b, err := h.input.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if err := h.evalInputs(b, nil, keyVals, argVals, cntVals); err != nil {
			return nil, err
		}
		keyBatch := &types.Batch{Cols: keyVals}
		n := b.NumRows()
		for i := 0; i < n; i++ {
			gi := 0
			if len(h.keys) > 0 {
				keyBuf = rowKey(keyBuf, keyBatch, i, nil)
				var ok bool
				if gi, ok = groups[string(keyBuf)]; !ok {
					gi = len(groups)
					groups[string(keyBuf)] = gi
					keys.AppendRow(keyBatch.Row(i))
				}
			}
			states.grow(h.Eng.Free, (gi+1)*na)
			for ai, a := range h.aggs {
				if err := states.updateAt(gi*na+ai, a.Kind, argVals[ai], cntVals[ai], i); err != nil {
					return nil, err
				}
			}
		}
	}
	h.Span.AddAttr("slots", int64(len(groups)))
	return h.assemble(keys.Cols, states, keys.NumRows()), nil
}

// updateAt folds row j of the argument vectors (nil for an aggregate
// without that argument) into state i.
func (t *aggStates) updateAt(i int, kind AggKind, argv, cntv *types.Vector, j int) error {
	var arg, cnt types.Datum
	if argv != nil {
		arg = argv.Datum(j)
	}
	if cntv != nil {
		cnt = cntv.Datum(j)
	}
	s := &t.s[i]
	switch kind {
	case AggCountStar:
		s.count++
	case AggCount:
		if !arg.Null {
			s.count++
		}
	case AggCountMerge:
		if !arg.Null {
			s.count += arg.I
		}
	case AggSum, AggAvg:
		if arg.Null {
			return nil
		}
		s.count++
		if arg.K.Physical() == types.Float64 {
			s.sumF += arg.F
		} else {
			s.sumI += arg.I
			s.sumF += float64(arg.I)
		}
	case AggAvgMerge:
		if arg.Null || cnt.Null {
			return nil
		}
		s.sumF += arg.F
		s.count += cnt.I
	case AggMin, AggMax:
		if arg.Null {
			return nil
		}
		if s.count == 0 || better(kind, arg.Compare(t.ext[i])) {
			t.ext[i] = arg
		}
		s.count++
	default:
		return fmt.Errorf("exec: unknown aggregate kind %d", kind)
	}
	return nil
}

// better reports whether a value that compares c to an extreme replaces
// it under kind.
func better(kind AggKind, c int) bool {
	return (kind == AggMin && c < 0) || (kind == AggMax && c > 0)
}

func (t *aggStates) result(i int, a AggDef) types.Datum {
	s := &t.s[i]
	switch a.Kind {
	case AggCountStar, AggCount, AggCountMerge:
		return types.NewInt(s.count)
	case AggSum:
		if s.count == 0 {
			return types.NullDatum(a.resultType())
		}
		if a.resultType() == types.Float64 {
			return types.NewFloat(s.sumF)
		}
		return types.NewInt(s.sumI)
	case AggAvg, AggAvgMerge:
		if s.count == 0 {
			return types.NullDatum(types.Float64)
		}
		return types.NewFloat(s.sumF / float64(s.count))
	case AggMin, AggMax:
		if s.count == 0 {
			return types.NullDatum(a.resultType())
		}
		return t.ext[i]
	}
	return types.Datum{}
}
