package exec

import (
	"slices"

	"eon/internal/obs"
	"eon/internal/types"
)

// HashJoin is an inner equi-join whose build side is chosen by its
// caller before the first pull (Build; core picks the input with the
// smaller estimate). It reads the build side to its end, copying each
// batch (Operator: a batch lives only until the next pull) and
// concatenating the copies (a single one is kept as it is), hashes it,
// then streams the probe side; nothing is pulled from the probe side
// before the build side ends. An empty build side ends the join without
// reading the probe side, unless that is marked Exchanged. The copies,
// the concatenation, the table, its chains and the output are in
// Eng.Free's storage, and each goes back once it is dead: a copy when it
// is concatenated, the rest when the join ends.
//
// The output is the first input's columns then the second's, whichever
// built, in probe-side stream order; the matches of one probe row come
// in build-side stream order. The vectorized engine gathers it into
// vectors it reuses on the next call. A probe batch whose
// every row matches exactly once passes its columns through: like
// Filter's, the output may share vectors with the input.
type HashJoin struct {
	in     [2]Operator
	keys   [2][]int
	schema types.Schema
	Eng    Engine
	// Build is the input that builds: 0, the first (the default), or 1.
	Build int

	// Mem, when set, is charged for the build side's copies while it is
	// read, then for the concatenated build side and its table until the
	// probe ends. The build side does not spill (grace hash join is an
	// open roadmap item), so the charge documents rather than bounds it.
	Mem *MemGovernor
	// Span, when set, receives build_rows, probe_rows and slots, its key
	// table's size.
	Span *obs.Span
	// Exchanged marks an input fed through a cross-node exchange: bounded
	// edges whose producers serve every node's join and stall all of them
	// while one node does not pull. Such a probe input is never abandoned:
	// when the build side is empty it is drained and discarded.
	Exchanged [2]bool

	done    bool
	ended   [2]bool        // the input has returned end-of-stream
	buf     []*types.Batch // copies of the build side's batches
	charged int64

	all   *types.Batch     // the build side, concatenated
	table keyTable         // vectorized engine: key -> id
	byKey map[string]int32 // row engine, the reference: rowKey -> id
	first []int32          // per id: first build row with that key, +1
	next  []int32          // per build row: next row with that key, +1; 0 ends

	// Scratch reused across probe batches.
	sel      []int
	ids      []int32
	keyCols  []*types.Vector
	buildIdx []int
	probeIdx []int
	rowKey   []byte

	// The output batch and, per column, the vector it is gathered into
	// or the view it is made as, reused across calls (vectorized engine).
	out   types.Batch
	cols  []*types.Vector
	views []types.Vector
}

// NewHashJoin creates an inner hash join on first.cols == second.cols;
// the first input builds unless Build is set to 1.
func NewHashJoin(first, second Operator, firstKeys, secondKeys []int) *HashJoin {
	schema := append(append(types.Schema{}, first.Schema()...), second.Schema()...)
	return &HashJoin{
		in:     [2]Operator{first, second},
		keys:   [2][]int{firstKeys, secondKeys},
		schema: schema,
	}
}

// Schema implements Operator.
func (h *HashJoin) Schema() types.Schema { return h.schema }

// charge moves the governor by n bytes, up or down.
func (h *HashJoin) charge(n int64) {
	if n > 0 {
		h.Mem.Charge(n)
	} else {
		h.Mem.Release(-n)
	}
	h.charged += n
}

// finish ends the join on every exit path: nothing stays charged or held,
// and an exchanged input is read to its end (a failing query is torn down
// as a whole instead).
func (h *HashJoin) finish(err error) (*types.Batch, error) {
	h.charge(-h.charged)
	h.done = true
	h.release()
	for side := range h.in {
		for h.Exchanged[side] && !h.ended[side] && err == nil {
			_, _, err = h.fetch(side)
		}
	}
	return nil, err
}

// release gives back to the list all the join holds; the batch it
// returned last is dead once its consumer pulls again.
func (h *HashJoin) release() {
	for _, b := range append(h.buf, h.all, &types.Batch{Cols: h.cols}) {
		if b != nil {
			h.Eng.Free.PutVectors(b.Cols)
		}
	}
	h.table.release()
	for _, s := range [][]int32{h.first, h.next, h.ids} {
		giveSlots(h.Eng.Free, s)
	}
	for _, s := range [][]int{h.sel, h.buildIdx, h.probeIdx} {
		giveSlots(h.Eng.Free, s)
	}
	h.buf, h.all, h.cols, h.byKey = nil, nil, nil, nil
	h.first, h.next, h.ids, h.sel, h.buildIdx, h.probeIdx = nil, nil, nil, nil, nil, nil
}

// fetch returns a side's next batch that holds a live row, nil at (and
// after) its end.
func (h *HashJoin) fetch(side int) (*types.Batch, []int, error) {
	for !h.ended[side] {
		b, sel, err := pullSel(h.in[side])
		if b == nil {
			h.ended[side] = true
			return nil, nil, err
		}
		if selLen(b, sel) > 0 {
			return b, sel, nil
		}
	}
	return nil, nil, nil
}

// keyIDs resolves the selected rows of b to key ids by side's key
// columns: the vectorized engine through the key table, the row engine
// through rowKey and a map. Rows with a NULL key are dropped first (SQL:
// NULL keys never match). An unseen key draws the next id if add is set,
// else -1. Both results are scratch: the narrowed selection and its ids.
func (h *HashJoin) keyIDs(b *types.Batch, sel []int, side int, add bool) ([]int, []int32) {
	keys := h.keys[side]
	h.keyCols = h.keyCols[:0]
	hasNulls := false
	for _, c := range keys {
		h.keyCols = append(h.keyCols, b.Cols[c])
		hasNulls = hasNulls || b.Cols[c].Nulls != nil
	}
	if hasNulls {
		m := selLen(b, sel)
		h.sel = growSlots(h.Eng.Free, h.sel, m)[:0]
		for j := 0; j < m; j++ {
			if i := selRow(sel, j); !anyNull(b, i, keys) {
				h.sel = append(h.sel, i)
			}
		}
		sel = h.sel
	}
	m := selLen(b, sel)
	h.ids = growSlots(h.Eng.Free, h.ids, m)
	if !h.Eng.Row {
		hs := h.table.hash(h.keyCols, sel, m)
		if add {
			h.table.reserve(m)
			h.table.insert(hs, h.keyCols, sel, 0, h.ids, nil)
		} else {
			h.table.find(hs, h.keyCols, sel, h.ids)
		}
		return sel, h.ids
	}
	if h.byKey == nil {
		h.byKey = map[string]int32{}
	}
	for j := range h.ids {
		h.rowKey = rowKey(h.rowKey, b, selRow(sel, j), keys)
		id, ok := h.byKey[string(h.rowKey)]
		if !ok {
			id = -1
			if add {
				id = int32(len(h.byKey))
				h.byKey[string(h.rowKey)] = id
			}
		}
		h.ids[j] = id
	}
	return sel, h.ids
}

// buildTable reads the build side to its end, a copy of each batch
// charged while it is held, concatenates the copies at their exact size
// unless there is one, and indexes them, replacing the copies' charge
// with the real one. It reports false when the build side is empty.
func (h *HashJoin) buildTable() (bool, error) {
	side, free := h.Build, h.Eng.Free
	rows := 0
	for {
		b, sel, err := h.fetch(side)
		if b == nil {
			if err != nil || rows == 0 {
				return false, err
			}
			break
		}
		cp := free.Gather(b, sel)
		h.charge(BatchMemBytes(cp))
		h.buf = append(h.buf, cp)
		rows += cp.NumRows()
	}
	all := h.buf[0]
	if len(h.buf) > 1 {
		schema := h.in[side].Schema()
		all = &types.Batch{Cols: make([]*types.Vector, len(schema))}
		for i, c := range schema {
			all.Cols[i] = free.Vector(c.Type, rows)
		}
		for _, b := range h.buf {
			all.AppendBatch(b)
			free.PutVectors(b.Cols)
		}
	}
	h.buf, h.all = nil, all
	h.table.free = free
	sel, ids := h.keyIDs(all, nil, side, true)
	// Chain the rows of one key in build order: walking backwards and
	// pushing at the head leaves every chain ascending.
	h.first = takeSlots[int32](free, max(h.table.len(), len(h.byKey)))
	h.next = takeSlots[int32](free, rows)
	for j := len(ids) - 1; j >= 0; j-- {
		i := selRow(sel, j)
		h.next[i] = h.first[ids[j]]
		h.first[ids[j]] = int32(i) + 1
	}
	h.charge(BatchMemBytes(all) + h.table.memBytes() + 4*int64(len(h.first)+len(h.next)) - h.charged)
	h.Span.AddAttr("build_rows", int64(rows))
	h.Span.AddAttr("slots", int64(max(len(h.table.ids), len(h.byKey))))
	return true, nil
}

// isIdentity reports whether idx is exactly 0..n-1.
func isIdentity(idx []int, n int) bool {
	if len(idx) != n {
		return false
	}
	for j, i := range idx {
		if i != j {
			return false
		}
	}
	return true
}

func anyNull(b *types.Batch, i int, cols []int) bool {
	for _, c := range cols {
		if b.Cols[c].IsNull(i) {
			return true
		}
	}
	return false
}

// match builds the table on its first call and returns the next probe
// batch with a match, its matching pairs in h.buildIdx and h.probeIdx (in
// probe order, then build order; valid until the next call), or nil once
// the join has finished. Next gathers the pairs, GroupJoin folds them.
func (h *HashJoin) match() (*types.Batch, error) {
	if h.done {
		return nil, nil
	}
	if h.all == nil {
		if ok, err := h.buildTable(); !ok {
			return h.finish(err)
		}
	}
	for {
		pb, sel, err := h.fetch(1 - h.Build)
		if pb == nil {
			return h.finish(err)
		}
		h.Span.AddAttr("probe_rows", int64(selLen(pb, sel)))

		// One match per probe row is the common case (a key joined to its
		// foreign keys); duplicates grow the scratch from there.
		sel, ids := h.keyIDs(pb, sel, 1-h.Build, false)
		h.buildIdx = growSlots(h.Eng.Free, h.buildIdx, len(ids))[:0]
		h.probeIdx = growSlots(h.Eng.Free, h.probeIdx, len(ids))[:0]
		for j, id := range ids {
			if id < 0 {
				continue
			}
			for bi := h.first[id]; bi > 0; bi = h.next[bi-1] {
				h.buildIdx = append(h.buildIdx, int(bi-1))
				h.probeIdx = append(h.probeIdx, selRow(sel, j))
			}
		}
		if len(h.buildIdx) > 0 {
			return pb, nil
		}
	}
}

// Next implements Operator.
func (h *HashJoin) Next() (*types.Batch, error) {
	pb, err := h.match()
	if pb == nil {
		return nil, err
	}
	return h.gather(pb, nil), nil
}

// gather makes h.out the pairs match found in pb, in the columns cols
// marks (every column when nil; it leaves the others as they were), and
// returns it. The vectorized engine gathers into vectors from the list,
// reused on the next call, and when it gathers every column, a match's
// build key, its probe key bit for bit and never NULL, is a retyped view
// of the probe's output key column; the row engine, the reference,
// gathers everything anew.
func (h *HashJoin) gather(pb *types.Batch, cols []bool) *types.Batch {
	probe := 1 - h.Build
	idx := [2][]int{h.probeIdx, h.probeIdx}
	src := [2]*types.Batch{pb, pb}
	idx[h.Build], src[h.Build] = h.buildIdx, h.all
	if isIdentity(h.probeIdx, pb.NumRows()) {
		// Every probe row matched exactly once, in order (an
		// unfiltered fact table against its dimension): its columns
		// pass through uncopied.
		idx[probe] = nil
	}
	out := &h.out
	if out.Cols == nil {
		out.Cols, h.cols, h.views = make([]*types.Vector, len(h.schema)), make([]*types.Vector, len(h.schema)), make([]types.Vector, len(h.schema))
	}
	at := [2]int{0, len(h.in[0].Schema())}
	for _, side := range [2]int{probe, h.Build} {
		for ci, c := range src[side].Cols {
			o := at[side] + ci
			switch k := slices.Index(h.keys[side], ci); {
			case cols != nil && !cols[o]:
				continue
			case cols == nil && side == h.Build && k >= 0 && !h.Eng.Row:
				v := &h.views[o]
				*v = *out.Cols[at[probe]+h.keys[probe][k]]
				v.Typ, v.Nulls = c.Typ, nil
				c = v
			case idx[side] == nil:
			case h.Eng.Row:
				c = c.Gather(idx[side])
			default:
				h.cols[o] = h.Eng.Free.room(h.cols[o], c.Typ, len(idx[side]))
				h.cols[o].AppendSel(c, idx[side])
				c = h.cols[o]
			}
			out.Cols[o] = c
		}
	}
	return out
}
