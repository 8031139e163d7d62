package exec

import (
	"bytes"
	"container/heap"
	"sort"
	"unsafe"

	"eon/internal/types"
)

// groupMemBytes estimates the resident cost of the group row j of
// keyVals would open: its share of the table's slots, its key values and
// its aggregate states, with an extreme each when extremes is set.
func groupMemBytes(keyVals []*types.Vector, j, nAggs int, extremes bool) int64 {
	stateBytes := unsafe.Sizeof(aggState{})
	if extremes {
		stateBytes += unsafe.Sizeof(types.Datum{})
	}
	n := int64(32 + 24*len(keyVals) + int(stateBytes)*nAggs)
	for _, v := range keyVals {
		if v.Typ.Physical() == types.Varchar {
			n += int64(len(v.Strs[j]))
		}
	}
	return n
}

// merge folds state j of o, another partial state for the same group and
// aggregate, into state i. Counts and sums add whatever the kind (an
// aggregate that does not use them leaves them zero); the extreme
// compares the way kind says.
func (t *aggStates) merge(i int, o *aggStates, j int, kind AggKind) {
	s, os := &t.s[i], &o.s[j]
	if (kind == AggMin || kind == AggMax) && os.count > 0 && (s.count == 0 || better(kind, o.ext[j].Compare(t.ext[i]))) {
		t.ext[i] = o.ext[j]
	}
	s.count += os.count
	s.sumI += os.sumI
	s.sumF += os.sumF
}

// writeAggRun spills the group table as one run, sorted by the rowKey
// encoding of each group's key (rendered here, the only place the
// vectorized path needs it) so runs can merge with a heap.
func writeAggRun(st SpillStore, keyCols []*types.Vector, states *aggStates, na int) (SpillHandle, error) {
	keyBatch := &types.Batch{Cols: keyCols}
	n := keyBatch.NumRows()
	keys := make([][]byte, n)
	order := make([]int, n)
	for gi := range keys {
		keys[gi] = rowKey(nil, keyBatch, gi, nil)
		order[gi] = gi
	}
	sort.Slice(order, func(a, b int) bool {
		return bytes.Compare(keys[order[a]], keys[order[b]]) < 0
	})
	var buf, frame []byte
	recs := 0
	for _, gi := range order {
		frame = appendAggRecord(frame, keys[gi], keyBatch.Row(gi), states, gi*na, (gi+1)*na)
		recs++
		if recs == aggRecsPerFrame {
			buf = appendFrame(buf, frame)
			frame = frame[:0]
			recs = 0
		}
	}
	if recs > 0 {
		buf = appendFrame(buf, frame)
	}
	return st.Put("aggrun", buf)
}

// aggMergeHeap orders run cursors by their head record's key bytes.
type aggMergeHeap struct {
	cursors []*aggRunCursor
	idx     []int
}

func (m *aggMergeHeap) Len() int { return len(m.idx) }
func (m *aggMergeHeap) Less(i, j int) bool {
	a, b := m.cursors[m.idx[i]], m.cursors[m.idx[j]]
	c := bytes.Compare(a.head().key, b.head().key)
	if c != 0 {
		return c < 0
	}
	return m.idx[i] < m.idx[j]
}
func (m *aggMergeHeap) Swap(i, j int)      { m.idx[i], m.idx[j] = m.idx[j], m.idx[i] }
func (m *aggMergeHeap) Push(x interface{}) { m.idx = append(m.idx, x.(int)) }
func (m *aggMergeHeap) Pop() interface{} {
	old := m.idx
	n := len(old)
	x := old[n-1]
	m.idx = old[:n-1]
	return x
}

// mergeAggRuns k-way merges the spilled runs, combining partial states
// of equal keys, and finalizes each group into the output.
func (h *HashAggregate) mergeAggRuns(runs []SpillHandle) (*types.Batch, error) {
	m := &aggMergeHeap{}
	for _, hd := range runs {
		c := &aggRunCursor{st: h.Spill, h: hd}
		if err := c.load(); err != nil {
			return nil, err
		}
		if !c.done() {
			m.idx = append(m.idx, len(m.cursors))
		}
		m.cursors = append(m.cursors, c)
	}
	heap.Init(m)

	keys := types.NewBatch(h.schema[:len(h.keys)], 0)
	states := h.newStates()
	advance := func() error {
		c := m.cursors[m.idx[0]]
		c.pos++
		if err := c.load(); err != nil {
			return err
		}
		if c.done() {
			heap.Pop(m)
		} else {
			heap.Fix(m, 0)
		}
		return nil
	}
	for len(m.idx) > 0 {
		cur := *m.cursors[m.idx[0]].head()
		if err := advance(); err != nil {
			return nil, err
		}
		for len(m.idx) > 0 && bytes.Equal(m.cursors[m.idx[0]].head().key, cur.key) {
			next := m.cursors[m.idx[0]].head()
			for ai, a := range h.aggs {
				cur.states.merge(ai, &next.states, ai, a.Kind)
			}
			if err := advance(); err != nil {
				return nil, err
			}
		}
		keys.AppendRow(cur.row)
		states.s = append(states.s, cur.states.s...)
		states.ext = append(states.ext, cur.states.ext...) // stays nil without extremes
	}
	return h.assemble(keys.Cols, &states, keys.NumRows()), nil
}
