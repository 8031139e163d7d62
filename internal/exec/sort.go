package exec

import (
	"container/heap"

	"eon/internal/types"
)

// SortSpec is one sort key: a column index of the input schema and a
// direction.
type SortSpec = types.SortKey

// Sort materializes its input and emits it ordered by the keys. NULLs
// sort first ascending (last descending). When a limited memory governor
// and a spill store are set, it degrades to an external sort: sorted
// runs spill to local disk whenever the next input batch would push the
// governor over budget, and the runs k-way merge on output. Without
// spilling the behaviour (one sorted output batch) is unchanged.
type Sort struct {
	input Operator
	keys  []SortSpec

	// Mem and Spill, both set with a finite budget, enable the external
	// path. Configured by the executor, like Eng on other operators.
	Mem   *MemGovernor
	Spill SpillStore

	started bool
	emit    *types.Batch // in-memory sorted result (no-spill path)
	charged int64        // governor bytes held for emit
	merge   *sortMerger  // run merger (spill path)
}

// NewSort wraps input with ordering.
func NewSort(input Operator, keys []SortSpec) *Sort {
	return &Sort{input: input, keys: keys}
}

// Schema implements Operator.
func (s *Sort) Schema() types.Schema { return s.input.Schema() }

// Next implements Operator.
func (s *Sort) Next() (*types.Batch, error) {
	if !s.started {
		s.started = true
		if err := s.run(); err != nil {
			return nil, err
		}
	}
	if s.merge != nil {
		return s.merge.next()
	}
	if s.emit != nil {
		b := s.emit
		s.emit = nil
		s.Mem.Release(s.charged)
		s.charged = 0
		return b, nil
	}
	return nil, nil
}

// run consumes the input, spilling sorted runs when over budget, and
// leaves either an in-memory result (emit) or a run merger (merge).
func (s *Sort) run() error {
	spillable := s.Mem.Limited() && s.Spill != nil
	schema := s.input.Schema()
	acc := types.NewBatch(schema, 0)
	var accBytes int64
	var runs []SpillHandle

	flush := func() error {
		if acc.NumRows() == 0 {
			return nil
		}
		h, err := writeBatchRun(s.Spill, "sortrun", types.SortBatch(acc, s.keys))
		if err != nil {
			return err
		}
		s.Mem.NoteSpill(h.Size)
		runs = append(runs, h)
		s.Mem.Release(accBytes)
		accBytes = 0
		acc = types.NewBatch(schema, 0)
		return nil
	}

	for {
		b, err := s.input.Next()
		if err != nil {
			s.Mem.Release(accBytes)
			return err
		}
		if b == nil {
			break
		}
		n := BatchMemBytes(b)
		if spillable && acc.NumRows() > 0 && s.Mem.WouldExceed(n) {
			if err := flush(); err != nil {
				s.Mem.Release(accBytes)
				return err
			}
		}
		s.Mem.Charge(n)
		accBytes += n
		acc.AppendBatch(b)
	}

	if len(runs) == 0 {
		if acc.NumRows() == 0 {
			s.Mem.Release(accBytes)
			return nil
		}
		s.emit = types.SortBatch(acc, s.keys)
		s.charged = accBytes
		return nil
	}
	if err := flush(); err != nil {
		s.Mem.Release(accBytes)
		return err
	}
	m, err := newSortMerger(s.Spill, schema, s.keys, runs)
	if err != nil {
		return err
	}
	s.merge = m
	return nil
}

// sortMerger k-way merges spilled sorted runs. Runs hold consecutive
// input segments in order, so breaking key ties by run index reproduces
// a stable sort of the full input.
type sortMerger struct {
	cursors []*batchRunCursor
	keys    []SortSpec
	schema  types.Schema
	idx     []int // heap of cursor indexes
}

func newSortMerger(st SpillStore, schema types.Schema, keys []SortSpec, runs []SpillHandle) (*sortMerger, error) {
	m := &sortMerger{keys: keys, schema: schema}
	for _, h := range runs {
		c := &batchRunCursor{st: st, h: h, schema: schema}
		if err := c.load(); err != nil {
			return nil, err
		}
		if c.cur != nil {
			m.idx = append(m.idx, len(m.cursors))
		}
		m.cursors = append(m.cursors, c)
	}
	heap.Init(m)
	return m, nil
}

func (m *sortMerger) Len() int { return len(m.idx) }
func (m *sortMerger) Less(i, j int) bool {
	a, b := m.cursors[m.idx[i]], m.cursors[m.idx[j]]
	c := types.CompareAt(a.cur, a.row, b.cur, b.row, m.keys)
	if c != 0 {
		return c < 0
	}
	return m.idx[i] < m.idx[j]
}
func (m *sortMerger) Swap(i, j int)      { m.idx[i], m.idx[j] = m.idx[j], m.idx[i] }
func (m *sortMerger) Push(x interface{}) { m.idx = append(m.idx, x.(int)) }
func (m *sortMerger) Pop() interface{} {
	old := m.idx
	n := len(old)
	x := old[n-1]
	m.idx = old[:n-1]
	return x
}

// next emits the next merged chunk of up to spillChunkRows rows, or nil
// when all runs are drained.
func (m *sortMerger) next() (*types.Batch, error) {
	if len(m.idx) == 0 {
		return nil, nil
	}
	out := types.NewBatch(m.schema, spillChunkRows)
	// Rows taken one after another from one frame are copied as one slice.
	var src *types.Batch
	lo, hi := 0, 0
	for rows := 0; len(m.idx) > 0 && rows < spillChunkRows; rows++ {
		c := m.cursors[m.idx[0]]
		if c.cur != src || c.row != hi {
			if src != nil {
				out.AppendBatch(src.Slice(lo, hi))
			}
			src, lo, hi = c.cur, c.row, c.row
		}
		hi++
		c.row++
		if err := c.load(); err != nil {
			return nil, err
		}
		if c.cur == nil {
			heap.Pop(m)
		} else {
			heap.Fix(m, 0)
		}
	}
	out.AppendBatch(src.Slice(lo, hi))
	return out, nil
}

// TopK keeps only the K smallest rows under the sort keys, using a
// bounded heap — the pattern behind dashboard top-K queries.
type TopK struct {
	input Operator
	keys  []SortSpec
	k     int
	done  bool
}

// NewTopK wraps input with a bounded sort.
func NewTopK(input Operator, keys []SortSpec, k int) *TopK {
	return &TopK{input: input, keys: keys, k: k}
}

// Schema implements Operator.
func (t *TopK) Schema() types.Schema { return t.input.Schema() }

// rowHeap is a max-heap of row indexes under the sort keys, so the
// largest retained row is evictable at the top.
type rowHeap struct {
	cmp func(i, j int) int
	idx []int
}

func (h *rowHeap) Len() int { return len(h.idx) }
func (h *rowHeap) Less(i, j int) bool {
	return h.cmp(h.idx[i], h.idx[j]) > 0
}
func (h *rowHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *rowHeap) Push(x interface{}) { h.idx = append(h.idx, x.(int)) }
func (h *rowHeap) Pop() interface{} {
	old := h.idx
	n := len(old)
	x := old[n-1]
	h.idx = old[:n-1]
	return x
}

// Next implements Operator.
func (t *TopK) Next() (*types.Batch, error) {
	if t.done {
		return nil, nil
	}
	t.done = true
	all, err := Collect(t.input)
	if err != nil {
		return nil, err
	}
	if all.NumRows() == 0 {
		return nil, nil
	}
	h := &rowHeap{cmp: types.Comparator(all, t.keys)}
	for i := 0; i < all.NumRows(); i++ {
		if h.Len() < t.k {
			heap.Push(h, i)
			continue
		}
		if h.cmp(i, h.idx[0]) < 0 {
			h.idx[0] = i
			heap.Fix(h, 0)
		}
	}
	// Extract in ascending order.
	out := make([]int, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(int)
	}
	return all.Gather(out), nil
}
