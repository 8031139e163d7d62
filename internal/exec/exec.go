// Package exec implements the vectorized execution engine: pull-based
// operators over column batches — scan sources, filter, project, hash
// join, hash aggregation (with partial/final modes for distributed
// plans), sort, limit, distinct and hash repartitioning for exchanges.
// The same operators execute in both Enterprise and Eon modes; only the
// scan sources and data placement differ (paper §4: "Eon runs Vertica's
// standard cost-based distributed optimizer, generating query plans
// equivalent to Enterprise mode").
package exec

import (
	"encoding/binary"
	"math"

	"eon/internal/expr"
	"eon/internal/obs"
	"eon/internal/types"
)

// Operator is a pull-based batch iterator. Next returns nil when the
// stream is exhausted. A batch it returns (with nextSel's selection)
// lives until the next call on the same operator, which may reuse its
// vectors (a scan takes back what it lent, HashJoin gathers into its
// own, the hash operators give their tables back to the free list); a
// consumer that keeps one longer copies it. Batches are
// read-only: operators hand on what they received or hold without
// copying (Source, Filter's all-rows batch, HashJoin's probe columns,
// Distinct's views of its key table).
type Operator interface {
	Schema() types.Schema
	Next() (*types.Batch, error)
}

// Engine selects an operator's evaluation strategy. The zero value is
// the vectorized engine (typed kernels over selection vectors); Row
// forces the original row-at-a-time path (EvalBatch/FilterBatch), kept
// for differential testing and benchmarking. Stats, when set, receives
// the vectorized/fallback row counters from expression evaluation. Free
// is the hash operators' node's free list (nil: they allocate).
type Engine struct {
	Row   bool
	Stats *expr.VecStats
	Free  *FreeList
}

// selOperator is implemented by operators that can hand their output to
// a downstream consumer as an un-gathered batch plus a selection vector
// (nil = every row), deferring or eliminating the copy. Consumers use
// pullSel, which degrades to Next for plain operators.
type selOperator interface {
	nextSel() (*types.Batch, []int, error)
}

// pullSel pulls the next batch from op in (batch, selection) form.
func pullSel(op Operator) (*types.Batch, []int, error) {
	if so, ok := op.(selOperator); ok {
		return so.nextSel()
	}
	b, err := op.Next()
	return b, nil, err
}

// selRow maps a dense position to a batch row index.
func selRow(sel []int, j int) int {
	if sel == nil {
		return j
	}
	return sel[j]
}

// selLen returns the number of rows a selection covers.
func selLen(b *types.Batch, sel []int) int {
	if sel == nil {
		return b.NumRows()
	}
	return len(sel)
}

// Source replays a fixed list of batches (used for materialized inputs
// and network-received fragments).
type Source struct {
	schema  types.Schema
	batches []*types.Batch
	pos     int
}

// NewSource wraps batches as an Operator.
func NewSource(schema types.Schema, batches ...*types.Batch) *Source {
	return &Source{schema: schema, batches: batches}
}

// Schema implements Operator.
func (s *Source) Schema() types.Schema { return s.schema }

// Next implements Operator.
func (s *Source) Next() (*types.Batch, error) {
	for s.pos < len(s.batches) {
		b := s.batches[s.pos]
		s.pos++
		if b != nil && b.NumRows() > 0 {
			return b, nil
		}
	}
	return nil, nil
}

// Limit passes through at most N rows.
type Limit struct {
	input Operator
	n     int64
	seen  int64
}

// NewLimit wraps input with a row cap.
func NewLimit(input Operator, n int64) *Limit {
	return &Limit{input: input, n: n}
}

// Schema implements Operator.
func (l *Limit) Schema() types.Schema { return l.input.Schema() }

// Next implements Operator.
func (l *Limit) Next() (*types.Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.input.Next()
	if err != nil || b == nil {
		return nil, err
	}
	remain := l.n - l.seen
	if int64(b.NumRows()) > remain {
		b = b.Slice(0, int(remain))
	}
	l.seen += int64(b.NumRows())
	return b, nil
}

// Collect drains an operator into a single batch.
func Collect(op Operator) (*types.Batch, error) {
	out := types.NewBatch(op.Schema(), 0)
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out.AppendBatch(b)
	}
}

// rowKey builds a hashable, collision-free composite key from the given
// columns of row i (nil = every column): each field is type-tagged and
// length-prefixed.
func rowKey(buf []byte, b *types.Batch, i int, cols []int) []byte {
	buf = buf[:0]
	n := len(cols)
	if cols == nil {
		n = len(b.Cols)
	}
	for k := 0; k < n; k++ {
		c := k
		if cols != nil {
			c = cols[k]
		}
		v := b.Cols[c]
		if v.IsNull(i) {
			buf = append(buf, 0)
			continue
		}
		switch v.Typ.Physical() {
		case types.Int64:
			buf = append(buf, 1)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Ints[i]))
		case types.Float64:
			buf = append(buf, 2)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Floats[i]))
		case types.Varchar:
			buf = append(buf, 3)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Strs[i])))
			buf = append(buf, v.Strs[i]...)
		case types.Bool:
			if v.Bools[i] {
				buf = append(buf, 5)
			} else {
				buf = append(buf, 4)
			}
		}
	}
	return buf
}

// Distinct removes duplicate rows (over all columns).
type Distinct struct {
	input Operator
	done  bool
	Eng   Engine
	// Span, when set, receives the distinct rows seen and slots.
	Span *obs.Span

	table keyTable            // vectorized engine
	seen  map[string]struct{} // row engine: rowKey of every row seen

	// Scratch reused across batches.
	ids []int32
	key []byte
}

// NewDistinct wraps input with duplicate elimination.
func NewDistinct(input Operator) *Distinct {
	return &Distinct{input: input}
}

// Schema implements Operator.
func (d *Distinct) Schema() types.Schema { return d.input.Schema() }

// Next implements Operator.
func (d *Distinct) Next() (*types.Batch, error) {
	for !d.done {
		b, sel, err := pullSel(d.input) // a row-engine input yields no selection
		if err != nil {
			return nil, err
		}
		if b == nil {
			d.done = true
			d.Span.AddAttr("slots", int64(max(len(d.table.ids), len(d.seen))))
			d.table.release() // the views handed out are dead now
			giveSlots(d.Eng.Free, d.ids)
			break
		}
		var out *types.Batch
		if d.Eng.Row {
			out = d.newRowsRef(b)
		} else {
			out = d.newRows(b, sel)
		}
		if out != nil && out.NumRows() > 0 {
			d.Span.AddAttr("groups", int64(out.NumRows()))
			return out, nil
		}
	}
	return nil, nil
}

// newRows runs one input batch through the key table and returns the
// rows it had not seen. The key is the whole row and ids are handed out
// in first-seen order, so those rows are exactly the tail the batch
// added to the table's key vectors: the output is a view of it, not a
// copy, valid until the table grows (on a later call) or is released.
func (d *Distinct) newRows(b *types.Batch, sel []int) *types.Batch {
	m := selLen(b, sel)
	d.table.free = d.Eng.Free
	d.ids = growSlots(d.Eng.Free, d.ids, m)
	before := d.table.len()
	d.table.insert(d.table.hash(b.Cols, sel, m), b.Cols, sel, 0, d.ids, nil)
	if d.table.len() == before {
		return nil
	}
	out := &types.Batch{Cols: make([]*types.Vector, len(b.Cols))}
	for c, k := range d.table.cols {
		out.Cols[c] = k.Slice(before, d.table.len())
	}
	return out
}

// newRowsRef is the row-engine reference for newRows.
func (d *Distinct) newRowsRef(b *types.Batch) *types.Batch {
	if d.seen == nil {
		d.seen = map[string]struct{}{}
	}
	var keep []int
	for i := 0; i < b.NumRows(); i++ {
		d.key = rowKey(d.key, b, i, nil)
		if _, ok := d.seen[string(d.key)]; !ok {
			d.seen[string(d.key)] = struct{}{}
			keep = append(keep, i)
		}
	}
	return b.Gather(keep)
}
