package types

import (
	"fmt"
	"slices"
)

// Vector is a typed column of values. Exactly one of the value slices is
// populated, selected by the physical class of Typ. Nulls, when non-nil,
// marks NULL positions; a nil Nulls slice means no value is NULL.
type Vector struct {
	Typ    Type
	Nulls  []bool
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
}

// NewVector returns an empty vector of type t with capacity hint capHint.
func NewVector(t Type, capHint int) *Vector {
	v := &Vector{Typ: t}
	switch t.Physical() {
	case Int64:
		v.Ints = make([]int64, 0, capHint)
	case Float64:
		v.Floats = make([]float64, 0, capHint)
	case Varchar:
		v.Strs = make([]string, 0, capHint)
	case Bool:
		v.Bools = make([]bool, 0, capHint)
	}
	return v
}

// Len returns the number of values in the vector.
func (v *Vector) Len() int {
	switch v.Typ.Physical() {
	case Int64:
		return len(v.Ints)
	case Float64:
		return len(v.Floats)
	case Varchar:
		return len(v.Strs)
	case Bool:
		return len(v.Bools)
	}
	return 0
}

// IsNull reports whether position i is NULL. The null bitmap may be
// shorter than the vector; positions beyond it are non-NULL.
func (v *Vector) IsNull(i int) bool {
	return v.Nulls != nil && i < len(v.Nulls) && v.Nulls[i]
}

// setNull extends the null bitmap (if needed) and marks position i NULL.
func (v *Vector) setNull(i int) {
	if v.Nulls == nil {
		v.Nulls = make([]bool, i+1)
	}
	for len(v.Nulls) <= i {
		v.Nulls = append(v.Nulls, false)
	}
	v.Nulls[i] = true
}

// Append adds a datum to the end of the vector. The datum's physical class
// must match the vector's.
func (v *Vector) Append(d Datum) {
	n := v.Len()
	switch v.Typ.Physical() {
	case Int64:
		v.Ints = append(v.Ints, d.I)
	case Float64:
		v.Floats = append(v.Floats, d.F)
	case Varchar:
		v.Strs = append(v.Strs, d.S)
	case Bool:
		v.Bools = append(v.Bools, d.B)
	}
	v.appended(n, d.Null)
}

// AppendFrom appends position i of o, which must have v's physical
// class, without boxing it in a Datum. A NULL stores the zero value under
// its null bit, as Append does.
func (v *Vector) AppendFrom(o *Vector, i int) {
	n := v.Len()
	null := o.IsNull(i)
	switch v.Typ.Physical() {
	case Int64:
		var x int64
		if !null {
			x = o.Ints[i]
		}
		v.Ints = append(v.Ints, x)
	case Float64:
		var x float64
		if !null {
			x = o.Floats[i]
		}
		v.Floats = append(v.Floats, x)
	case Varchar:
		var x string
		if !null {
			x = o.Strs[i]
		}
		v.Strs = append(v.Strs, x)
	case Bool:
		v.Bools = append(v.Bools, !null && o.Bools[i])
	}
	v.appended(n, null)
}

// appended records whether the value just appended at position n is
// NULL, keeping an existing null bitmap as long as the vector.
func (v *Vector) appended(n int, null bool) {
	if null {
		v.setNull(n)
	} else if v.Nulls != nil {
		for len(v.Nulls) <= n {
			v.Nulls = append(v.Nulls, false)
		}
	}
}

// Datum returns the value at position i as a Datum.
func (v *Vector) Datum(i int) Datum {
	d := Datum{K: v.Typ}
	if v.IsNull(i) {
		d.Null = true
		return d
	}
	switch v.Typ.Physical() {
	case Int64:
		d.I = v.Ints[i]
	case Float64:
		d.F = v.Floats[i]
	case Varchar:
		d.S = v.Strs[i]
	case Bool:
		d.B = v.Bools[i]
	}
	return d
}

// Gather returns a new vector containing the values at the given positions,
// in order. The copy is typed — values move slice-to-slice without Datum
// boxing — and the null bitmap is materialized only when a gathered
// position is actually NULL.
func (v *Vector) Gather(idx []int) *Vector {
	out := NewVector(v.Typ, len(idx))
	if len(idx) > 0 { // to AppendSel, a nil idx is every position
		out.AppendSel(v, idx)
	}
	return out
}

// AppendSel appends the values of o at positions idx, in order (nil =
// every position), to v, which must have o's physical class, reusing v's
// storage where it fits. A NULL position is marked in v.Nulls and stores
// the zero value, as Append does.
func (v *Vector) AppendSel(o *Vector, idx []int) {
	if idx == nil {
		v.AppendVector(o)
		return
	}
	base := v.Len()
	switch v.Typ.Physical() {
	case Int64:
		v.Ints = appendSel(v.Ints, o.Ints, idx, o.Nulls)
	case Float64:
		v.Floats = appendSel(v.Floats, o.Floats, idx, o.Nulls)
	case Varchar:
		v.Strs = appendSel(v.Strs, o.Strs, idx, o.Nulls)
	case Bool:
		v.Bools = appendSel(v.Bools, o.Bools, idx, o.Nulls)
	}
	for j := 0; o.Nulls != nil && j < len(idx); j++ {
		if o.IsNull(idx[j]) {
			v.setNull(base + j)
		}
	}
	v.appended(v.Len()-1, false) // pads an existing null bitmap
}

// appendSel appends src[idx] to dst, the zero value where nulls marks a
// NULL.
func appendSel[T any](dst, src []T, idx []int, nulls []bool) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(idx))[:n+len(idx)]
	out := dst[n:]
	if nulls == nil {
		for j, i := range idx {
			out[j] = src[i]
		}
		return dst
	}
	var zero T
	for j, i := range idx {
		if i < len(nulls) && nulls[i] {
			out[j] = zero
		} else {
			out[j] = src[i]
		}
	}
	return dst
}

// Truncate empties v for reuse as a vector of type t: it keeps its
// storage but not its null bitmap.
func (v *Vector) Truncate(t Type) {
	*v = Vector{Typ: t, Ints: v.Ints[:0], Floats: v.Floats[:0], Strs: v.Strs[:0], Bools: v.Bools[:0]}
}

// Slice returns a view of positions [lo, hi). The view shares v's storage
// but its capacity ends at hi: appending to it reallocates and never
// writes into what v holds or later appends past hi.
func (v *Vector) Slice(lo, hi int) *Vector {
	out := &Vector{Typ: v.Typ}
	switch v.Typ.Physical() {
	case Int64:
		out.Ints = v.Ints[lo:hi:hi]
	case Float64:
		out.Floats = v.Floats[lo:hi:hi]
	case Varchar:
		out.Strs = v.Strs[lo:hi:hi]
	case Bool:
		out.Bools = v.Bools[lo:hi:hi]
	}
	if v.Nulls != nil && lo < len(v.Nulls) {
		// The bitmap may be shorter than the vector; positions beyond it
		// are non-NULL, so a truncated slice preserves semantics.
		end := hi
		if end > len(v.Nulls) {
			end = len(v.Nulls)
		}
		out.Nulls = v.Nulls[lo:end:end]
	}
	return out
}

// AppendVector appends all values of o (which must have the same physical
// class) to v.
func (v *Vector) AppendVector(o *Vector) {
	base := v.Len()
	switch v.Typ.Physical() {
	case Int64:
		v.Ints = append(v.Ints, o.Ints...)
	case Float64:
		v.Floats = append(v.Floats, o.Floats...)
	case Varchar:
		v.Strs = append(v.Strs, o.Strs...)
	case Bool:
		v.Bools = append(v.Bools, o.Bools...)
	}
	if o.Nulls != nil {
		// The bitmap may be shorter than the vector; IsNull handles it.
		for i := 0; i < o.Len(); i++ {
			if o.IsNull(i) {
				v.setNull(base + i)
			}
		}
	} else if v.Nulls != nil {
		for len(v.Nulls) < v.Len() {
			v.Nulls = append(v.Nulls, false)
		}
	}
}

// Batch is a horizontal slice of a relation: one vector per column, all the
// same length.
type Batch struct {
	Cols []*Vector
}

// NewBatch returns an empty batch with one vector per schema column.
func NewBatch(s Schema, capHint int) *Batch {
	b := &Batch{Cols: make([]*Vector, len(s))}
	for i, c := range s {
		b.Cols[i] = NewVector(c.Type, capHint)
	}
	return b
}

// NumRows returns the row count of the batch: the length of its first
// column that is present (a scan leaves the columns it has not decoded
// yet nil while it selects rows).
func (b *Batch) NumRows() int {
	for _, c := range b.Cols {
		if c != nil {
			return c.Len()
		}
	}
	return 0
}

// NumCols returns the column count of the batch.
func (b *Batch) NumCols() int { return len(b.Cols) }

// AppendRow adds one row of datums to the batch.
func (b *Batch) AppendRow(r Row) {
	if len(r) != len(b.Cols) {
		panic(fmt.Sprintf("types: row arity %d != batch arity %d", len(r), len(b.Cols)))
	}
	for i, d := range r {
		b.Cols[i].Append(d)
	}
}

// Row materializes row i as a Row of datums.
func (b *Batch) Row(i int) Row {
	r := make(Row, len(b.Cols))
	for j, c := range b.Cols {
		r[j] = c.Datum(i)
	}
	return r
}

// Rows materializes every row of the batch. Intended for tests and small
// result sets.
func (b *Batch) Rows() []Row {
	out := make([]Row, b.NumRows())
	for i := range out {
		out[i] = b.Row(i)
	}
	return out
}

// Gather returns a new batch containing the given row positions, in order.
func (b *Batch) Gather(idx []int) *Batch {
	out := &Batch{Cols: make([]*Vector, len(b.Cols))}
	for i, c := range b.Cols {
		out.Cols[i] = c.Gather(idx)
	}
	return out
}

// Slice returns a batch view of rows [lo, hi).
func (b *Batch) Slice(lo, hi int) *Batch {
	out := &Batch{Cols: make([]*Vector, len(b.Cols))}
	for i, c := range b.Cols {
		out.Cols[i] = c.Slice(lo, hi)
	}
	return out
}

// AppendBatch appends all rows of o to b (schemas must match positionally).
func (b *Batch) AppendBatch(o *Batch) { b.AppendSel(o, nil) }

// AppendSel appends the rows of o at positions sel (nil = every row) to
// b, whose columns must match o's positionally.
func (b *Batch) AppendSel(o *Batch, sel []int) {
	for i, c := range b.Cols {
		c.AppendSel(o.Cols[i], sel)
	}
}

// BatchFromRows builds a batch from a schema and a slice of rows.
func BatchFromRows(s Schema, rows []Row) *Batch {
	b := NewBatch(s, len(rows))
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}
