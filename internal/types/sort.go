package types

import (
	"cmp"
	"slices"
)

// SortKey is one key of a row order: a column position and a direction.
type SortKey struct {
	Col  int
	Desc bool
}

// Comparator returns the row order of b under keys: negative, zero or
// positive as row i sorts before, with or after row j. It is resolved once
// into one closure per key over the column's typed slice, so no value is
// boxed per comparison. Each key orders as Datum.Compare does — NULLs
// first, -0 equal to +0 — and a descending key reverses it, so NULLs sort
// last there. NaN, which Datum.Compare finds equal to every number, sorts
// just after the NULLs, so the order stays a strict weak order.
func Comparator(b *Batch, keys []SortKey) func(i, j int) int {
	cols := make([]func(i, j int) int, len(keys))
	for n, k := range keys {
		cols[n] = columnOrder(b.Cols[k.Col], k.Desc)
	}
	if len(cols) == 1 {
		return cols[0]
	}
	return func(i, j int) int {
		for _, c := range cols {
			if r := c(i, j); r != 0 {
				return r
			}
		}
		return 0
	}
}

func columnOrder(v *Vector, desc bool) func(i, j int) int {
	var c func(i, j int) int
	switch v.Typ.Physical() {
	case Int64:
		c = ordered(v.Ints, v.Nulls)
	case Float64:
		xs := v.Floats
		c = nullable(v.Nulls, func(i, j int) int { return cmp.Compare(xs[i], xs[j]) })
	case Varchar:
		c = ordered(v.Strs, v.Nulls)
	case Bool:
		xs := v.Bools
		c = nullable(v.Nulls, func(i, j int) int { return -trueFirst(xs[i], xs[j]) })
	default:
		c = nullable(v.Nulls, func(i, j int) int { return 0 })
	}
	if desc {
		asc := c
		c = func(i, j int) int { return asc(j, i) }
	}
	return c
}

// ordered is the order of a slice without NaN.
func ordered[T int64 | string](xs []T, nulls []bool) func(i, j int) int {
	return nullable(nulls, func(i, j int) int {
		switch x, y := xs[i], xs[j]; {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	})
}

// nullable puts NULLs first in front of c, unless no value is NULL.
func nullable(nulls []bool, c func(i, j int) int) func(i, j int) int {
	if !slices.Contains(nulls, true) {
		return c
	}
	return func(i, j int) int {
		ni, nj := i < len(nulls) && nulls[i], j < len(nulls) && nulls[j]
		if ni || nj {
			return trueFirst(ni, nj)
		}
		return c(i, j)
	}
}

// CompareAt orders row ai of batch a against row bi of batch b under keys,
// exactly as Comparator orders two rows of one batch. Merges across
// batches use it.
func CompareAt(a *Batch, ai int, b *Batch, bi int, keys []SortKey) int {
	for _, k := range keys {
		if c := compareCell(a.Cols[k.Col], ai, b.Cols[k.Col], bi); c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

func compareCell(x *Vector, i int, y *Vector, j int) int {
	if ni, nj := x.IsNull(i), y.IsNull(j); ni || nj {
		return trueFirst(ni, nj)
	}
	switch x.Typ.Physical() {
	case Int64:
		return cmp.Compare(x.Ints[i], y.Ints[j])
	case Float64:
		return cmp.Compare(x.Floats[i], y.Floats[j])
	case Varchar:
		return cmp.Compare(x.Strs[i], y.Strs[j])
	case Bool:
		return -trueFirst(x.Bools[i], y.Bools[j])
	}
	return 0
}

// trueFirst orders true before false: a NULL before a value, and
// (negated) false before true.
func trueFirst(x, y bool) int {
	switch {
	case x == y:
		return 0
	case x:
		return -1
	}
	return 1
}

// SortPerm returns the permutation of row indexes that orders the batch by
// the keys. The sort is stable: equal keys keep their input order.
func SortPerm(b *Batch, keys []SortKey) []int {
	perm := make([]int, b.NumRows())
	for i := range perm {
		perm[i] = i
	}
	if c := Comparator(b, keys); !inOrder(c, len(perm)) {
		slices.SortFunc(perm, func(i, j int) int {
			if r := c(i, j); r != 0 {
				return r
			}
			return i - j // the tie-break on row index makes the sort stable
		})
	}
	return perm
}

func inOrder(c func(i, j int) int, n int) bool {
	for i := 1; i < n; i++ {
		if c(i-1, i) > 0 {
			return false
		}
	}
	return true
}

// SortBatch returns a new batch with rows ordered by the keys. A batch
// already in order is returned as-is (no copy).
func SortBatch(b *Batch, keys []SortKey) *Batch {
	if IsSorted(b, keys) {
		return b
	}
	return b.Gather(SortPerm(b, keys))
}

// IsSorted reports whether the batch is ordered by the keys.
func IsSorted(b *Batch, keys []SortKey) bool {
	return inOrder(Comparator(b, keys), b.NumRows())
}
