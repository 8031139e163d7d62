package types

import "cmp"

// ColumnStats summarizes one column of a storage unit (a ROS block or a
// whole container): the minimum and maximum non-null values and whether
// any NULLs are present. AllNull set means every value is NULL, in which
// case Min and Max are meaningless.
type ColumnStats struct {
	Min      Datum `json:"min"`
	Max      Datum `json:"max"`
	HasNulls bool  `json:"hasNulls,omitempty"`
	AllNull  bool  `json:"allNull,omitempty"`
}

// Merge widens s to cover o.
func (s *ColumnStats) Merge(o ColumnStats) {
	if o.AllNull {
		s.HasNulls = true
		if !s.AllNull {
			return
		}
		s.AllNull = true
		return
	}
	if s.AllNull {
		s.Min, s.Max = o.Min, o.Max
		s.AllNull = false
		s.HasNulls = s.HasNulls || o.HasNulls
		return
	}
	if o.Min.Compare(s.Min) < 0 {
		s.Min = o.Min
	}
	if o.Max.Compare(s.Max) > 0 {
		s.Max = o.Max
	}
	s.HasNulls = s.HasNulls || o.HasNulls
}

// StatsOf computes ColumnStats over a vector.
func StatsOf(v *Vector) ColumnStats {
	min, max, nulls := MinMax(v)
	st := ColumnStats{HasNulls: nulls > 0, AllNull: nulls == v.Len()}
	if !st.AllNull {
		st.Min, st.Max = min, max
	}
	return st
}

// MinMax returns the smallest and largest non-NULL values of v — the first
// of equal extremes, as a fold with Datum.Compare keeps them — and its NULL
// count. min and max are NULL when no value is non-NULL. The pass reads
// the typed slice and boxes only the two results.
func MinMax(v *Vector) (min, max Datum, nulls int) {
	min, max = NullDatum(v.Typ), NullDatum(v.Typ)
	ok := false
	switch v.Typ.Physical() {
	case Int64:
		min.I, max.I, nulls, ok = extremes(v.Ints, v.Nulls)
	case Float64:
		min.F, max.F, nulls, ok = extremes(v.Floats, v.Nulls)
	case Varchar:
		min.S, max.S, nulls, ok = extremes(v.Strs, v.Nulls)
	case Bool:
		var seenFalse, seenTrue bool
		for i, x := range v.Bools {
			switch {
			case i < len(v.Nulls) && v.Nulls[i]:
				nulls++
			case x:
				seenTrue = true
			default:
				seenFalse = true
			}
		}
		if ok = seenFalse || seenTrue; ok {
			min.B, max.B = !seenFalse, seenTrue
		}
	}
	min.Null, max.Null = !ok, !ok
	return min, max, nulls
}

// extremes folds xs, skipping NULL positions, with strict < and > so the
// first of equal values wins and a NaN neither replaces nor is replaced,
// exactly as Datum.Compare folds.
func extremes[T cmp.Ordered](xs []T, nulls []bool) (lo, hi T, n int, ok bool) {
	for i, x := range xs {
		if i < len(nulls) && nulls[i] {
			n++
			continue
		}
		if !ok {
			lo, hi, ok = x, x, true
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, n, ok
}
