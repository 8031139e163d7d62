package expr

import (
	"math"
	"slices"

	"eon/internal/types"
)

// ColumnStats aliases types.ColumnStats: the min/max/null summary of one
// column of a storage unit (a ROS block or a whole container).
type ColumnStats = types.ColumnStats

// StatsFunc supplies stats for a bound column index; ok=false means the
// column's stats are unknown and the analysis must be conservative.
type StatsFunc func(col int) (ColumnStats, bool)

// CouldMatch reports whether the bound predicate could evaluate to TRUE
// for any row whose columns lie within the supplied min/max bounds. A
// false result proves no row matches, allowing the storage unit to be
// pruned (paper §2.1). The analysis is conservative: any construct it
// cannot reason about yields true.
func CouldMatch(e Expr, stats StatsFunc) bool {
	return couldMatch(e, stats)
}

func couldMatch(e Expr, stats StatsFunc) bool {
	switch n := e.(type) {
	case *Literal:
		if n.Value.K == types.Bool && !n.Value.Null {
			return n.Value.B
		}
		return true
	case *Binary:
		switch n.Op {
		case OpAnd:
			// A conjunction can match only if each conjunct can.
			return couldMatch(n.L, stats) && couldMatch(n.R, stats)
		case OpOr:
			return couldMatch(n.L, stats) || couldMatch(n.R, stats)
		}
		if n.Op.IsComparison() {
			return comparisonCouldMatch(n, stats)
		}
		return true
	case *IsNull:
		col, ok := n.E.(*ColumnRef)
		if !ok {
			return true
		}
		st, known := stats(col.Index)
		if !known {
			return true
		}
		if n.Negate {
			return !st.AllNull
		}
		return st.HasNulls || st.AllNull
	case *In:
		if n.Negate {
			return true
		}
		col, ok := n.E.(*ColumnRef)
		if !ok {
			return true
		}
		st, known := stats(col.Index)
		if !known {
			return true
		}
		if st.AllNull {
			return false // all-NULL can never satisfy IN
		}
		for _, le := range n.List {
			lit, ok := le.(*Literal)
			if !ok {
				return true
			}
			if lit.Value.Null {
				continue
			}
			if compareMixed(lit.Value, st.Min) >= 0 && compareMixed(lit.Value, st.Max) <= 0 {
				return true
			}
		}
		return false
	}
	return true
}

// RangeFraction estimates the share of a storage unit's rows that
// satisfy the bound predicate e, from the unit's min/max, assuming
// uniform values and independent columns. Only top-level conjuncts
// numeric column op literal count (=, <, <=, >, >=; BETWEEN is two):
// per column they narrow a range whose overlap with [min, max] is the
// share, in whole values on integer-backed (INTEGER, DATE) columns (a
// FLOAT equality covers no width). A contradictory range, a NULL
// literal or an all-NULL column gives 0;
// other conjuncts and unknown stats count as 1. The result is in [0, 1].
func RangeFraction(e Expr, stats StatsFunc) float64 {
	type span struct {
		st     ColumnStats
		lo, hi float64 // inclusive
	}
	spans, share := map[int]*span{}, 1.0
	numeric := func(t types.Type) bool { return t.Physical() == types.Int64 || t.Physical() == types.Float64 }
	var walk func(Expr)
	walk = func(e Expr) {
		n, ok := e.(*Binary)
		if ok && n.Op == OpAnd {
			walk(n.L)
			walk(n.R)
			return
		}
		if !ok || !n.Op.IsComparison() || n.Op == OpNe {
			return
		}
		col, lit, op, ok := normalizeComparison(n)
		if !ok || !numeric(col.Typ) {
			return
		}
		st, known := stats(col.Index)
		if known && (lit.Null || st.AllNull) {
			share = 0
		}
		if !known || share == 0 || !numeric(lit.K) || !numeric(st.Min.K) {
			return
		}
		s := spans[col.Index]
		if s == nil {
			s = &span{st: st, lo: math.Inf(-1), hi: math.Inf(1)}
			spans[col.Index] = s
		}
		v := asFloat(lit)
		lo, hi, up, down := v, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))
		if col.Typ.Physical() == types.Int64 {
			lo, hi = math.Ceil(v), math.Floor(v)
			up, down = hi+1, lo-1
		}
		switch op {
		case OpEq:
			s.lo, s.hi = max(s.lo, lo), min(s.hi, hi)
		case OpGe:
			s.lo = max(s.lo, lo)
		case OpGt:
			s.lo = max(s.lo, up)
		case OpLe:
			s.hi = min(s.hi, hi)
		case OpLt:
			s.hi = min(s.hi, down)
		}
	}
	walk(e)
	for _, s := range spans {
		cMin, cMax := asFloat(s.st.Min), asFloat(s.st.Max)
		lo, hi, width := max(s.lo, cMin), min(s.hi, cMax), cMax-cMin
		if s.st.Min.K.Physical() == types.Int64 {
			hi, width = hi+1, width+1 // a whole value x covers [x, x+1)
		}
		switch {
		case hi < lo:
			share = 0
		case width > 0 && width < math.Inf(1): // not min = max, NaN or infinite stats
			share *= (hi - lo) / width
		}
	}
	return share
}

// comparisonCouldMatch analyzes col <op> literal (or literal <op> col).
func comparisonCouldMatch(n *Binary, stats StatsFunc) bool {
	col, lit, op, ok := normalizeComparison(n)
	if !ok {
		return true
	}
	st, known := stats(col.Index)
	if !known {
		return true
	}
	if st.AllNull || lit.Null {
		return false // comparison with NULL is never TRUE
	}
	cMin := compareMixed(st.Min, lit)
	cMax := compareMixed(st.Max, lit)
	switch op {
	case OpEq:
		return cMin <= 0 && cMax >= 0
	case OpNe:
		// Only impossible when every value equals the literal.
		return !(cMin == 0 && cMax == 0)
	case OpLt:
		return cMin < 0
	case OpLe:
		return cMin <= 0
	case OpGt:
		return cMax > 0
	case OpGe:
		return cMax >= 0
	}
	return true
}

// normalizeComparison rewrites the comparison so the column is on the
// left; returns ok=false if the shape is not column-vs-literal.
func normalizeComparison(n *Binary) (*ColumnRef, types.Datum, Op, bool) {
	if c, ok := n.L.(*ColumnRef); ok {
		if l, ok := n.R.(*Literal); ok {
			return c, l.Value, n.Op, true
		}
	}
	if c, ok := n.R.(*ColumnRef); ok {
		if l, ok := n.L.(*Literal); ok {
			return c, l.Value, flipOp(n.Op), true
		}
	}
	return nil, types.Datum{}, OpInvalid, false
}

func flipOp(op Op) Op {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// PinnedValues returns the key tuples a row must hold in cols (bound
// column indexes, in segmentation order) to satisfy e, when top-level
// conjuncts of e pin every one of them: col = literal, or, when cols is a
// single column, col IN (literals). A tuple holds one value per column of
// cols. Every literal must be non-NULL and of its column's physical
// class, since only then does equality imply equal hashes; FLOAT columns
// never pin (-0.0 = +0.0, yet their bits differ). nil means some column
// is unpinned and a row could hold any key. A column pinned twice keeps
// its first pin: a matching row satisfies both.
func PinnedValues(e Expr, cols []int) []types.Row {
	pins := make([][]types.Datum, len(cols))
	pin := func(col *ColumnRef, vals []types.Datum) {
		for _, v := range vals {
			if v.Null || v.K.Physical() != col.Typ.Physical() || v.K.Physical() == types.Float64 {
				return
			}
		}
		if i := slices.Index(cols, col.Index); i >= 0 && pins[i] == nil {
			pins[i] = vals
		}
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case *Binary:
			if n.Op == OpAnd {
				walk(n.L)
				walk(n.R)
			} else if col, lit, op, ok := normalizeComparison(n); ok && op == OpEq {
				pin(col, []types.Datum{lit})
			}
		case *In:
			col, ok := n.E.(*ColumnRef)
			if !ok || n.Negate || len(cols) != 1 {
				return
			}
			vals := make([]types.Datum, len(n.List))
			for i, le := range n.List {
				lit, ok := le.(*Literal)
				if !ok {
					return
				}
				vals[i] = lit.Value
			}
			pin(col, vals)
		}
	}
	walk(e)
	if len(cols) == 0 || slices.ContainsFunc(pins, func(vals []types.Datum) bool { return vals == nil }) {
		return nil
	}
	// Only a single column takes an IN list, so every other column holds
	// one value: tuple i is each column's i-th.
	keys := make([]types.Row, len(pins[0]))
	for i := range keys {
		for _, vals := range pins {
			keys[i] = append(keys[i], vals[i])
		}
	}
	return keys
}
