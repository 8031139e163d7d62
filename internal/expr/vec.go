package expr

import (
	"fmt"
	"strings"
	"sync/atomic"

	"eon/internal/hashring"
	"eon/internal/types"
)

// This file implements the vectorized expression engine: evaluation
// directly over the typed slices of types.Vector, driven by selection
// vectors instead of per-row Datum boxing.
//
// Semantics contract: EvalVec(e, b, sel) position j equals what the row
// engine produces for row sel[j] — EvalRow followed by Vector.Append
// into a vector typed e.Type() (Append's physical-class coercion
// included), which is exactly the EvalBatch contract the operators
// already consume. FilterVec(e, b, sel) equals FilterBatch restricted
// to sel: the rows where e is TRUE (not FALSE, not NULL).
//
// Any node the kernels do not cover falls back to EvalRow for the
// surviving rows only, so semantics never change and coverage is
// observable through VecStats.

// VecStats counts rows processed by the vectorized engine. Vectorized
// is the number of rows entering a top-level EvalVec/FilterVec call;
// Fallback is the number of row-at-a-time EvalRow evaluations performed
// for unsupported expression nodes. Fallback == 0 means the typed
// kernels covered every expression evaluated. Safe for concurrent use;
// a nil *VecStats drops all counts.
type VecStats struct {
	Vectorized atomic.Int64
	Fallback   atomic.Int64
}

func (s *VecStats) addVectorized(n int) {
	if s != nil && n > 0 {
		s.Vectorized.Add(int64(n))
	}
}

func (s *VecStats) addFallback(n int) {
	if s != nil && n > 0 {
		s.Fallback.Add(int64(n))
	}
}

// selCount returns the number of rows a selection covers (nil = all).
func selCount(b *types.Batch, sel []int) int {
	if sel == nil {
		return b.NumRows()
	}
	return len(sel)
}

// rowAt maps a dense position to a batch row index.
func rowAt(sel []int, j int) int {
	if sel == nil {
		return j
	}
	return sel[j]
}

// EvalVec evaluates a bound expression over the selected rows of a
// batch, returning a dense vector with one result per selected row (in
// selection order). A nil sel selects every row.
func EvalVec(e Expr, b *types.Batch, sel []int, st *VecStats) (*types.Vector, error) {
	return (*Arena)(nil).EvalVec(e, b, sel, st)
}

// EvalVec is the package EvalVec with its results drawn from a (see
// Arena): they stay valid until a.Reset. A nil a allocates them.
func (a *Arena) EvalVec(e Expr, b *types.Batch, sel []int, st *VecStats) (*types.Vector, error) {
	st.addVectorized(selCount(b, sel))
	return evalVec(e, b, sel, st, a.orHeap())
}

// FilterVec narrows a selection vector to the rows where the bound
// boolean expression evaluates to TRUE (NULL and FALSE are excluded,
// per SQL WHERE semantics). A nil sel starts from every row. The result
// is always ascending and never aliases sel.
func FilterVec(e Expr, b *types.Batch, sel []int, st *VecStats) ([]int, error) {
	return (*Arena)(nil).FilterVec(e, b, sel, st)
}

// FilterVec is the package FilterVec with its result and scratch drawn
// from a: the selection stays valid until a.Reset. A nil a allocates.
func (a *Arena) FilterVec(e Expr, b *types.Batch, sel []int, st *VecStats) ([]int, error) {
	st.addVectorized(selCount(b, sel))
	return filterVec(e, b, sel, st, a.orHeap())
}

func filterVec(e Expr, b *types.Batch, sel []int, st *VecStats, a *Arena) ([]int, error) {
	if n, ok := e.(*Binary); ok {
		switch n.Op {
		case OpAnd:
			// Kleene short-circuit as selection narrowing: rows already
			// FALSE or NULL under L can never become TRUE, and R runs
			// only on L's survivors.
			s1, err := filterVec(n.L, b, sel, st, a)
			if err != nil {
				return nil, err
			}
			if len(s1) == 0 {
				return s1, nil
			}
			return filterVec(n.R, b, s1, st, a)
		case OpOr:
			// Rows TRUE under L pass; the rest (FALSE or NULL under L)
			// pass only if TRUE under R.
			sT, err := filterVec(n.L, b, sel, st, a)
			if err != nil {
				return nil, err
			}
			rest := diffSel(a, b, sel, sT)
			sR, err := filterVec(n.R, b, rest, st, a)
			if err != nil {
				return nil, err
			}
			return mergeSel(a, sT, sR), nil
		}
	}
	if !boolReadable(e) {
		return fallbackSel(e, b, sel, st, a)
	}
	v, err := evalVec(e, b, sel, st, a)
	if err != nil {
		return nil, err
	}
	return pickTrue(a, v, sel), nil
}

// rowCols returns the columns of b a row-engine fallback has to load to
// evaluate e: only those e reads, so a batch whose other columns are not
// decoded yet (nil, see Batch.NumRows) can still be filtered.
func rowCols(e Expr, b *types.Batch) []int {
	cols := Columns(e)
	in := cols[:0]
	for _, c := range cols {
		if c >= 0 && c < len(b.Cols) { // EvalRow reports a reference out of range
			in = append(in, c)
		}
	}
	return in
}

// fallbackSel selects with the row engine, for predicates whose raw .B
// cannot be read off a coerced vector.
func fallbackSel(e Expr, b *types.Batch, sel []int, st *VecStats, a *Arena) ([]int, error) {
	m := selCount(b, sel)
	pass, n := a.bools.take(m), 0
	row, cols := make(types.Row, b.NumCols()), rowCols(e, b)
	for j := 0; j < m; j++ {
		i := rowAt(sel, j)
		for _, c := range cols {
			row[c] = b.Cols[c].Datum(i)
		}
		d, err := EvalRow(e, row)
		if err != nil {
			return nil, err
		}
		if !d.Null && d.B {
			pass[j] = true
			n++
		}
	}
	st.addFallback(m)
	out := a.idx(n)
	for j, ok := range pass {
		if ok {
			out = append(out, rowAt(sel, j))
		}
	}
	return out, nil
}

// pickTrue returns the batch row indexes whose dense result is TRUE. The
// result is sized by counting first: a selective predicate keeps a few
// rows of a block, not a block-sized slice.
func pickTrue(a *Arena, v *types.Vector, sel []int) []int {
	bools := v.Bools // nil when the expression is not Bool-physical
	n := 0
	for j, b := range bools {
		if b && !v.IsNull(j) {
			n++
		}
	}
	out := a.idx(n)
	for j, b := range bools {
		if b && !v.IsNull(j) {
			out = append(out, rowAt(sel, j))
		}
	}
	return out
}

// diffSel returns sel minus sub (both ascending, sub ⊆ sel).
func diffSel(a *Arena, b *types.Batch, sel, sub []int) []int {
	n := selCount(b, sel)
	out := a.idx(n - len(sub))
	k := 0
	for j := 0; j < n; j++ {
		i := rowAt(sel, j)
		if k < len(sub) && sub[k] == i {
			k++
			continue
		}
		out = append(out, i)
	}
	return out
}

// mergeSel merges two ascending, disjoint selections.
func mergeSel(ar *Arena, a, b []int) []int {
	out := ar.idx(len(a) + len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// stableExpr reports whether a node's raw row-engine result datum
// always carries exactly its static type (same K, not just the same
// physical class). The row engine coerces datums through Vector.Append
// only once, at the top of an expression; intermediate nodes see raw
// datums. Kernel outputs are coerced to the static type at every node,
// which is only indistinguishable from raw datums for stable children —
// consumers that dispatch on a child's raw type (comparisons, IN,
// arithmetic operand widening, EXTRACT, HASH) must therefore check this
// and fall back when it does not hold. The classic unstable node is
// ABS(float): bound as Int64, raw result Float64.
func stableExpr(e Expr) bool {
	switch n := e.(type) {
	case *ColumnRef, *Literal, *IsNull, *In, *Like:
		return true
	case *Binary:
		// Comparisons and AND/OR produce Bool; arithmetic stamps K=Typ
		// on both the int and float paths.
		return true
	case *Unary:
		if n.Op == OpNot {
			return true
		}
		// NEG keeps the raw operand's K on the int path.
		return stableExpr(n.E)
	case *Func:
		switch strings.ToUpper(n.Name) {
		case "HASH", "LENGTH", "YEAR", "MONTH", "DAY", "EXTRACT",
			"SUBSTR", "LOWER", "UPPER":
			return true
		case "ABS":
			// Bound Int64, but the raw result goes Float64 whenever the
			// raw argument is Float64.
			return stableExpr(n.Args[0]) && n.Args[0].Type().Physical() != types.Float64
		case "COALESCE":
			for _, a := range n.Args {
				if !stableExpr(a) || a.Type() != n.Typ {
					return false
				}
			}
			return true
		}
		return false
	case *Case:
		for _, w := range n.Whens {
			if !stableExpr(w.Then) || w.Then.Type() != n.Typ {
				return false
			}
		}
		if n.Else != nil && (!stableExpr(n.Else) || n.Else.Type() != n.Typ) {
			return false
		}
		return true
	}
	return false
}

// boolReadable reports whether reading the coerced vector as bool gives
// raw-datum .B semantics: true for static-Bool results (the coerced
// Bools slice IS the raw .B) and for stable nodes (raw non-Bool datums
// have .B == false, as does the coerced read).
func boolReadable(e Expr) bool {
	return e.Type().Physical() == types.Bool || stableExpr(e)
}

func evalVec(e Expr, b *types.Batch, sel []int, st *VecStats, a *Arena) (*types.Vector, error) {
	switch n := e.(type) {
	case *ColumnRef:
		if n.Index < 0 || n.Index >= len(b.Cols) {
			return nil, fmt.Errorf("expr: column %q not bound", n.Name)
		}
		col := b.Cols[n.Index]
		if sel == nil {
			return col, nil
		}
		return gather(a, col, sel), nil
	case *Literal:
		return constVec(a, n.Value, selCount(b, sel)), nil
	case *Binary:
		return evalVecBinary(n, b, sel, st, a)
	case *Unary:
		return evalVecUnary(n, b, sel, st, a)
	case *IsNull:
		return evalVecIsNull(n, b, sel, st, a)
	case *In:
		return evalVecIn(n, b, sel, st, a)
	case *Like:
		return evalVecLike(n, b, sel, st, a)
	case *Case:
		return evalVecCase(n, b, sel, st, a)
	case *Func:
		return evalVecFunc(n, b, sel, st, a)
	}
	return fallbackVec(e, b, sel, st, a)
}

// fallbackVec evaluates an unsupported node with the row engine over the
// surviving rows only, preserving semantics exactly.
func fallbackVec(e Expr, b *types.Batch, sel []int, st *VecStats, a *Arena) (*types.Vector, error) {
	m := selCount(b, sel)
	out := types.NewVector(e.Type(), m)
	row, cols := make(types.Row, b.NumCols()), rowCols(e, b)
	for j := 0; j < m; j++ {
		i := rowAt(sel, j)
		for _, c := range cols {
			row[c] = b.Cols[c].Datum(i)
		}
		d, err := EvalRow(e, row)
		if err != nil {
			return nil, err
		}
		out.Append(d)
	}
	st.addFallback(m)
	return out, nil
}

// denseVec builds a fixed-length result vector of zero values, drawn
// from an arena. Its null bitmap is made by the first setNull, so a
// result without NULLs never has one.
type denseVec struct {
	v *types.Vector
	a *Arena
}

func newDense(a *Arena, typ types.Type, m int) denseVec {
	v := &a.vecs.take(1)[0]
	v.Typ = typ
	switch typ.Physical() {
	case types.Int64:
		v.Ints = a.ints.take(m)
	case types.Float64:
		v.Floats = a.floats.take(m)
	case types.Varchar:
		v.Strs = a.strs.take(m)
	case types.Bool:
		v.Bools = a.bools.take(m)
	}
	return denseVec{v: v, a: a}
}

func (d *denseVec) setNull(j int) {
	if d.v.Nulls == nil {
		d.v.Nulls = d.a.bools.take(d.v.Len())
	}
	d.v.Nulls[j] = true
}

// constVec materializes a literal as a dense vector of m copies.
func constVec(a *Arena, d types.Datum, m int) *types.Vector {
	out := newDense(a, d.K, m)
	if d.Null {
		for j := 0; j < m; j++ {
			out.setNull(j)
		}
		return out.v
	}
	switch d.K.Physical() {
	case types.Int64:
		for j := range out.v.Ints {
			out.v.Ints[j] = d.I
		}
	case types.Float64:
		for j := range out.v.Floats {
			out.v.Floats[j] = d.F
		}
	case types.Varchar:
		for j := range out.v.Strs {
			out.v.Strs[j] = d.S
		}
	case types.Bool:
		for j := range out.v.Bools {
			out.v.Bools[j] = d.B
		}
	}
	return out.v
}

func evalVecBinary(n *Binary, b *types.Batch, sel []int, st *VecStats, a *Arena) (*types.Vector, error) {
	if n.Op == OpAnd || n.Op == OpOr {
		if !boolReadable(n.L) || !boolReadable(n.R) {
			return fallbackVec(n, b, sel, st, a)
		}
		return evalVecLogic(n, b, sel, st, a)
	}
	// Comparisons and arithmetic dispatch on the operands' raw datum
	// types; unstable operands must go through the row engine.
	if !stableExpr(n.L) || !stableExpr(n.R) {
		return fallbackVec(n, b, sel, st, a)
	}
	l, err := evalOperand(n.L, b, sel, st, a)
	if err != nil {
		return nil, err
	}
	r, err := evalOperand(n.R, b, sel, st, a)
	if err != nil {
		return nil, err
	}
	m := selCount(b, sel)
	if n.Op.IsComparison() {
		out, ok := compareKernel(a, n.Op, l, r, m)
		if ok {
			return out, nil
		}
		// Unsupported class combination (e.g. string vs number, which
		// the row engine resolves by rendered-string comparison).
		return fallbackVec(n, b, sel, st, a)
	}
	return arithKernel(a, n.Op, n.Typ, l, r, m)
}

// operand is one side of a comparison or arithmetic kernel: a dense
// vector (mask -1), or a literal held once instead of broadcast (mask
// 0). Either way the value for output row j is at v's position j&mask.
type operand struct {
	v    *types.Vector
	mask int
}

func evalOperand(e Expr, b *types.Batch, sel []int, st *VecStats, a *Arena) (operand, error) {
	if lit, ok := e.(*Literal); ok {
		return operand{constVec(a, lit.Value, 1), 0}, nil
	}
	v, err := evalVec(e, b, sel, st, a)
	return operand{v, -1}, err
}

// cmpTruth maps a three-way comparison (shifted to 0,1,2) to the
// operator's outcome.
func cmpTruth(op Op) [3]bool {
	switch op {
	case OpEq:
		return [3]bool{false, true, false}
	case OpNe:
		return [3]bool{true, false, true}
	case OpLt:
		return [3]bool{true, false, false}
	case OpLe:
		return [3]bool{true, true, false}
	case OpGt:
		return [3]bool{false, false, true}
	default: // OpGe
		return [3]bool{false, true, true}
	}
}

// compareKernel evaluates a comparison over two operands of m rows. ok
// is false when the physical class combination has no typed kernel.
func compareKernel(a *Arena, op Op, lo, ro operand, m int) (*types.Vector, bool) {
	l, r, lm, rm := lo.v, ro.v, lo.mask, ro.mask
	lp, rp := l.Typ.Physical(), r.Typ.Physical()
	numeric := func(p types.Type) bool { return p == types.Int64 || p == types.Float64 }
	if lp != rp && !(numeric(lp) && numeric(rp)) {
		return nil, false
	}
	truth := cmpTruth(op)
	out := newDense(a, types.Bool, m)
	ob := out.v.Bools
	anyLeftNull, anyRightNull := l.Nulls != nil, r.Nulls != nil
	isNull := func(j int) bool {
		return (anyLeftNull && l.IsNull(j&lm)) || (anyRightNull && r.IsNull(j&rm))
	}
	switch {
	case lp == types.Int64 && rp == types.Int64:
		li, ri := l.Ints, r.Ints
		for j := 0; j < m; j++ {
			if isNull(j) {
				out.setNull(j)
				continue
			}
			a, c := li[j&lm], ri[j&rm]
			t := 1
			if a < c {
				t = 0
			} else if a > c {
				t = 2
			}
			ob[j] = truth[t]
		}
	case numeric(lp) && numeric(rp):
		lf := floatsOf(l)
		rf := floatsOf(r)
		for j := 0; j < m; j++ {
			if isNull(j) {
				out.setNull(j)
				continue
			}
			a, c := lf(j&lm), rf(j&rm)
			t := 1
			if a < c {
				t = 0
			} else if a > c {
				t = 2
			}
			ob[j] = truth[t]
		}
	case lp == types.Varchar:
		ls, rs := l.Strs, r.Strs
		for j := 0; j < m; j++ {
			if isNull(j) {
				out.setNull(j)
				continue
			}
			ob[j] = truth[strings.Compare(ls[j&lm], rs[j&rm])+1]
		}
	case lp == types.Bool:
		lb, rb := l.Bools, r.Bools
		for j := 0; j < m; j++ {
			if isNull(j) {
				out.setNull(j)
				continue
			}
			a, c := lb[j&lm], rb[j&rm]
			t := 1
			if !a && c {
				t = 0
			} else if a && !c {
				t = 2
			}
			ob[j] = truth[t]
		}
	default:
		return nil, false
	}
	return out.v, true
}

// floatsOf returns an accessor reading a numeric vector as float64.
func floatsOf(v *types.Vector) func(int) float64 {
	if v.Typ.Physical() == types.Float64 {
		fs := v.Floats
		return func(j int) float64 { return fs[j] }
	}
	is := v.Ints
	return func(j int) float64 { return float64(is[j]) }
}

// intsAt reads a vector as int64 with the row engine's Datum-field
// semantics: non-Int64-physical values read as 0.
func intsAt(v *types.Vector) func(int) int64 {
	if v.Typ.Physical() == types.Int64 {
		is := v.Ints
		return func(j int) int64 { return is[j] }
	}
	return func(int) int64 { return 0 }
}

// strsAt reads a vector as string (empty for non-Varchar), matching
// Datum-field semantics.
func strsAt(v *types.Vector) func(int) string {
	if v.Typ.Physical() == types.Varchar {
		ss := v.Strs
		return func(j int) string { return ss[j] }
	}
	return func(int) string { return "" }
}

// boolsAt reads a vector as bool (false for non-Bool), matching
// Datum-field semantics.
func boolsAt(v *types.Vector) func(int) bool {
	if v.Typ.Physical() == types.Bool {
		bs := v.Bools
		return func(j int) bool { return bs[j] }
	}
	return func(int) bool { return false }
}

// arithKernel evaluates +,-,*,/,% over two operands of m rows with the row
// engine's numeric rules: the float path when the bound result type is
// Float64, the int path otherwise; division (and modulo) by zero is
// NULL, not an error.
func arithKernel(a *Arena, op Op, typ types.Type, lo, ro operand, m int) (*types.Vector, error) {
	l, r, lm, rm := lo.v, ro.v, lo.mask, ro.mask
	out := newDense(a, typ, m)
	anyLeftNull, anyRightNull := l.Nulls != nil, r.Nulls != nil
	isNull := func(j int) bool {
		return (anyLeftNull && l.IsNull(j&lm)) || (anyRightNull && r.IsNull(j&rm))
	}
	if typ.Physical() == types.Float64 {
		lf, rf := floatsOf(l), floatsOf(r)
		of := out.v.Floats
		for j := 0; j < m; j++ {
			if isNull(j) {
				out.setNull(j)
				continue
			}
			a, c := lf(j&lm), rf(j&rm)
			switch op {
			case OpAdd:
				of[j] = a + c
			case OpSub:
				of[j] = a - c
			case OpMul:
				of[j] = a * c
			case OpDiv:
				if c == 0 {
					out.setNull(j)
					continue
				}
				of[j] = a / c
			default:
				return nil, fmt.Errorf("expr: op %v not valid for floats", op)
			}
		}
		return out.v, nil
	}
	if typ.Physical() != types.Int64 {
		return nil, fmt.Errorf("expr: bad arithmetic op %v", op)
	}
	li, ri := intsAt(l), intsAt(r)
	oi := out.v.Ints
	for j := 0; j < m; j++ {
		if isNull(j) {
			out.setNull(j)
			continue
		}
		a, c := li(j&lm), ri(j&rm)
		switch op {
		case OpAdd:
			oi[j] = a + c
		case OpSub:
			oi[j] = a - c
		case OpMul:
			oi[j] = a * c
		case OpDiv:
			if c == 0 {
				out.setNull(j)
				continue
			}
			oi[j] = a / c
		case OpMod:
			if c == 0 {
				out.setNull(j)
				continue
			}
			oi[j] = a % c
		default:
			return nil, fmt.Errorf("expr: bad arithmetic op %v", op)
		}
	}
	return out.v, nil
}

// evalVecLogic evaluates AND/OR with Kleene semantics and row-engine
// short-circuiting: the right operand is evaluated only over rows the
// left operand does not decide.
func evalVecLogic(n *Binary, b *types.Batch, sel []int, st *VecStats, a *Arena) (*types.Vector, error) {
	m := selCount(b, sel)
	l, err := evalVec(n.L, b, sel, st, a)
	if err != nil {
		return nil, err
	}
	lb := boolsAt(l)
	out := newDense(a, types.Bool, m)
	ob := out.v.Bools
	// decided: AND is FALSE on a non-NULL FALSE left; OR is TRUE on a
	// non-NULL TRUE left. Everything else needs the right operand.
	undecidedRows := a.idx(m)
	undecidedSlots := a.idx(m)
	for j := 0; j < m; j++ {
		lNull := l.IsNull(j)
		lv := lb(j)
		if n.Op == OpAnd && !lNull && !lv {
			continue // ob[j] already false
		}
		if n.Op == OpOr && !lNull && lv {
			ob[j] = true
			continue
		}
		undecidedRows = append(undecidedRows, rowAt(sel, j))
		undecidedSlots = append(undecidedSlots, j)
	}
	if len(undecidedRows) == 0 {
		return out.v, nil
	}
	r, err := evalVec(n.R, b, undecidedRows, st, a)
	if err != nil {
		return nil, err
	}
	rb := boolsAt(r)
	for k, j := range undecidedSlots {
		lNull, rNull := l.IsNull(j), r.IsNull(k)
		rv := rb(k)
		if n.Op == OpAnd {
			switch {
			case !rNull && !rv:
				// ob[j] stays false
			case lNull || rNull:
				out.setNull(j)
			default:
				ob[j] = lb(j) && rv
			}
			continue
		}
		switch {
		case !rNull && rv:
			ob[j] = true
		case lNull || rNull:
			out.setNull(j)
		default:
			ob[j] = lb(j) || rv
		}
	}
	return out.v, nil
}

func evalVecUnary(n *Unary, b *types.Batch, sel []int, st *VecStats, a *Arena) (*types.Vector, error) {
	v, err := evalVec(n.E, b, sel, st, a)
	if err != nil {
		return nil, err
	}
	m := v.Len()
	switch n.Op {
	case OpNot:
		if !boolReadable(n.E) {
			return fallbackVec(n, b, sel, st, a)
		}
		out := newDense(a, types.Bool, m)
		vb := boolsAt(v)
		for j := 0; j < m; j++ {
			if v.IsNull(j) {
				out.setNull(j)
				continue
			}
			out.v.Bools[j] = !vb(j)
		}
		return out.v, nil
	case OpNeg:
		if !stableExpr(n.E) {
			return fallbackVec(n, b, sel, st, a)
		}
		switch v.Typ.Physical() {
		case types.Float64:
			out := newDense(a, n.Typ, m)
			if out.v.Floats == nil {
				// Bound type disagrees with the operand class; let the
				// row engine's Datum coercion decide.
				return fallbackVec(n, b, sel, st, a)
			}
			for j := 0; j < m; j++ {
				if v.IsNull(j) {
					out.setNull(j)
					continue
				}
				out.v.Floats[j] = -v.Floats[j]
			}
			return out.v, nil
		case types.Int64:
			out := newDense(a, n.Typ, m)
			if out.v.Ints == nil {
				return fallbackVec(n, b, sel, st, a)
			}
			for j := 0; j < m; j++ {
				if v.IsNull(j) {
					out.setNull(j)
					continue
				}
				out.v.Ints[j] = -v.Ints[j]
			}
			return out.v, nil
		}
		return fallbackVec(n, b, sel, st, a)
	}
	return nil, fmt.Errorf("expr: bad unary op %v", n.Op)
}

func evalVecIsNull(n *IsNull, b *types.Batch, sel []int, st *VecStats, a *Arena) (*types.Vector, error) {
	v, err := evalVec(n.E, b, sel, st, a)
	if err != nil {
		return nil, err
	}
	m := v.Len()
	out := newDense(a, types.Bool, m)
	for j := 0; j < m; j++ {
		out.v.Bools[j] = v.IsNull(j) != n.Negate
	}
	return out.v, nil
}

func evalVecIn(n *In, b *types.Batch, sel []int, st *VecStats, a *Arena) (*types.Vector, error) {
	if !n.constOK || !stableExpr(n.E) {
		// Non-literal IN lists and unstable operands (whose raw datum
		// type steers membership comparison) take the row engine.
		return fallbackVec(n, b, sel, st, a)
	}
	v, err := evalVec(n.E, b, sel, st, a)
	if err != nil {
		return nil, err
	}
	m := v.Len()
	out := newDense(a, types.Bool, m)
	setInt := n.constInts
	setStr := n.constStrs
	useInt := setInt != nil && v.Typ.Physical() == types.Int64
	useStr := setStr != nil && v.Typ.Physical() == types.Varchar
	for j := 0; j < m; j++ {
		if v.IsNull(j) {
			out.setNull(j)
			continue
		}
		var found bool
		switch {
		case useInt:
			_, found = setInt[v.Ints[j]]
		case useStr:
			_, found = setStr[v.Strs[j]]
		default:
			for _, d := range n.constList {
				if compareMixed(v.Datum(j), d) == 0 {
					found = true
					break
				}
			}
		}
		switch {
		case found:
			out.v.Bools[j] = !n.Negate
		case n.constNull:
			out.setNull(j)
		default:
			out.v.Bools[j] = n.Negate
		}
	}
	return out.v, nil
}

func evalVecLike(n *Like, b *types.Batch, sel []int, st *VecStats, a *Arena) (*types.Vector, error) {
	if n.E.Type().Physical() != types.Varchar && !stableExpr(n.E) {
		return fallbackVec(n, b, sel, st, a)
	}
	v, err := evalVec(n.E, b, sel, st, a)
	if err != nil {
		return nil, err
	}
	m := v.Len()
	matcher := n.matcher()
	out := newDense(a, types.Bool, m)
	vs := strsAt(v)
	for j := 0; j < m; j++ {
		if v.IsNull(j) {
			out.setNull(j)
			continue
		}
		out.v.Bools[j] = matcher.match(vs(j)) != n.Negate
	}
	return out.v, nil
}

// scatterInto writes the dense src values into the listed slots of dst,
// applying Vector.Append's physical-class coercion: a class mismatch
// stores the zero value (that is what Append reads off a foreign-class
// Datum), NULL carries over.
func scatterInto(dst *denseVec, slots []int, src *types.Vector) {
	same := dst.v.Typ.Physical() == src.Typ.Physical()
	for k, j := range slots {
		if src.IsNull(k) {
			dst.setNull(j)
			continue
		}
		if !same {
			continue // slot keeps its zero value
		}
		switch dst.v.Typ.Physical() {
		case types.Int64:
			dst.v.Ints[j] = src.Ints[k]
		case types.Float64:
			dst.v.Floats[j] = src.Floats[k]
		case types.Varchar:
			dst.v.Strs[j] = src.Strs[k]
		case types.Bool:
			dst.v.Bools[j] = src.Bools[k]
		}
	}
}

func evalVecCase(n *Case, b *types.Batch, sel []int, st *VecStats, a *Arena) (*types.Vector, error) {
	// Branch values scatter through the bound type's physical class; a
	// branch is exact when its static class already matches (the copy
	// reads the same field Append would) or when it is stable (the raw
	// datum's foreign-class fields are zero, like the scatter's zero
	// fill). Conditions are read as raw .B.
	branchOK := func(e Expr) bool {
		return e.Type().Physical() == n.Typ.Physical() || stableExpr(e)
	}
	for _, w := range n.Whens {
		if !boolReadable(w.Cond) || !branchOK(w.Then) {
			return fallbackVec(n, b, sel, st, a)
		}
	}
	if n.Else != nil && !branchOK(n.Else) {
		return fallbackVec(n, b, sel, st, a)
	}
	m := selCount(b, sel)
	out := newDense(a, n.Typ, m)
	// rem tracks rows not yet claimed by a WHEN arm, with their output
	// slots alongside.
	rem := a.idx(m)[:m]
	remSlots := a.idx(m)[:m]
	for j := 0; j < m; j++ {
		rem[j] = rowAt(sel, j)
		remSlots[j] = j
	}
	for _, w := range n.Whens {
		if len(rem) == 0 {
			break
		}
		cv, err := evalVec(w.Cond, b, rem, st, a)
		if err != nil {
			return nil, err
		}
		cb := boolsAt(cv)
		matchedRows := a.idx(len(rem))
		matchedSlots := a.idx(len(rem))
		nextRem := rem[:0]
		nextSlots := remSlots[:0]
		for k := range rem {
			if !cv.IsNull(k) && cb(k) {
				matchedRows = append(matchedRows, rem[k])
				matchedSlots = append(matchedSlots, remSlots[k])
			} else {
				nextRem = append(nextRem, rem[k])
				nextSlots = append(nextSlots, remSlots[k])
			}
		}
		if len(matchedRows) > 0 {
			tv, err := evalVec(w.Then, b, matchedRows, st, a)
			if err != nil {
				return nil, err
			}
			scatterInto(&out, matchedSlots, tv)
		}
		rem, remSlots = nextRem, nextSlots
	}
	if len(rem) > 0 {
		if n.Else != nil {
			ev, err := evalVec(n.Else, b, rem, st, a)
			if err != nil {
				return nil, err
			}
			scatterInto(&out, remSlots, ev)
		} else {
			for _, j := range remSlots {
				out.setNull(j)
			}
		}
	}
	return out.v, nil
}

func evalVecFunc(n *Func, b *types.Batch, sel []int, st *VecStats, a *Arena) (*types.Vector, error) {
	name := strings.ToUpper(n.Name)
	switch name {
	case "COALESCE":
		// The kernel reads the chosen argument through the bound type's
		// physical class, mirroring Append; see evalVecCase for why a
		// matching class or a stable argument makes that exact.
		for _, arg := range n.Args {
			if arg.Type().Physical() != n.Typ.Physical() && !stableExpr(arg) {
				return fallbackVec(n, b, sel, st, a)
			}
		}
	case "HASH", "ABS", "LENGTH", "LOWER", "UPPER", "SUBSTR",
		"EXTRACT", "YEAR", "MONTH", "DAY":
		// These dispatch on (or read fields steered by) the raw argument
		// datums, so every argument must be stable.
		for _, arg := range n.Args {
			if !stableExpr(arg) {
				return fallbackVec(n, b, sel, st, a)
			}
		}
	default:
		return fallbackVec(n, b, sel, st, a)
	}
	m := selCount(b, sel)
	args := make([]*types.Vector, len(n.Args))
	for i, arg := range n.Args {
		v, err := evalVec(arg, b, sel, st, a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	natural, err := funcKernel(a, name, n, args, m)
	if err != nil {
		return nil, err
	}
	return coerceInto(a, n.Typ, natural), nil
}

// coerceInto retypes a kernel's natural result to the bound type,
// reproducing Vector.Append's behaviour when the physical classes
// differ (values collapse to the zero value; NULLs carry over).
func coerceInto(a *Arena, typ types.Type, v *types.Vector) *types.Vector {
	if typ.Physical() == v.Typ.Physical() {
		v.Typ = typ
		return v
	}
	out := newDense(a, typ, v.Len())
	for j := 0; j < v.Len(); j++ {
		if v.IsNull(j) {
			out.setNull(j)
		}
	}
	return out.v
}

// anyArgNull reports whether any argument is NULL at dense position j
// (the strict-function rule).
func anyArgNull(args []*types.Vector, j int) bool {
	for _, a := range args {
		if a.IsNull(j) {
			return true
		}
	}
	return false
}

func funcKernel(a *Arena, name string, n *Func, args []*types.Vector, m int) (*types.Vector, error) {
	switch name {
	case "HASH":
		out := newDense(a, types.Int64, m)
		idx := idxRange(len(args))
		row := make([]types.Datum, len(args))
		for j := 0; j < m; j++ {
			for i, a := range args {
				row[i] = a.Datum(j)
			}
			out.v.Ints[j] = int64(hashring.HashRowCols(row, idx))
		}
		return out.v, nil
	case "COALESCE":
		// The row engine returns the first non-NULL argument datum and
		// lets Vector.Append coerce it into the bound type; reading the
		// bound type's field off the chosen argument is the same thing.
		typ := n.Typ
		out := newDense(a, typ, m)
		for j := 0; j < m; j++ {
			chosen := -1
			for i := range args {
				if !args[i].IsNull(j) {
					chosen = i
					break
				}
			}
			if chosen < 0 {
				out.setNull(j)
				continue
			}
			src := args[chosen]
			if src.Typ.Physical() != typ.Physical() {
				continue // Append-style collapse to zero value
			}
			switch typ.Physical() {
			case types.Int64:
				out.v.Ints[j] = src.Ints[j]
			case types.Float64:
				out.v.Floats[j] = src.Floats[j]
			case types.Varchar:
				out.v.Strs[j] = src.Strs[j]
			case types.Bool:
				out.v.Bools[j] = src.Bools[j]
			}
		}
		return out.v, nil
	case "ABS":
		if args[0].Typ.Physical() == types.Float64 {
			out := newDense(a, types.Float64, m)
			for j := 0; j < m; j++ {
				if anyArgNull(args, j) {
					out.setNull(j)
					continue
				}
				f := args[0].Floats[j]
				if f < 0 {
					f = -f
				}
				out.v.Floats[j] = f
			}
			return out.v, nil
		}
		out := newDense(a, types.Int64, m)
		a0 := intsAt(args[0])
		for j := 0; j < m; j++ {
			if anyArgNull(args, j) {
				out.setNull(j)
				continue
			}
			v := a0(j)
			if v < 0 {
				v = -v
			}
			out.v.Ints[j] = v
		}
		return out.v, nil
	case "LENGTH":
		out := newDense(a, types.Int64, m)
		a0 := strsAt(args[0])
		for j := 0; j < m; j++ {
			if anyArgNull(args, j) {
				out.setNull(j)
				continue
			}
			out.v.Ints[j] = int64(len(a0(j)))
		}
		return out.v, nil
	case "LOWER", "UPPER":
		out := newDense(a, types.Varchar, m)
		a0 := strsAt(args[0])
		for j := 0; j < m; j++ {
			if anyArgNull(args, j) {
				out.setNull(j)
				continue
			}
			if name == "LOWER" {
				out.v.Strs[j] = strings.ToLower(a0(j))
			} else {
				out.v.Strs[j] = strings.ToUpper(a0(j))
			}
		}
		return out.v, nil
	case "SUBSTR":
		out := newDense(a, types.Varchar, m)
		a0 := strsAt(args[0])
		a1 := intsAt(args[1])
		var a2 func(int) int64
		if len(args) > 2 {
			a2 = intsAt(args[2])
		}
		for j := 0; j < m; j++ {
			if anyArgNull(args, j) {
				out.setNull(j)
				continue
			}
			s := a0(j)
			start := int(a1(j)) - 1
			if start < 0 {
				start = 0
			}
			if start > len(s) {
				start = len(s)
			}
			end := len(s)
			if a2 != nil {
				end = start + int(a2(j))
				if end > len(s) {
					end = len(s)
				}
				if end < start {
					end = start
				}
			}
			out.v.Strs[j] = s[start:end]
		}
		return out.v, nil
	case "EXTRACT", "YEAR", "MONTH", "DAY":
		out := newDense(a, types.Int64, m)
		row := make([]types.Datum, len(args))
		for j := 0; j < m; j++ {
			if anyArgNull(args, j) {
				out.setNull(j)
				continue
			}
			for i, a := range args {
				row[i] = a.Datum(j)
			}
			d, err := evalExtract(name, row)
			if err != nil {
				return nil, err
			}
			out.v.Ints[j] = d.I
		}
		return out.v, nil
	}
	return nil, fmt.Errorf("expr: unknown function %q", n.Name)
}
