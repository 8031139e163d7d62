package expr

import (
	"fmt"
	"strings"

	"eon/internal/hashring"
	"eon/internal/types"
)

// EvalRow evaluates a bound expression against one row using SQL
// three-valued logic: comparisons and arithmetic over NULL yield NULL;
// AND/OR follow Kleene logic.
func EvalRow(e Expr, row types.Row) (types.Datum, error) {
	switch n := e.(type) {
	case *ColumnRef:
		if n.Index < 0 || n.Index >= len(row) {
			return types.Datum{}, fmt.Errorf("expr: column %q not bound", n.Name)
		}
		return row[n.Index], nil
	case *Literal:
		return n.Value, nil
	case *Param:
		// Parameters are substituted before execution (SubstituteParams);
		// reaching one here means the statement ran without its arguments.
		return types.Datum{}, fmt.Errorf("expr: unbound parameter $%d", n.Index)
	case *Binary:
		return evalBinary(n, row)
	case *Unary:
		v, err := EvalRow(n.E, row)
		if err != nil {
			return types.Datum{}, err
		}
		switch n.Op {
		case OpNot:
			if v.Null {
				return types.NullDatum(types.Bool), nil
			}
			return types.NewBool(!v.B), nil
		case OpNeg:
			if v.Null {
				return types.NullDatum(n.Typ), nil
			}
			if v.K.Physical() == types.Float64 {
				return types.NewFloat(-v.F), nil
			}
			out := v
			out.I = -v.I
			return out, nil
		}
		return types.Datum{}, fmt.Errorf("expr: bad unary op %v", n.Op)
	case *IsNull:
		v, err := EvalRow(n.E, row)
		if err != nil {
			return types.Datum{}, err
		}
		return types.NewBool(v.Null != n.Negate), nil
	case *In:
		return evalIn(n, row)
	case *Like:
		v, err := EvalRow(n.E, row)
		if err != nil {
			return types.Datum{}, err
		}
		if v.Null {
			return types.NullDatum(types.Bool), nil
		}
		return types.NewBool(n.matcher().match(v.S) != n.Negate), nil
	case *Case:
		for _, w := range n.Whens {
			c, err := EvalRow(w.Cond, row)
			if err != nil {
				return types.Datum{}, err
			}
			if !c.Null && c.B {
				return EvalRow(w.Then, row)
			}
		}
		if n.Else != nil {
			return EvalRow(n.Else, row)
		}
		return types.NullDatum(n.Typ), nil
	case *Func:
		return evalFunc(n, row)
	}
	return types.Datum{}, fmt.Errorf("expr: unknown node %T", e)
}

func evalBinary(n *Binary, row types.Row) (types.Datum, error) {
	l, err := EvalRow(n.L, row)
	if err != nil {
		return types.Datum{}, err
	}
	// AND/OR use Kleene logic and may short-circuit.
	if n.Op == OpAnd || n.Op == OpOr {
		if n.Op == OpAnd && !l.Null && !l.B {
			return types.NewBool(false), nil
		}
		if n.Op == OpOr && !l.Null && l.B {
			return types.NewBool(true), nil
		}
		r, err := EvalRow(n.R, row)
		if err != nil {
			return types.Datum{}, err
		}
		switch n.Op {
		case OpAnd:
			if !r.Null && !r.B {
				return types.NewBool(false), nil
			}
			if l.Null || r.Null {
				return types.NullDatum(types.Bool), nil
			}
			return types.NewBool(l.B && r.B), nil
		default: // OpOr
			if !r.Null && r.B {
				return types.NewBool(true), nil
			}
			if l.Null || r.Null {
				return types.NullDatum(types.Bool), nil
			}
			return types.NewBool(l.B || r.B), nil
		}
	}
	r, err := EvalRow(n.R, row)
	if err != nil {
		return types.Datum{}, err
	}
	if l.Null || r.Null {
		return types.NullDatum(n.Typ), nil
	}
	if n.Op.IsComparison() {
		c := compareMixed(l, r)
		var out bool
		switch n.Op {
		case OpEq:
			out = c == 0
		case OpNe:
			out = c != 0
		case OpLt:
			out = c < 0
		case OpLe:
			out = c <= 0
		case OpGt:
			out = c > 0
		case OpGe:
			out = c >= 0
		}
		return types.NewBool(out), nil
	}
	return evalArith(n.Op, n.Typ, l, r)
}

// compareMixed compares two non-null datums, coercing int/float pairs.
func compareMixed(l, r types.Datum) int {
	lp, rp := l.K.Physical(), r.K.Physical()
	if lp == rp {
		return l.Compare(r)
	}
	if (lp == types.Int64 || lp == types.Float64) && (rp == types.Int64 || rp == types.Float64) {
		lf, rf := asFloat(l), asFloat(r)
		switch {
		case lf < rf:
			return -1
		case lf > rf:
			return 1
		}
		return 0
	}
	return strings.Compare(l.String(), r.String())
}

func asFloat(d types.Datum) float64 {
	if d.K.Physical() == types.Float64 {
		return d.F
	}
	return float64(d.I)
}

func evalArith(op Op, typ types.Type, l, r types.Datum) (types.Datum, error) {
	if typ.Physical() == types.Float64 {
		lf, rf := asFloat(l), asFloat(r)
		var out float64
		switch op {
		case OpAdd:
			out = lf + rf
		case OpSub:
			out = lf - rf
		case OpMul:
			out = lf * rf
		case OpDiv:
			if rf == 0 {
				return types.NullDatum(types.Float64), nil
			}
			out = lf / rf
		default:
			return types.Datum{}, fmt.Errorf("expr: op %v not valid for floats", op)
		}
		return types.NewFloat(out), nil
	}
	var out int64
	switch op {
	case OpAdd:
		out = l.I + r.I
	case OpSub:
		out = l.I - r.I
	case OpMul:
		out = l.I * r.I
	case OpDiv:
		if r.I == 0 {
			return types.NullDatum(typ), nil
		}
		out = l.I / r.I
	case OpMod:
		if r.I == 0 {
			return types.NullDatum(typ), nil
		}
		out = l.I % r.I
	default:
		return types.Datum{}, fmt.Errorf("expr: bad arithmetic op %v", op)
	}
	d := types.Datum{K: typ, I: out}
	return d, nil
}

func evalIn(n *In, row types.Row) (types.Datum, error) {
	v, err := EvalRow(n.E, row)
	if err != nil {
		return types.Datum{}, err
	}
	if v.Null {
		return types.NullDatum(types.Bool), nil
	}
	if n.constOK {
		return n.constMember(v), nil
	}
	sawNull := false
	for _, le := range n.List {
		x, err := EvalRow(le, row)
		if err != nil {
			return types.Datum{}, err
		}
		if x.Null {
			sawNull = true
			continue
		}
		if compareMixed(v, x) == 0 {
			return types.NewBool(!n.Negate), nil
		}
	}
	if sawNull {
		return types.NullDatum(types.Bool), nil
	}
	return types.NewBool(n.Negate), nil
}

// constMember resolves membership of a non-NULL value against the
// hoisted constant list (set lookup when typed, compareMixed loop
// otherwise), applying SQL IN's NULL-in-list semantics.
func (n *In) constMember(v types.Datum) types.Datum {
	found := false
	switch {
	case n.constInts != nil:
		_, found = n.constInts[v.I]
	case n.constStrs != nil:
		_, found = n.constStrs[v.S]
	default:
		for _, d := range n.constList {
			if compareMixed(v, d) == 0 {
				found = true
				break
			}
		}
	}
	if found {
		return types.NewBool(!n.Negate)
	}
	if n.constNull {
		return types.NullDatum(types.Bool)
	}
	return types.NewBool(n.Negate)
}

func evalFunc(n *Func, row types.Row) (types.Datum, error) {
	args := make([]types.Datum, len(n.Args))
	for i, a := range n.Args {
		v, err := EvalRow(a, row)
		if err != nil {
			return types.Datum{}, err
		}
		args[i] = v
	}
	name := strings.ToUpper(n.Name)
	switch name {
	case "HASH":
		// HASH over multiple args composes like segmentation hashing.
		h := hashring.HashRowCols(args, idxRange(len(args)))
		return types.NewInt(int64(h)), nil
	case "COALESCE":
		for _, a := range args {
			if !a.Null {
				return a, nil
			}
		}
		return types.NullDatum(n.Typ), nil
	}
	// Remaining functions are strict: NULL in, NULL out.
	for _, a := range args {
		if a.Null {
			return types.NullDatum(n.Typ), nil
		}
	}
	switch name {
	case "ABS":
		if args[0].K.Physical() == types.Float64 {
			f := args[0].F
			if f < 0 {
				f = -f
			}
			return types.NewFloat(f), nil
		}
		v := args[0].I
		if v < 0 {
			v = -v
		}
		return types.NewInt(v), nil
	case "LENGTH":
		return types.NewInt(int64(len(args[0].S))), nil
	case "LOWER":
		return types.NewString(strings.ToLower(args[0].S)), nil
	case "UPPER":
		return types.NewString(strings.ToUpper(args[0].S)), nil
	case "SUBSTR":
		s := args[0].S
		start := int(args[1].I) - 1
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(args) > 2 {
			end = start + int(args[2].I)
			if end > len(s) {
				end = len(s)
			}
			if end < start {
				end = start
			}
		}
		return types.NewString(s[start:end]), nil
	case "EXTRACT", "YEAR", "MONTH", "DAY":
		return evalExtract(name, args)
	}
	return types.Datum{}, fmt.Errorf("expr: unknown function %q", n.Name)
}

// evalExtract handles EXTRACT('field', ts) and the YEAR/MONTH/DAY
// shorthands over Date and Timestamp datums.
func evalExtract(name string, args []types.Datum) (types.Datum, error) {
	field := name
	val := args[0]
	if name == "EXTRACT" {
		if len(args) != 2 {
			return types.Datum{}, fmt.Errorf("expr: EXTRACT needs (field, value)")
		}
		field = strings.ToUpper(args[0].S)
		val = args[1]
	}
	var secs int64
	switch val.K {
	case types.Date:
		secs = val.I * 86400
	case types.Timestamp:
		secs = val.I / 1e6
	default:
		secs = val.I
	}
	days := secs / 86400
	y, m, d := civilFromDays(days)
	switch field {
	case "YEAR":
		return types.NewInt(y), nil
	case "MONTH":
		return types.NewInt(m), nil
	case "DAY":
		return types.NewInt(d), nil
	case "EPOCH":
		return types.NewInt(secs), nil
	case "HOUR":
		return types.NewInt((secs % 86400) / 3600), nil
	}
	return types.Datum{}, fmt.Errorf("expr: unknown EXTRACT field %q", field)
}

// civilFromDays converts days since the Unix epoch to (year, month, day)
// using Howard Hinnant's civil-from-days algorithm.
func civilFromDays(z int64) (int64, int64, int64) {
	z += 719468
	era := z / 146097
	if z < 0 {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d := doy - (153*mp+2)/5 + 1
	m := mp + 3
	if mp >= 10 {
		m = mp - 9
	}
	if m <= 2 {
		y++
	}
	return y, m, d
}

func idxRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// EvalBatch evaluates a bound expression over every row of a batch,
// returning a vector of results.
func EvalBatch(e Expr, b *types.Batch) (*types.Vector, error) {
	n := b.NumRows()
	out := types.NewVector(e.Type(), n)
	row := make(types.Row, b.NumCols())
	for i := 0; i < n; i++ {
		for j, c := range b.Cols {
			row[j] = c.Datum(i)
		}
		v, err := EvalRow(e, row)
		if err != nil {
			return nil, err
		}
		out.Append(v)
	}
	return out, nil
}

// FilterBatch returns the row indexes of b for which the bound boolean
// expression evaluates to TRUE (NULL and FALSE are excluded, per SQL
// WHERE semantics).
func FilterBatch(e Expr, b *types.Batch) ([]int, error) {
	n := b.NumRows()
	var sel []int
	row := make(types.Row, b.NumCols())
	for i := 0; i < n; i++ {
		for j, c := range b.Cols {
			row[j] = c.Datum(i)
		}
		v, err := EvalRow(e, row)
		if err != nil {
			return nil, err
		}
		if !v.Null && v.B {
			sel = append(sel, i)
		}
	}
	return sel, nil
}
