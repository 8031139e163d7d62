package expr

import (
	"math"
	"testing"

	"eon/internal/types"
)

var testSchema = types.Schema{
	{Name: "id", Type: types.Int64},
	{Name: "price", Type: types.Float64},
	{Name: "name", Type: types.Varchar},
	{Name: "active", Type: types.Bool},
	{Name: "sold", Type: types.Date},
}

var testRow = types.Row{
	types.NewInt(7),
	types.NewFloat(9.5),
	types.NewString("widget"),
	types.NewBool(true),
	types.NewDate(17692), // 2018-06-10
}

func mustEval(t *testing.T, e Expr) types.Datum {
	t.Helper()
	if err := Bind(e, testSchema); err != nil {
		t.Fatalf("bind: %v", err)
	}
	d, err := EvalRow(e, testRow)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return d
}

func TestBindUnknownColumn(t *testing.T) {
	if err := Bind(Col("nope"), testSchema); err == nil {
		t.Error("unknown column should fail to bind")
	}
}

func TestColumnAndLiteral(t *testing.T) {
	if d := mustEval(t, Col("id")); d.I != 7 {
		t.Errorf("id = %v", d)
	}
	if d := mustEval(t, IntLit(3)); d.I != 3 {
		t.Errorf("lit = %v", d)
	}
}

func TestArithmetic(t *testing.T) {
	if d := mustEval(t, Bin(OpAdd, Col("id"), IntLit(5))); d.I != 12 {
		t.Errorf("7+5 = %v", d)
	}
	if d := mustEval(t, Bin(OpMul, Col("price"), FloatLit(2))); d.F != 19 {
		t.Errorf("9.5*2 = %v", d)
	}
	if d := mustEval(t, Bin(OpMod, Col("id"), IntLit(4))); d.I != 3 {
		t.Errorf("7%%4 = %v", d)
	}
	// Mixed int/float promotes to float.
	d := mustEval(t, Bin(OpAdd, Col("id"), FloatLit(0.5)))
	if d.K != types.Float64 || d.F != 7.5 {
		t.Errorf("7+0.5 = %v (%v)", d, d.K)
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	if d := mustEval(t, Bin(OpDiv, Col("id"), IntLit(0))); !d.Null {
		t.Errorf("7/0 = %v, want NULL", d)
	}
	if d := mustEval(t, Bin(OpDiv, Col("price"), FloatLit(0))); !d.Null {
		t.Errorf("9.5/0.0 = %v, want NULL", d)
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		op   Op
		want bool
	}{
		{OpEq, false}, {OpNe, true}, {OpLt, true}, {OpLe, true}, {OpGt, false}, {OpGe, false},
	}
	for _, c := range cases {
		d := mustEval(t, Bin(c.op, Col("id"), IntLit(10)))
		if d.Null || d.B != c.want {
			t.Errorf("7 %v 10 = %v, want %v", c.op, d, c.want)
		}
	}
	// Cross-type numeric comparison.
	if d := mustEval(t, Bin(OpGt, Col("price"), IntLit(9))); !d.B {
		t.Error("9.5 > 9 should be true")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	null := Lit(types.NullDatum(types.Bool))
	tru := Lit(types.NewBool(true))
	fls := Lit(types.NewBool(false))

	// NULL AND FALSE = FALSE; NULL AND TRUE = NULL.
	if d := mustEval(t, Bin(OpAnd, null, fls)); d.Null || d.B {
		t.Errorf("NULL AND FALSE = %v", d)
	}
	if d := mustEval(t, Bin(OpAnd, null, tru)); !d.Null {
		t.Errorf("NULL AND TRUE = %v", d)
	}
	// NULL OR TRUE = TRUE; NULL OR FALSE = NULL.
	if d := mustEval(t, Bin(OpOr, null, tru)); d.Null || !d.B {
		t.Errorf("NULL OR TRUE = %v", d)
	}
	if d := mustEval(t, Bin(OpOr, null, fls)); !d.Null {
		t.Errorf("NULL OR FALSE = %v", d)
	}
	// NOT NULL = NULL.
	if d := mustEval(t, &Unary{Op: OpNot, E: null}); !d.Null {
		t.Errorf("NOT NULL = %v", d)
	}
	// Comparison with NULL is NULL.
	if d := mustEval(t, Bin(OpEq, Col("id"), Lit(types.NullDatum(types.Int64)))); !d.Null {
		t.Errorf("id = NULL should be NULL, got %v", d)
	}
}

func TestIsNull(t *testing.T) {
	if d := mustEval(t, &IsNull{E: Col("id")}); d.B {
		t.Error("id IS NULL should be false")
	}
	if d := mustEval(t, &IsNull{E: Col("id"), Negate: true}); !d.B {
		t.Error("id IS NOT NULL should be true")
	}
	if d := mustEval(t, &IsNull{E: Lit(types.NullDatum(types.Int64))}); !d.B {
		t.Error("NULL IS NULL should be true")
	}
}

func TestIn(t *testing.T) {
	in := &In{E: Col("id"), List: []Expr{IntLit(5), IntLit(7)}}
	if d := mustEval(t, in); !d.B {
		t.Error("7 IN (5,7) should be true")
	}
	notIn := &In{E: Col("id"), List: []Expr{IntLit(1)}, Negate: true}
	if d := mustEval(t, notIn); !d.B {
		t.Error("7 NOT IN (1) should be true")
	}
	// x IN (..., NULL) with no match is NULL.
	withNull := &In{E: Col("id"), List: []Expr{IntLit(1), Lit(types.NullDatum(types.Int64))}}
	if d := mustEval(t, withNull); !d.Null {
		t.Errorf("7 IN (1, NULL) = %v, want NULL", d)
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		pattern string
		want    bool
	}{
		{"widget", true}, {"wid%", true}, {"%get", true}, {"%dge%", true},
		{"w_dget", true}, {"gadget", false}, {"%x%", false}, {"", false}, {"%", true},
	}
	for _, c := range cases {
		d := mustEval(t, &Like{E: Col("name"), Pattern: c.pattern})
		if d.B != c.want {
			t.Errorf("'widget' LIKE %q = %v, want %v", c.pattern, d.B, c.want)
		}
	}
	neg := mustEval(t, &Like{E: Col("name"), Pattern: "z%", Negate: true})
	if !neg.B {
		t.Error("NOT LIKE should negate")
	}
}

func TestCase(t *testing.T) {
	c := &Case{
		Whens: []When{
			{Cond: Bin(OpGt, Col("id"), IntLit(10)), Then: StrLit("big")},
			{Cond: Bin(OpGt, Col("id"), IntLit(5)), Then: StrLit("mid")},
		},
		Else: StrLit("small"),
	}
	if d := mustEval(t, c); d.S != "mid" {
		t.Errorf("case = %v", d)
	}
	noElse := &Case{Whens: []When{{Cond: Lit(types.NewBool(false)), Then: IntLit(1)}}}
	if d := mustEval(t, noElse); !d.Null {
		t.Errorf("case with no match and no else = %v, want NULL", d)
	}
}

func TestFunctions(t *testing.T) {
	if d := mustEval(t, &Func{Name: "ABS", Args: []Expr{Bin(OpSub, IntLit(0), Col("id"))}}); d.I != 7 {
		t.Errorf("abs(-7) = %v", d)
	}
	if d := mustEval(t, &Func{Name: "LENGTH", Args: []Expr{Col("name")}}); d.I != 6 {
		t.Errorf("length = %v", d)
	}
	if d := mustEval(t, &Func{Name: "UPPER", Args: []Expr{Col("name")}}); d.S != "WIDGET" {
		t.Errorf("upper = %v", d)
	}
	if d := mustEval(t, &Func{Name: "SUBSTR", Args: []Expr{Col("name"), IntLit(2), IntLit(3)}}); d.S != "idg" {
		t.Errorf("substr = %v", d)
	}
	if d := mustEval(t, &Func{Name: "COALESCE", Args: []Expr{Lit(types.NullDatum(types.Int64)), IntLit(4)}}); d.I != 4 {
		t.Errorf("coalesce = %v", d)
	}
	h := mustEval(t, &Func{Name: "HASH", Args: []Expr{Col("id"), Col("name")}})
	if h.Null {
		t.Error("hash should not be null")
	}
}

func TestExtract(t *testing.T) {
	// sold = 2018-06-10.
	y := mustEval(t, &Func{Name: "EXTRACT", Args: []Expr{StrLit("year"), Col("sold")}})
	m := mustEval(t, &Func{Name: "EXTRACT", Args: []Expr{StrLit("month"), Col("sold")}})
	d := mustEval(t, &Func{Name: "EXTRACT", Args: []Expr{StrLit("day"), Col("sold")}})
	if y.I != 2018 || m.I != 6 || d.I != 10 {
		t.Errorf("extract = %v-%v-%v", y.I, m.I, d.I)
	}
	if v := mustEval(t, &Func{Name: "YEAR", Args: []Expr{Col("sold")}}); v.I != 2018 {
		t.Errorf("YEAR() = %v", v)
	}
}

func TestStrictFunctionsNullPropagate(t *testing.T) {
	d := mustEval(t, &Func{Name: "UPPER", Args: []Expr{Lit(types.NullDatum(types.Varchar))}})
	if !d.Null {
		t.Error("UPPER(NULL) should be NULL")
	}
}

func TestAndHelper(t *testing.T) {
	if And() != nil {
		t.Error("And() of nothing is nil")
	}
	e := And(nil, Bin(OpGt, Col("id"), IntLit(1)), nil, Bin(OpLt, Col("id"), IntLit(10)))
	d := mustEval(t, e)
	if !d.B {
		t.Errorf("1 < 7 < 10 = %v", d)
	}
}

func TestColumnsAndNames(t *testing.T) {
	e := And(Bin(OpGt, Col("id"), IntLit(1)), Bin(OpEq, Col("name"), StrLit("x")))
	if err := Bind(e, testSchema); err != nil {
		t.Fatal(err)
	}
	cols := Columns(e)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 {
		t.Errorf("columns = %v", cols)
	}
	names := ColumnNames(e)
	if len(names) != 2 || names[0] != "id" || names[1] != "name" {
		t.Errorf("names = %v", names)
	}
}

func TestFilterBatch(t *testing.T) {
	b := types.BatchFromRows(testSchema[:1], []types.Row{
		{types.NewInt(1)}, {types.NewInt(5)}, {types.NullDatum(types.Int64)}, {types.NewInt(9)},
	})
	e := Bin(OpGt, Col("id"), IntLit(2))
	if err := Bind(e, testSchema[:1]); err != nil {
		t.Fatal(err)
	}
	sel, err := FilterBatch(e, b)
	if err != nil {
		t.Fatal(err)
	}
	// NULL > 2 is NULL, excluded.
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 3 {
		t.Errorf("sel = %v", sel)
	}
}

func TestEvalBatch(t *testing.T) {
	b := types.BatchFromRows(testSchema[:1], []types.Row{{types.NewInt(2)}, {types.NewInt(3)}})
	e := Bin(OpMul, Col("id"), IntLit(10))
	if err := Bind(e, testSchema[:1]); err != nil {
		t.Fatal(err)
	}
	v, err := EvalBatch(e, b)
	if err != nil || v.Ints[0] != 20 || v.Ints[1] != 30 {
		t.Errorf("evalbatch = %v, %v", v.Ints, err)
	}
}

// --- pruning analysis ---

func statsFor(m map[int]ColumnStats) StatsFunc {
	return func(col int) (ColumnStats, bool) {
		st, ok := m[col]
		return st, ok
	}
}

func bindPred(t *testing.T, e Expr) Expr {
	t.Helper()
	if err := Bind(e, testSchema); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCouldMatchComparison(t *testing.T) {
	stats := statsFor(map[int]ColumnStats{
		0: {Min: types.NewInt(10), Max: types.NewInt(20)},
	})
	cases := []struct {
		e    Expr
		want bool
	}{
		{Bin(OpEq, Col("id"), IntLit(15)), true},
		{Bin(OpEq, Col("id"), IntLit(5)), false},
		{Bin(OpEq, Col("id"), IntLit(25)), false},
		{Bin(OpLt, Col("id"), IntLit(10)), false},
		{Bin(OpLt, Col("id"), IntLit(11)), true},
		{Bin(OpLe, Col("id"), IntLit(10)), true},
		{Bin(OpGt, Col("id"), IntLit(20)), false},
		{Bin(OpGe, Col("id"), IntLit(20)), true},
		// Literal on the left flips the operator.
		{Bin(OpGt, IntLit(25), Col("id")), true},
		{Bin(OpLt, IntLit(25), Col("id")), false},
	}
	for _, c := range cases {
		e := bindPred(t, c.e)
		if got := CouldMatch(e, stats); got != c.want {
			t.Errorf("CouldMatch(%v) = %v, want %v", e, got, c.want)
		}
	}
}

func TestCouldMatchAndOr(t *testing.T) {
	stats := statsFor(map[int]ColumnStats{
		0: {Min: types.NewInt(10), Max: types.NewInt(20)},
	})
	impossible := Bin(OpGt, Col("id"), IntLit(100))
	possible := Bin(OpGt, Col("id"), IntLit(15))
	if CouldMatch(bindPred(t, Bin(OpAnd, impossible, possible)), stats) {
		t.Error("AND with impossible conjunct should prune")
	}
	if !CouldMatch(bindPred(t, Bin(OpOr, impossible, possible)), stats) {
		t.Error("OR with possible branch should not prune")
	}
	imp2 := Bin(OpLt, Col("id"), IntLit(0))
	if CouldMatch(bindPred(t, Bin(OpOr, impossible, imp2)), stats) {
		t.Error("OR of two impossible branches should prune")
	}
}

func TestCouldMatchUnknownColumnConservative(t *testing.T) {
	stats := statsFor(map[int]ColumnStats{})
	e := bindPred(t, Bin(OpEq, Col("id"), IntLit(5)))
	if !CouldMatch(e, stats) {
		t.Error("unknown stats must be conservative (true)")
	}
}

func TestCouldMatchNullSemantics(t *testing.T) {
	stats := statsFor(map[int]ColumnStats{
		0: {AllNull: true},
	})
	if CouldMatch(bindPred(t, Bin(OpEq, Col("id"), IntLit(5))), stats) {
		t.Error("all-NULL column can never satisfy a comparison")
	}
	if !CouldMatch(bindPred(t, &IsNull{E: Col("id")}), stats) {
		t.Error("IS NULL on all-null column should match")
	}
	if CouldMatch(bindPred(t, &IsNull{E: Col("id"), Negate: true}), stats) {
		t.Error("IS NOT NULL on all-null column should prune")
	}
}

func TestCouldMatchIn(t *testing.T) {
	stats := statsFor(map[int]ColumnStats{
		0: {Min: types.NewInt(10), Max: types.NewInt(20)},
	})
	if CouldMatch(bindPred(t, &In{E: Col("id"), List: []Expr{IntLit(1), IntLit(2)}}), stats) {
		t.Error("IN with all members out of range should prune")
	}
	if !CouldMatch(bindPred(t, &In{E: Col("id"), List: []Expr{IntLit(1), IntLit(15)}}), stats) {
		t.Error("IN with a member in range should not prune")
	}
}

func TestCouldMatchNonAnalyzableIsConservative(t *testing.T) {
	stats := statsFor(map[int]ColumnStats{
		0: {Min: types.NewInt(10), Max: types.NewInt(20)},
	})
	// Column-to-column comparison: not analyzable.
	e := bindPred(t, Bin(OpEq, Col("id"), Col("id")))
	if !CouldMatch(e, stats) {
		t.Error("col=col should be conservative")
	}
}

func TestExprString(t *testing.T) {
	e := Bin(OpAnd, Bin(OpGt, Col("id"), IntLit(1)), &Like{E: Col("name"), Pattern: "w%"})
	s := e.String()
	if s == "" {
		t.Error("string rendering empty")
	}
}

func TestRangeFraction(t *testing.T) {
	stats := statsFor(map[int]ColumnStats{
		0: {Min: types.NewInt(0), Max: types.NewInt(99)},          // id: 100 whole values
		1: {Min: types.NewFloat(10), Max: types.NewFloat(20)},     // price
		2: {Min: types.NewString("a"), Max: types.NewString("z")}, // name
		4: {Min: types.NewDate(1000), Max: types.NewDate(1099)},   // sold: 100 days
	})
	point := statsFor(map[int]ColumnStats{
		0: {Min: types.NewInt(7), Max: types.NewInt(7)},
		1: {Min: types.NewFloat(2.5), Max: types.NewFloat(2.5)},
	})
	allNull := statsFor(map[int]ColumnStats{0: {AllNull: true}})
	between := func(col string, lo, hi Expr) Expr {
		return Bin(OpAnd, Bin(OpGe, Col(col), lo), Bin(OpLe, Col(col), hi))
	}
	date := func(d int64) Expr { return Lit(types.NewDate(d)) }
	cases := []struct {
		name  string
		e     Expr
		stats StatsFunc
		want  float64
	}{
		{"int >", Bin(OpGt, Col("id"), IntLit(49)), stats, 0.5},
		{"int >=", Bin(OpGe, Col("id"), IntLit(49)), stats, 0.51},
		{"int <", Bin(OpLt, Col("id"), IntLit(10)), stats, 0.1},
		{"int <= literal first", Bin(OpGe, IntLit(9), Col("id")), stats, 0.1},
		{"int two-sided", Bin(OpAnd, Bin(OpGe, Col("id"), IntLit(10)), Bin(OpLt, Col("id"), IntLit(30))), stats, 0.2},
		{"int between", between("id", IntLit(10), IntLit(29)), stats, 0.2},
		{"int =", Bin(OpEq, Col("id"), IntLit(5)), stats, 0.01},
		{"int range past max", Bin(OpGt, Col("id"), IntLit(-50)), stats, 1},
		{"int outside", Bin(OpGt, Col("id"), IntLit(200)), stats, 0},
		{"int float bound", Bin(OpLt, Col("id"), FloatLit(9.5)), stats, 0.1},
		{"int contradictory", Bin(OpAnd, Bin(OpGt, Col("id"), IntLit(50)), Bin(OpLt, Col("id"), IntLit(40))), stats, 0},
		{"int contradictory strict", Bin(OpAnd, Bin(OpGt, Col("id"), IntLit(5)), Bin(OpLt, Col("id"), IntLit(6))), stats, 0},
		{"int min = max, in", Bin(OpEq, Col("id"), IntLit(7)), point, 1},
		{"int min = max, out", Bin(OpGt, Col("id"), IntLit(7)), point, 0},
		{"float >", Bin(OpGt, Col("price"), FloatLit(15)), stats, 0.5},
		{"float between", between("price", FloatLit(12), FloatLit(14)), stats, 0.2},
		{"float int literal", Bin(OpLe, Col("price"), IntLit(11)), stats, 0.1},
		{"float contradictory", Bin(OpAnd, Bin(OpGt, Col("price"), FloatLit(15)), Bin(OpLt, Col("price"), FloatLit(12))), stats, 0},
		{"float min = max, in", Bin(OpGe, Col("price"), FloatLit(2.5)), point, 1},
		{"float min = max, out", Bin(OpLt, Col("price"), FloatLit(2.5)), point, 0},
		{"date window", Bin(OpAnd, Bin(OpGe, Col("sold"), date(1010)), Bin(OpLt, Col("sold"), date(1035))), stats, 0.25},
		{"date =", Bin(OpEq, Col("sold"), date(1050)), stats, 0.01},
		{"two columns multiply", Bin(OpAnd, Bin(OpGt, Col("id"), IntLit(49)), Bin(OpGe, Col("sold"), date(1090))), stats, 0.05},
		{"NULL literal", Bin(OpGt, Col("id"), Lit(types.NullDatum(types.Int64))), stats, 0},
		{"all-NULL column", Bin(OpGt, Col("id"), IntLit(3)), allNull, 0},
		{"no stats", Bin(OpGt, Col("price"), FloatLit(15)), allNull, 1},
		{"varchar", Bin(OpLt, Col("name"), StrLit("m")), stats, 1},
		{"<>", Bin(OpNe, Col("id"), IntLit(5)), stats, 1},
		{"OR", Bin(OpOr, Bin(OpLt, Col("id"), IntLit(10)), Bin(OpGt, Col("id"), IntLit(89))), stats, 1},
		{"IN", &In{E: Col("id"), List: []Expr{IntLit(1), IntLit(2)}}, stats, 1},
		{"LIKE", &Like{E: Col("name"), Pattern: "a%"}, stats, 1},
		{"LIKE and a range", Bin(OpAnd, &Like{E: Col("name"), Pattern: "a%"}, Bin(OpLt, Col("id"), IntLit(10))), stats, 0.1},
	}
	for _, c := range cases {
		got := RangeFraction(bindPred(t, c.e), c.stats)
		if got < 0 || got > 1 {
			t.Errorf("%s: RangeFraction = %v, outside [0, 1]", c.name, got)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: RangeFraction(%v) = %v, want %v", c.name, c.e, got, c.want)
		}
	}
}
