package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eon/internal/expr"
	"eon/internal/types"
)

// The groupjoin tests join a diffOpSchema input (k, v, s, d) to a second
// one whose columns are renamed (k2, v2, s2, d2), so expressions over the
// join's rows bind by name to either side.
var (
	gjSecondSchema = types.Schema{{Name: "k2", Type: types.Int64}, {Name: "v2", Type: types.Float64}, {Name: "s2", Type: types.Varchar}, {Name: "d2", Type: types.Date}}
	gjSchema       = append(append(types.Schema{}, diffOpSchema...), gjSecondSchema...)
)

// gjCase is an aggregate over a join of first and second on k = k2,
// through one Filter per pred. Column names without their side suffix
// are resolved against the side they name: b(x) on the build side, p(x)
// on the probe side.
type gjCase struct {
	name          string
	first, second []*types.Batch
	build         int
	keys          []string // build-side columns, unsuffixed
	preds         int      // 0, 1 or 2 filters over the pairs
	partial       bool
	exchanged     bool // the probe side is marked Exchanged
}

// sideName returns column x of side (0: first, 1: second).
func sideName(x string, side int) string {
	if side == 1 {
		return x + "2"
	}
	return x
}

// gjAggs is every aggregate kind, over the probe side, the build side and
// both (the mixed SUM and the AVG merge gather their pairs' columns).
func gjAggs(t *testing.T, build int) []AggDef {
	b := func(x string) expr.Expr { return mustBind(t, expr.Col(sideName(x, build)), gjSchema) }
	p := func(x string) expr.Expr { return mustBind(t, expr.Col(sideName(x, 1-build)), gjSchema) }
	return []AggDef{
		{Kind: AggCountStar, Name: "n"},
		{Kind: AggCount, Arg: p("v"), Name: "cntv"},
		{Kind: AggSum, Arg: p("v"), Name: "sumv"},
		{Kind: AggSum, Arg: p("k"), Name: "sumk"},
		{Kind: AggAvg, Arg: p("v"), Name: "avgv"},
		{Kind: AggMin, Arg: b("d"), Name: "mind"},
		{Kind: AggMax, Arg: p("s"), Name: "maxs"},
		{Kind: AggSum, Arg: mustBind(t, expr.Bin(expr.OpMul, expr.Col(sideName("v", 1-build)), expr.Col(sideName("v", build))), gjSchema), Name: "mixed"},
		{Kind: AggCountMerge, Arg: p("k"), Name: "cm"},
		{Kind: AggAvgMerge, Arg: b("v"), ArgCount: p("k"), Name: "am"},
		{Kind: AggSum, Arg: mustBind(t, expr.Lit(types.NewInt(1)), gjSchema), Name: "one"},
		{Kind: AggAvg, Arg: mustBind(t, expr.Lit(types.NewFloat(2.5)), gjSchema), Name: "lit"},
	}
}

// rowCounter counts the rows it passes, or is told of (a Counter).
type rowCounter struct {
	Operator
	rows int64
}

func (c *rowCounter) Next() (*types.Batch, error) {
	b, err := c.Operator.Next()
	if b != nil {
		c.rows += int64(b.NumRows())
	}
	return b, err
}

func (c *rowCounter) Counted() Operator { return c.Operator }
func (c *rowCounter) Count(n int64)     { c.rows += n }

// gjPipeline builds c as HashAggregate over (Filters over) HashJoin on
// eng, a rowCounter over the join and over each filter, fused into a
// GroupJoin if fuse is set (it must fuse), and returns it with the probe
// input and the counters, innermost first.
func gjPipeline(t *testing.T, c gjCase, eng Engine, fuse bool, src func(types.Schema, ...*types.Batch) Operator) (Operator, *countingOp, []*rowCounter) {
	t.Helper()
	in := [2]Operator{src(diffOpSchema, c.first...), src(gjSecondSchema, c.second...)}
	probe := &countingOp{Operator: in[1-c.build]}
	in[1-c.build] = probe
	j := NewHashJoin(in[0], in[1], []int{0}, []int{0})
	j.Eng, j.Build = eng, c.build
	j.Exchanged[1-c.build] = c.exchanged
	var counters []*rowCounter
	count := func(op Operator) Operator {
		counters = append(counters, &rowCounter{Operator: op})
		return counters[len(counters)-1]
	}
	op := count(j)
	preds := []expr.Expr{
		expr.Bin(expr.OpGt, expr.Col("v"), expr.Col("v2")),
		&expr.IsNull{E: expr.Col(sideName("s", c.build)), Negate: true},
	}
	for _, p := range preds[:c.preds] {
		f := NewFilter(op, mustBind(t, p, gjSchema))
		f.Eng = eng
		op = count(f)
	}
	var keys []expr.Expr
	for _, k := range c.keys {
		keys = append(keys, mustBind(t, expr.Col(sideName(k, c.build)), gjSchema))
	}
	h := NewHashAggregate(op, keys, c.keys, gjAggs(t, c.build), c.partial)
	h.Eng = eng
	if !fuse {
		return h, probe, counters
	}
	g := NewGroupJoin(h, op)
	if g == nil {
		t.Fatalf("%s: did not fuse", c.name)
	}
	return g, probe, counters
}

// sameBits fails unless got is want bit for bit: types, NULLs, and
// values, floats by their bits (NaN payloads and the sign of zero).
func sameBits(t *testing.T, label string, want, got *types.Batch) {
	t.Helper()
	batchesEqual(t, label, want, got)
	for c, wv := range want.Cols {
		gv := got.Cols[c]
		for i := range wv.Len() {
			if wv.Typ.Physical() == types.Float64 && !wv.IsNull(i) && math.Float64bits(wv.Floats[i]) != math.Float64bits(gv.Floats[i]) {
				t.Fatalf("%s: col %d row %d: %v (bits %x), want bits %x", label, c, i, gv.Floats[i], math.Float64bits(gv.Floats[i]), math.Float64bits(wv.Floats[i]))
			}
		}
	}
}

// checkGroupJoin runs c fused, over lending sources with a poisoning free
// list and over plain ones without a list, and checks both against the
// unfused pipeline on the vectorized engine, bit for bit, and on the row
// engine, the rows its counters were told of included. It returns the
// fused output and whether the probe side was read to its end.
func checkGroupJoin(t *testing.T, c gjCase) (*types.Batch, bool) {
	t.Helper()
	plain := func(s types.Schema, b ...*types.Batch) Operator { return NewSource(s, b...) }
	lending := func(s types.Schema, b ...*types.Batch) Operator { return lend(s, b...) }
	var wantRows string
	run := func(label string, eng Engine, fuse bool, src func(types.Schema, ...*types.Batch) Operator) (*types.Batch, *countingOp) {
		t.Helper()
		op, probe, counters := gjPipeline(t, c, eng, fuse, src)
		out, err := Collect(op)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rows := fmt.Sprint(counters[0].rows)
		for _, r := range counters[1:] {
			rows += fmt.Sprint(" ", r.rows)
		}
		if wantRows == "" {
			wantRows = rows
		} else if rows != wantRows {
			t.Errorf("%s (%s): counted rows %s, want %s", c.name, label, rows, wantRows)
		}
		return out, probe
	}
	want, _ := run("unfused", Engine{}, false, plain)
	ref, _ := run("row engine", Engine{Row: true}, false, plain)
	batchesEqual(t, c.name+" (row engine)", ref, want)
	got, _ := run("fused, no list", Engine{}, true, plain)
	sameBits(t, c.name+" (fused, no list)", want, got)
	got, probe := run("fused, poisoning list", Engine{Free: NewFreeList(1)}, true, lending)
	sameBits(t, c.name+" (fused, poisoning list)", want, got)
	return got, probe.exhausted
}

// withNulls returns a copy of b with column c all NULL.
func withNulls(b *types.Batch, c int) *types.Batch {
	out := types.NewBatch(diffOpSchema, b.NumRows())
	out.AppendBatch(b)
	out.Cols[c].Nulls = make([]bool, b.NumRows())
	for i := range out.Cols[c].Nulls {
		out.Cols[c].Nulls[i] = true
	}
	return out
}

// TestGroupJoinMatchesJoinThenAggregate: random joins with repeated and
// NULL keys on both sides, every aggregate kind (literal arguments among
// them, beside ones reading columns), zero to two filters over
// the pairs, either side building, grouped by nothing or by build-side
// columns of every class (floats with -0, +0 and NaNs among them).
func TestGroupJoinMatchesJoinThenAggregate(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	keySets := [][]string{nil, {"s"}, {"k", "d"}, {"v"}}
	for iter := range 64 {
		nullProb := []float64{0, 0.2}[r.Intn(2)]
		side := func(n int) []*types.Batch {
			return []*types.Batch{randOpBatch(r, r.Intn(n), nullProb), trickyOpBatch(r, r.Intn(n/2)), randOpBatch(r, r.Intn(n), nullProb)}
		}
		c := gjCase{first: side(30), second: side(80), build: iter % 2, keys: keySets[iter/2%len(keySets)], preds: iter / 8 % 3, partial: iter%5 == 0}
		if c.build == 1 {
			c.first, c.second = c.second, c.first
		}
		c.name = fmt.Sprintf("iter %d build=%d keys=%v preds=%d partial=%v", iter, c.build, c.keys, c.preds, c.partial)
		checkGroupJoin(t, c)
	}
}

// TestGroupJoinEdgeCases pins the cases join-then-aggregate gets right by
// construction: NULL group keys are one group, NULL join keys never
// match, duplicate build keys fold every pair, a probe batch whose every
// row matches once is read in place, empty inputs give no group
// (a global aggregate still its one row, COUNT 0), and an exchanged probe
// side is read to its end even when the build side is empty.
func TestGroupJoinEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	rows := randOpBatch(r, 60, 0)
	dup := types.NewBatch(diffOpSchema, 0)
	for range 3 {
		dup.AppendBatch(rows.Slice(0, 10))
	}
	empty := types.NewBatch(diffOpSchema, 0)
	unique := randOpBatch(r, 12, 0) // k = 0..11: every probe row of rows matches once
	for i := range unique.Cols[0].Ints {
		unique.Cols[0].Ints[i] = int64(i)
	}
	for _, tc := range []struct {
		c          gjCase
		wantRows   int // -1: any
		wantCount0 bool
	}{
		{gjCase{name: "NULL group keys", first: []*types.Batch{withNulls(rows, 2)}, second: []*types.Batch{rows}, keys: []string{"s"}}, 1, false},
		{gjCase{name: "NULL group keys, second builds", first: []*types.Batch{rows}, second: []*types.Batch{withNulls(rows, 2)}, build: 1, keys: []string{"s"}, preds: 1}, 1, false},
		{gjCase{name: "NULL join keys never match", first: []*types.Batch{withNulls(rows, 0)}, second: []*types.Batch{rows}, keys: []string{"s"}}, 0, false},
		{gjCase{name: "NULL join keys, global", first: []*types.Batch{rows}, second: []*types.Batch{withNulls(rows, 0)}, build: 1}, 1, true},
		{gjCase{name: "duplicate build keys", first: []*types.Batch{dup}, second: []*types.Batch{rows, rows}, keys: []string{"k"}}, -1, false},
		{gjCase{name: "duplicate build keys, second builds", first: []*types.Batch{rows}, second: []*types.Batch{dup, dup}, build: 1, keys: []string{"s", "k"}, preds: 2, partial: true}, -1, false},
		{gjCase{name: "every probe row matches once", first: []*types.Batch{unique}, second: []*types.Batch{rows, rows}, keys: []string{"s"}}, -1, false},
		{gjCase{name: "every probe row matches once, global", first: []*types.Batch{rows}, second: []*types.Batch{unique}, build: 1, partial: true}, 1, false},
		{gjCase{name: "empty build side", first: []*types.Batch{empty}, second: []*types.Batch{rows}, keys: []string{"k"}}, 0, false},
		{gjCase{name: "empty probe side", first: []*types.Batch{rows}, second: nil, keys: []string{"k"}}, 0, false},
		{gjCase{name: "global over an empty join", first: []*types.Batch{rows}, second: nil, build: 0, partial: true}, 1, true},
		{gjCase{name: "global over an empty build side", first: nil, second: []*types.Batch{rows}, build: 0}, 1, true},
		{gjCase{name: "exchanged probe, empty build", first: nil, second: []*types.Batch{rows, rows}, keys: []string{"s"}, exchanged: true}, 0, false},
		{gjCase{name: "exchanged probe (first), empty build", first: []*types.Batch{rows}, second: nil, build: 1, exchanged: true}, 1, true},
	} {
		got, drained := checkGroupJoin(t, tc.c)
		if tc.wantRows >= 0 && got.NumRows() != tc.wantRows {
			t.Errorf("%s: %d groups, want %d", tc.c.name, got.NumRows(), tc.wantRows)
		}
		if tc.wantCount0 && (got.NumRows() != 1 || got.Cols[0].Ints[0] != 0) {
			t.Errorf("%s: want one row with COUNT(*) = 0, got %d rows", tc.c.name, got.NumRows())
		}
		if tc.c.exchanged && !drained {
			t.Errorf("%s: the exchanged probe side was not read to its end", tc.c.name)
		}
	}
}

// TestGroupJoinFusesOnlyBuildSideKeys: a key over a probe-side column, a
// row-engine aggregate, a governed one (which may spill), an input other
// than a join and a filter that reads no column stay unfused.
func TestGroupJoinFusesOnlyBuildSideKeys(t *testing.T) {
	j := NewHashJoin(NewSource(diffOpSchema), NewSource(gjSecondSchema), []int{0}, []int{0})
	agg := func(key string) *HashAggregate {
		return NewHashAggregate(j, []expr.Expr{mustBind(t, expr.Col(key), gjSchema)}, []string{key}, []AggDef{{Kind: AggCountStar, Name: "n"}}, false)
	}
	if NewGroupJoin(agg("s"), j) == nil {
		t.Fatal("a key on the build side did not fuse")
	}
	if NewGroupJoin(agg("s2"), j) != nil {
		t.Error("a key on the probe side fused")
	}
	row := agg("s")
	row.Eng.Row = true
	if NewGroupJoin(row, j) != nil {
		t.Error("a row-engine aggregate fused")
	}
	governed := agg("s")
	governed.Mem = NewMemGovernor(1<<20, nil)
	if NewGroupJoin(governed, j) != nil {
		t.Error("an aggregate with a finite budget fused")
	}
	if NewGroupJoin(agg("s"), NewSource(gjSchema)) != nil {
		t.Error("an aggregate over a source fused")
	}
	// An ON residual may read no column (ON k = k2 AND 1 = 1): over pairs
	// with no column gathered it would see no rows, so it stays unfused.
	constant := NewFilter(j, mustBind(t, expr.Bin(expr.OpEq, expr.Lit(types.NewInt(1)), expr.Lit(types.NewInt(1))), gjSchema))
	if NewGroupJoin(agg("s"), constant) != nil {
		t.Error("an aggregate over a filter that reads no column fused")
	}
	// So does an aggregate whose arguments read no column, grouped or
	// not: SUM(1) ... GROUP BY s, AVG(2.5).
	one := NewHashAggregate(j, []expr.Expr{mustBind(t, expr.Col("s"), gjSchema)}, []string{"s"}, []AggDef{{Kind: AggSum, Arg: mustBind(t, expr.Lit(types.NewInt(1)), gjSchema), Name: "one"}}, false)
	if NewGroupJoin(one, j) != nil {
		t.Error("SUM(1) grouped by a build-side column fused")
	}
	avg := NewHashAggregate(j, nil, nil, []AggDef{{Kind: AggAvg, Arg: mustBind(t, expr.Lit(types.NewFloat(2.5)), gjSchema), Name: "lit"}}, false)
	if NewGroupJoin(avg, j) != nil {
		t.Error("a global AVG(2.5) fused")
	}
}
