package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"eon/internal/expr"
	"eon/internal/types"
)

// Operator-level differential tests: every operator run on the
// vectorized engine must produce byte-identical output (values, NULLs,
// row order) to the row engine. Output orders are deterministic in both
// engines — filters/joins preserve stream order and aggregates emit
// groups in first-seen order — so outputs are compared positionally.

var diffOpSchema = types.Schema{
	{Name: "k", Type: types.Int64},
	{Name: "v", Type: types.Float64},
	{Name: "s", Type: types.Varchar},
	{Name: "d", Type: types.Date},
}

func randOpBatch(r *rand.Rand, n int, nullProb float64) *types.Batch {
	b := types.NewBatch(diffOpSchema, n)
	words := []string{"STEEL", "small steel box", "Brand#12", "Brand#22", "x", ""}
	for i := 0; i < n; i++ {
		row := make(types.Row, len(diffOpSchema))
		for c, col := range diffOpSchema {
			if r.Float64() < nullProb {
				row[c] = types.NullDatum(col.Type)
				continue
			}
			switch col.Type {
			case types.Int64:
				row[c] = types.NewInt(int64(r.Intn(12)))
			case types.Float64:
				row[c] = types.NewFloat(float64(r.Intn(200)) / 8)
			case types.Varchar:
				row[c] = types.NewString(words[r.Intn(len(words))])
			case types.Date:
				row[c] = types.NewDate(int64(10000 + r.Intn(400)))
			}
		}
		b.AppendRow(row)
	}
	return b
}

// trickyOpBatch is a diffOpSchema batch over the values hash equality
// gets wrong first (NULL vs "", +0.0 vs -0.0, NaN bit patterns), with
// few enough distinct values that keys repeat.
func trickyOpBatch(r *rand.Rand, n int) *types.Batch {
	b := &types.Batch{}
	for _, col := range diffOpSchema {
		b.Cols = append(b.Cols, trickyVector(r, col.Type, n, 5, 0.2))
	}
	return b
}

func mustBind(t *testing.T, e expr.Expr, s types.Schema) expr.Expr {
	t.Helper()
	if err := expr.Bind(e, s); err != nil {
		t.Fatalf("bind: %v", err)
	}
	return e
}

func batchesEqual(t *testing.T, label string, want, got *types.Batch) {
	t.Helper()
	if want.NumCols() != got.NumCols() {
		t.Fatalf("%s: %d cols vs %d", label, got.NumCols(), want.NumCols())
	}
	if want.NumRows() != got.NumRows() {
		t.Fatalf("%s: %d rows vs %d (row engine)", label, got.NumRows(), want.NumRows())
	}
	for c := 0; c < want.NumCols(); c++ {
		wv, gv := want.Cols[c], got.Cols[c]
		if wv.Typ != gv.Typ {
			t.Fatalf("%s: col %d type %v vs %v", label, c, gv.Typ, wv.Typ)
		}
		for i := 0; i < wv.Len(); i++ {
			wd, gd := wv.Datum(i), gv.Datum(i)
			if wd.Null != gd.Null || (!wd.Null && wd.Compare(gd) != 0) {
				t.Fatalf("%s: col %d row %d: vec=%v row=%v", label, c, i, gd, wd)
			}
		}
	}
}

// runBoth builds the same operator tree twice (the constructor is
// called once per engine because operators are single-use), collects
// both, and compares.
func runBoth(t *testing.T, label string, build func(eng Engine) Operator) {
	t.Helper()
	stats := &expr.VecStats{}
	rowOut, errRow := Collect(build(Engine{Row: true}))
	vecOut, errVec := Collect(build(Engine{Stats: stats}))
	if (errRow == nil) != (errVec == nil) {
		t.Fatalf("%s: error mismatch row=%v vec=%v", label, errRow, errVec)
	}
	if errRow != nil {
		return
	}
	batchesEqual(t, label, rowOut, vecOut)
}

func randPred(r *rand.Rand) expr.Expr {
	preds := []func() expr.Expr{
		func() expr.Expr {
			return &expr.Binary{Op: expr.OpGt, L: &expr.ColumnRef{Name: "v"},
				R: &expr.Literal{Value: types.NewFloat(float64(r.Intn(20)))}}
		},
		func() expr.Expr {
			return &expr.Like{E: &expr.ColumnRef{Name: "s"}, Pattern: "%STEEL%", Negate: r.Intn(2) == 0}
		},
		func() expr.Expr {
			return &expr.In{E: &expr.ColumnRef{Name: "k"}, List: []expr.Expr{
				&expr.Literal{Value: types.NewInt(int64(r.Intn(6)))},
				&expr.Literal{Value: types.NewInt(int64(r.Intn(12)))},
			}}
		},
		func() expr.Expr {
			return &expr.Binary{Op: expr.OpAnd,
				L: &expr.Binary{Op: expr.OpGe, L: &expr.ColumnRef{Name: "k"},
					R: &expr.Literal{Value: types.NewInt(int64(r.Intn(6)))}},
				R: &expr.Binary{Op: expr.OpOr,
					L: &expr.IsNull{E: &expr.ColumnRef{Name: "v"}},
					R: &expr.Binary{Op: expr.OpLt, L: &expr.ColumnRef{Name: "v"},
						R: &expr.Literal{Value: types.NewFloat(18)}}}}
		},
	}
	return preds[r.Intn(len(preds))]()
}

func TestFilterProjectDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 120; iter++ {
		n := []int{0, 1, 7, 40, 130}[r.Intn(5)]
		nullProb := []float64{0, 0.2, 1}[r.Intn(3)]
		batches := []*types.Batch{
			randOpBatch(r, n, nullProb),
			randOpBatch(r, r.Intn(30), nullProb),
		}
		seed := r.Int63()
		label := fmt.Sprintf("iter %d n=%d null=%.1f", iter, n, nullProb)
		runBoth(t, label, func(eng Engine) Operator {
			pr := rand.New(rand.NewSource(seed))
			pred := mustBind(t, randPred(pr), diffOpSchema)
			proj := []expr.Expr{
				mustBind(t, &expr.Binary{Op: expr.OpMul, L: &expr.ColumnRef{Name: "v"},
					R: &expr.Binary{Op: expr.OpSub, L: &expr.Literal{Value: types.NewFloat(1)},
						R: &expr.ColumnRef{Name: "v"}}}, diffOpSchema),
				mustBind(t, &expr.ColumnRef{Name: "k"}, diffOpSchema),
				mustBind(t, &expr.Case{Whens: []expr.When{{
					Cond: mustBind(t, randPred(pr), diffOpSchema),
					Then: &expr.ColumnRef{Name: "v"}}},
					Else: &expr.Literal{Value: types.NewInt(0)}}, diffOpSchema),
			}
			src := NewSource(diffOpSchema, batches...)
			f := NewFilter(src, pred)
			f.Eng = eng
			p := NewProject(f, proj, []string{"e1", "e2", "e3"})
			p.Eng = eng
			return p
		})
	}
}

func TestHashAggregateDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	keySets := [][]expr.Expr{
		nil, // global aggregate
		{&expr.ColumnRef{Name: "k"}},
		{&expr.ColumnRef{Name: "s"}},
		{&expr.ColumnRef{Name: "k"}, &expr.ColumnRef{Name: "s"}},
		{&expr.ColumnRef{Name: "k"}, &expr.ColumnRef{Name: "d"}},
		{&expr.ColumnRef{Name: "v"}},
		{&expr.ColumnRef{Name: "s"}, &expr.ColumnRef{Name: "v"}, &expr.ColumnRef{Name: "k"}},
	}
	for iter := 0; iter < 140; iter++ {
		ks := keySets[iter%len(keySets)]
		n := []int{0, 1, 13, 90}[r.Intn(4)]
		nullProb := []float64{0, 0.25, 1}[r.Intn(3)]
		batches := []*types.Batch{randOpBatch(r, n, nullProb), randOpBatch(r, r.Intn(40), nullProb), trickyOpBatch(r, r.Intn(60))}
		partial := r.Intn(2) == 0
		label := fmt.Sprintf("iter %d keys=%d n=%d null=%.2f partial=%v", iter, len(ks), n, nullProb, partial)
		runBoth(t, label, func(eng Engine) Operator {
			var keys []expr.Expr
			var names []string
			for i, k := range ks {
				keys = append(keys, mustBind(t, expr.Clone(k), diffOpSchema))
				names = append(names, fmt.Sprintf("g%d", i))
			}
			aggs := []AggDef{
				{Kind: AggCountStar, Name: "cnt"},
				{Kind: AggCount, Arg: mustBind(t, &expr.ColumnRef{Name: "v"}, diffOpSchema), Name: "cntv"},
				{Kind: AggSum, Arg: mustBind(t, &expr.ColumnRef{Name: "v"}, diffOpSchema), Name: "sumv"},
				{Kind: AggSum, Arg: mustBind(t, &expr.ColumnRef{Name: "k"}, diffOpSchema), Name: "sumk"},
				{Kind: AggAvg, Arg: mustBind(t, &expr.ColumnRef{Name: "v"}, diffOpSchema), Name: "avgv"},
				{Kind: AggMin, Arg: mustBind(t, &expr.ColumnRef{Name: "d"}, diffOpSchema), Name: "mind"},
				{Kind: AggMax, Arg: mustBind(t, &expr.ColumnRef{Name: "s"}, diffOpSchema), Name: "maxs"},
			}
			agg := NewHashAggregate(NewSource(diffOpSchema, batches...), keys, names, aggs, partial)
			agg.Eng = eng
			return agg
		})
	}
}

func TestHashJoinDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	keySets := [][2][]int{
		{{0}, {0}},
		{{0, 2}, {0, 2}},
		{{1}, {1}},       // float keys: -0.0, +0.0 and NaNs
		{{2, 1}, {2, 1}}, // "" vs NULL, then floats
		{{0}, {1}},       // int against float: classes differ, nothing joins
	}
	for iter := 0; iter < 150; iter++ {
		nullProb := []float64{0, 0.2}[r.Intn(2)]
		// Either side may be the smaller one and either may build, and
		// both arrive in several batches, so both build directions are
		// exercised on both engines.
		side := func(max int) []*types.Batch {
			return []*types.Batch{randOpBatch(r, r.Intn(max), nullProb), trickyOpBatch(r, r.Intn(max/2)), randOpBatch(r, r.Intn(max/3), nullProb)}
		}
		first, second := side(40), side(60)
		if iter%3 == 0 {
			first, second = second, first
		}
		keys := keySets[iter%len(keySets)]
		label := fmt.Sprintf("iter %d keys=%v", iter, keys)
		runBoth(t, label, func(eng Engine) Operator {
			j := NewHashJoin(NewSource(diffOpSchema, first...), NewSource(diffOpSchema, second...), keys[0], keys[1])
			j.Eng, j.Build = eng, iter%2
			return j
		})
	}
}

func TestDistinctDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	oneCol := types.Schema{{Name: "k", Type: types.Int64}}
	for iter := 0; iter < 60; iter++ {
		nullProb := []float64{0, 0.3, 1}[r.Intn(3)]
		full := []*types.Batch{randOpBatch(r, r.Intn(50), nullProb), trickyOpBatch(r, r.Intn(80)), randOpBatch(r, r.Intn(50), nullProb)}
		// Single-column batches: the narrowest key the table takes.
		narrow := make([]*types.Batch, len(full))
		for i, b := range full {
			narrow[i] = &types.Batch{Cols: b.Cols[:1]}
		}
		label := fmt.Sprintf("iter %d null=%.1f", iter, nullProb)
		runBoth(t, label+" all-cols", func(eng Engine) Operator {
			d := NewDistinct(NewSource(diffOpSchema, full...))
			d.Eng = eng
			return d
		})
		runBoth(t, label+" int-col", func(eng Engine) Operator {
			d := NewDistinct(NewSource(oneCol, narrow...))
			d.Eng = eng
			return d
		})
	}
}

// TestFilterChainComposesSelections checks that stacked filters pass
// selection vectors through nextSel without gathering in between, and
// still match the row engine.
func TestFilterChainComposesSelections(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	batches := []*types.Batch{randOpBatch(r, 200, 0.15), randOpBatch(r, 77, 0.15)}
	runBoth(t, "filter chain", func(eng Engine) Operator {
		f1 := NewFilter(NewSource(diffOpSchema, batches...),
			mustBind(t, &expr.Binary{Op: expr.OpGt, L: &expr.ColumnRef{Name: "v"},
				R: &expr.Literal{Value: types.NewFloat(5)}}, diffOpSchema))
		f1.Eng = eng
		f2 := NewFilter(f1,
			mustBind(t, &expr.Like{E: &expr.ColumnRef{Name: "s"}, Pattern: "%a%"}, diffOpSchema))
		f2.Eng = eng
		f3 := NewFilter(f2,
			mustBind(t, &expr.Binary{Op: expr.OpLt, L: &expr.ColumnRef{Name: "k"},
				R: &expr.Literal{Value: types.NewInt(9)}}, diffOpSchema))
		f3.Eng = eng
		return f3
	})
}
