package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"eon/internal/expr"
	"eon/internal/obs"
	"eon/internal/types"
)

// trickyVector draws n values of type t from a domain of about `domain`
// distinct values that includes the cases hash equality gets wrong
// first: NULL, "" (not NULL), +0.0 and -0.0 (different keys), two NaN bit
// patterns (different keys, each equal to itself).
func trickyVector(r *rand.Rand, t types.Type, n, domain int, nullProb float64) *types.Vector {
	v := types.NewVector(t, n)
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	for i := 0; i < n; i++ {
		if r.Float64() < nullProb {
			v.Append(types.NullDatum(t))
			continue
		}
		k := r.Intn(domain)
		switch t.Physical() {
		case types.Int64:
			v.Append(types.Datum{K: t, I: int64(k) - 2})
		case types.Float64:
			f := float64(k) / 4
			switch k {
			case 0:
				f = math.Copysign(0, -1)
			case 1:
				f = 0
			case 2:
				f = math.NaN()
			case 3:
				f = nan2
			}
			v.Append(types.NewFloat(f))
		case types.Varchar:
			s := ""
			if k > 0 {
				s = fmt.Sprintf("s%d", k)
			}
			v.Append(types.NewString(s))
		case types.Bool:
			v.Append(types.NewBool(k%2 == 0))
		}
	}
	return v
}

func randSel(r *rand.Rand, n int) []int {
	if r.Intn(2) == 0 {
		return nil
	}
	sel := []int{}
	for i := 0; i < n; i++ {
		if r.Intn(3) > 0 {
			sel = append(sel, i)
		}
	}
	return sel
}

// TestKeyTableMatchesMapOracle drives insert and find with random
// multi-column keys and checks every id against a map keyed on rowKey,
// the encoding the row engine hashes. Some rounds force every key onto
// one hash so equality alone keeps keys apart.
func TestKeyTableMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	kinds := []types.Type{types.Int64, types.Float64, types.Varchar, types.Bool, types.Date}
	for iter := 0; iter < 150; iter++ {
		nCols := 1 + r.Intn(4)
		typs := make([]types.Type, nCols)
		allCols := make([]int, nCols)
		for c := range typs {
			typs[c] = kinds[r.Intn(len(kinds))]
			allCols[c] = c
		}
		domain := []int{2, 6, 40, 3000}[r.Intn(4)]
		nullProb := []float64{0, 0.1, 0.6}[r.Intn(3)]
		degenerate := iter%5 == 0
		gen := func(n int) []*types.Vector {
			cols := make([]*types.Vector, nCols)
			for c := range cols {
				cols[c] = trickyVector(r, typs[c], n, domain, nullProb)
			}
			return cols
		}
		hash := func(tab *keyTable, cols []*types.Vector, sel []int, m int) []uint64 {
			hs := tab.hash(cols, sel, m)
			if degenerate {
				for j := range hs {
					hs[j] = 7
				}
			}
			return hs
		}

		var tab keyTable
		oracle := map[string]int32{}
		var key []byte
		for batch := 0; batch < 6; batch++ {
			n := r.Intn(400)
			if degenerate {
				n = r.Intn(60)
			}
			cols := gen(n)
			sel := randSel(r, n)
			b := &types.Batch{Cols: cols}
			m := selLen(b, sel)
			ids := make([]int32, m)
			if next := tab.insert(hash(&tab, cols, sel, m), cols, sel, 0, ids, nil); next != m {
				t.Fatalf("iter %d: insert without admit stopped at %d of %d", iter, next, m)
			}
			for j := 0; j < m; j++ {
				key = rowKey(key, b, selRow(sel, j), allCols)
				want, ok := oracle[string(key)]
				if !ok {
					want = int32(len(oracle))
					oracle[string(key)] = want
				}
				if ids[j] != want {
					t.Fatalf("iter %d batch %d row %d (types %v, degenerate=%v): id %d, oracle %d",
						iter, batch, j, typs, degenerate, ids[j], want)
				}
			}
			if tab.len() != len(oracle) {
				t.Fatalf("iter %d: table holds %d keys, oracle %d", iter, tab.len(), len(oracle))
			}
		}

		// The stored keys re-encode to the oracle's keys, in id order.
		stored := &types.Batch{Cols: tab.cols}
		for id := 0; id < tab.len(); id++ {
			key = rowKey(key, stored, id, allCols)
			if got, ok := oracle[string(key)]; !ok || got != int32(id) {
				t.Fatalf("iter %d: stored key %d re-encodes to oracle id %d (present=%v)", iter, id, got, ok)
			}
		}

		// find: hits agree with the oracle, misses are -1, nothing is added.
		n := 200
		cols := gen(n)
		sel := randSel(r, n)
		b := &types.Batch{Cols: cols}
		m := selLen(b, sel)
		ids := make([]int32, m)
		tab.find(hash(&tab, cols, sel, m), cols, sel, ids)
		for j := 0; j < m; j++ {
			key = rowKey(key, b, selRow(sel, j), allCols)
			want, ok := oracle[string(key)]
			if !ok {
				want = -1
			}
			if ids[j] != want {
				t.Fatalf("iter %d find row %d: id %d, oracle %d", iter, j, ids[j], want)
			}
		}
		if tab.len() != len(oracle) {
			t.Fatalf("iter %d: find grew the table", iter)
		}
	}
}

// TestKeyTableGrowth crosses several doublings from the empty table and
// checks nothing is lost or renumbered on the way.
func TestKeyTableGrowth(t *testing.T) {
	var tab keyTable
	if len(tab.ids) != 0 {
		t.Fatal("a new table holds slots before it has seen a key")
	}
	const n = 5000
	v := types.NewVector(types.Int64, n)
	for i := 0; i < n; i++ {
		v.Append(types.NewInt(int64(i * 7919)))
	}
	cols := []*types.Vector{v}
	ids := make([]int32, n)
	sizes := map[int]bool{}
	for lo := 0; lo < n; lo += 100 {
		part := []*types.Vector{v.Slice(lo, lo+100)}
		tab.insert(tab.hash(part, nil, 100), part, nil, 0, ids[lo:lo+100], nil)
		sizes[len(tab.ids)] = true
		if max := (lo + 100) * 4; len(tab.ids) > max {
			t.Fatalf("%d slots after %d rows: sized beyond the rows seen", len(tab.ids), lo+100)
		}
	}
	if len(sizes) < 5 {
		t.Fatalf("only %d distinct table sizes over %d keys; expected several doublings", len(sizes), n)
	}
	tab.find(tab.hash(cols, nil, n), cols, nil, ids)
	for i, id := range ids {
		if id != int32(i) {
			t.Fatalf("key %d resolves to id %d after growth", i, id)
		}
	}
}

// TestKeyTableClassMismatchNeverMatches: a probe column of another
// physical class finds nothing, even where the bit patterns agree.
func TestKeyTableClassMismatchNeverMatches(t *testing.T) {
	var tab keyTable
	ints := types.NewVector(types.Int64, 3)
	floats := types.NewVector(types.Float64, 3)
	for i := 0; i < 3; i++ {
		ints.Append(types.NewInt(int64(i)))
		floats.Append(types.NewFloat(math.Float64frombits(uint64(i))))
	}
	ids := make([]int32, 3)
	tab.insert(tab.hash([]*types.Vector{ints}, nil, 3), []*types.Vector{ints}, nil, 0, ids, nil)
	tab.find(tab.hash([]*types.Vector{floats}, nil, 3), []*types.Vector{floats}, nil, ids)
	for j, id := range ids {
		if id != -1 {
			t.Fatalf("float row %d matched int key %d", j, id)
		}
	}
}

// TestKeyTableAdmitStopsAndResumes: a refused key stops the insert at
// its row; after a reset the same call resumes there with fresh ids.
func TestKeyTableAdmitStopsAndResumes(t *testing.T) {
	v := types.NewVector(types.Int64, 10)
	for _, x := range []int64{1, 2, 1, 3, 2, 4, 4, 5, 1, 6} {
		v.Append(types.NewInt(x))
	}
	cols := []*types.Vector{v}
	var tab keyTable
	ids := make([]int32, 10)
	hs := tab.hash(cols, nil, 10)
	admit := func(int) bool { return tab.len() < 3 }
	next := tab.insert(hs, cols, nil, 0, ids, admit)
	if next != 5 { // 1,2,(1),3,(2) fit; 4 is the fourth key
		t.Fatalf("insert stopped at %d, want 5", next)
	}
	if want := []int32{0, 1, 0, 2, 1}; fmt.Sprint(ids[:5]) != fmt.Sprint(want) {
		t.Fatalf("ids before the stop = %v, want %v", ids[:5], want)
	}
	tab.reset()
	next = tab.insert(hs, cols, nil, next, ids, admit)
	if next != 9 { // 4,(4),5,1 fit; 6 is the fourth key again
		t.Fatalf("resumed insert stopped at %d, want 9", next)
	}
	if want := []int32{0, 0, 1, 2}; fmt.Sprint(ids[5:9]) != fmt.Sprint(want) {
		t.Fatalf("ids after the reset = %v, want %v", ids[5:9], want)
	}
}

// steadyBatch is a 4096-row batch over 8 distinct (string, int) keys.
func steadyBatch() (types.Schema, *types.Batch) {
	schema := types.Schema{
		{Name: "s", Type: types.Varchar},
		{Name: "k", Type: types.Int64},
		{Name: "v", Type: types.Float64},
	}
	b := types.NewBatch(schema, 4096)
	for i := 0; i < 4096; i++ {
		b.AppendRow(types.Row{
			types.NewString(fmt.Sprintf("metric-%d", i%8)),
			types.NewInt(int64(i % 8)),
			types.NewFloat(float64(i)),
		})
	}
	return schema, b
}

// TestHashOperatorsSteadyStateAllocs pins the per-batch garbage of the
// hash operators once their tables hold every key: a batch that
// introduces no new key costs a number of allocations that depends on
// the column count, never on the row or match count.
func TestHashOperatorsSteadyStateAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	schema, b := steadyBatch()
	const batches = 40
	many := make([]*types.Batch, batches)
	for i := range many {
		many[i] = b
	}
	one := []*types.Batch{b}

	// perBatch measures what each batch beyond the first adds to a run.
	// It starts from a collected heap, so what an earlier measurement
	// left behind cannot move a collection into this one.
	perBatch := func(run func(in []*types.Batch)) float64 {
		runtime.GC()
		base := testing.AllocsPerRun(5, func() { run(one) })
		full := testing.AllocsPerRun(5, func() { run(many) })
		return (full - base) / (batches - 1)
	}

	agg := perBatch(func(in []*types.Batch) {
		keys := []expr.Expr{mustBind(t, expr.Col("s"), schema), mustBind(t, expr.Col("k"), schema)}
		aggs := []AggDef{{Kind: AggSum, Arg: mustBind(t, expr.Col("v"), schema), Name: "x"}, {Kind: AggCountStar, Name: "n"}}
		op := NewHashAggregate(NewSource(schema, in...), keys, []string{"s", "k"}, aggs, false)
		if _, err := Collect(op); err != nil {
			t.Fatal(err)
		}
	})
	if agg > 1 {
		t.Errorf("aggregating a batch with no new group allocates %.1f times, want <= 1", agg)
	}

	// A computed argument, SUM(v * (1 - v)), evaluates into the
	// operator's arena, not into new vectors per batch.
	computed := perBatch(func(in []*types.Batch) {
		keys := []expr.Expr{mustBind(t, expr.Col("s"), schema)}
		arg := expr.Bin(expr.OpMul, expr.Col("v"), expr.Bin(expr.OpSub, expr.Lit(types.NewFloat(1)), expr.Col("v")))
		aggs := []AggDef{{Kind: AggSum, Arg: mustBind(t, arg, schema), Name: "x"}}
		op := NewHashAggregate(NewSource(schema, in...), keys, []string{"s"}, aggs, false)
		if _, err := Collect(op); err != nil {
			t.Fatal(err)
		}
	})
	if computed > 1 {
		t.Errorf("aggregating a computed argument allocates %.1f times per batch, want <= 1", computed)
	}

	distinct := perBatch(func(in []*types.Batch) {
		narrow := make([]*types.Batch, len(in))
		for i, b := range in {
			narrow[i] = &types.Batch{Cols: b.Cols[:2]}
		}
		if _, err := Collect(NewDistinct(NewSource(schema[:2], narrow...))); err != nil {
			t.Fatal(err)
		}
	})
	if distinct > 1 {
		t.Errorf("de-duplicating a batch with no new row allocates %.1f times, want <= 1", distinct)
	}

	// Probe: 8 build rows, every probe row matches once. The probe side
	// passes through (identity) and the 3 build columns are gathered into
	// the join's own output vectors, reused from batch to batch: probing
	// a batch allocates nothing.
	build := b.Slice(0, 8)
	probe := perBatch(func(in []*types.Batch) {
		j := NewHashJoin(NewSource(schema, in...), NewSource(schema, build), []int{0, 1}, []int{0, 1})
		j.Build = 1
		for {
			out, err := j.Next()
			if err != nil {
				t.Fatal(err)
			}
			if out == nil {
				return
			}
		}
	})
	if probe > 1 {
		t.Errorf("probing a batch allocates %.1f times, want <= 1", probe)
	}

	// The same join fused with an aggregate by a build-side column: a
	// probe batch gathers nothing and inserts no key, so folding it in
	// allocates nothing.
	fused := perBatch(func(in []*types.Batch) {
		j := NewHashJoin(NewSource(schema, in...), NewSource(schema, build), []int{0, 1}, []int{0, 1})
		j.Build = 1
		key := &expr.ColumnRef{Name: "s", Index: 3, Typ: types.Varchar}
		arg := &expr.ColumnRef{Name: "v", Index: 2, Typ: types.Float64}
		h := NewHashAggregate(j, []expr.Expr{key}, []string{"s"}, []AggDef{{Kind: AggSum, Arg: arg, Name: "x"}}, false)
		if _, err := Collect(NewGroupJoin(h, j)); err != nil {
			t.Fatal(err)
		}
	})
	if fused > 1 {
		t.Errorf("a groupjoin folding in a batch allocates %.1f times, want <= 1", fused)
	}
}
