package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"eon/internal/obs"
	"eon/internal/types"
)

// TestArenaMatchesHeap: evaluating through an arena, reset between
// evaluations, gives what evaluating on the heap gives, for random
// expressions, batches and selections.
func TestArenaMatchesHeap(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	gens := []func(*rand.Rand, int) Expr{genBool, genNum, genStr}
	var a Arena
	for iter := 0; iter < 400; iter++ {
		e := gens[iter%len(gens)](r, 3)
		if err := Bind(e, diffSchema); err != nil {
			t.Fatalf("bind %v: %v", e, err)
		}
		n := []int{0, 1, 17, 64, 300}[r.Intn(5)]
		b := randBatch(r, n, []float64{0, 0.25, 1}[r.Intn(3)])
		sel := randSel(r, n)
		label := fmt.Sprintf("iter %d expr %v rows %d", iter, e, n)

		a.Reset()
		want, errW := EvalVec(e, b, sel, nil)
		got, errG := a.EvalVec(e, b, sel, nil)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("%s: error mismatch heap=%v arena=%v", label, errW, errG)
		}
		if errW == nil {
			checkVecEqual(t, label, want, got)
		}
		if e.Type() != types.Bool {
			continue
		}
		wantSel, errW := FilterVec(e, b, sel, nil)
		gotSel, errG := a.FilterVec(e, b, sel, nil)
		if (errW == nil) != (errG == nil) || fmt.Sprint(wantSel) != fmt.Sprint(gotSel) {
			t.Fatalf("%s: FilterVec through the arena = %v (%v), want %v (%v)", label, gotSel, errG, wantSel, errW)
		}
	}
}

// TestArenaResetPoisons: in a test binary, what an arena handed out is
// overwritten on Reset, so a result read after its owner moved on shows.
func TestArenaResetPoisons(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	b := randBatch(r, 64, 0)
	e := Bin(OpAdd, Col("a"), Lit(types.NewInt(1)))
	pred := Bin(OpGt, Col("a"), Lit(types.NewInt(-100)))
	for _, x := range []Expr{e, pred} {
		if err := Bind(x, diffSchema); err != nil {
			t.Fatal(err)
		}
	}
	var a Arena
	v, err := a.EvalVec(e, b, []int{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := a.FilterVec(pred, b, nil, nil)
	if err != nil || len(sel) != 64 {
		t.Fatalf("FilterVec = %d rows, %v", len(sel), err)
	}
	a.Reset()
	for j, x := range v.Ints {
		if x != types.PoisonInt {
			t.Fatalf("value %d of a result is %d after Reset, want the poison", j, x)
		}
	}
	for j, i := range sel {
		if i != types.PoisonInt {
			t.Fatalf("row %d of a selection is %d after Reset, want the poison", j, i)
		}
	}
}

// TestArenaSteadyState: once warm, an arena evaluates a block's predicate
// and a computed argument without allocating their results.
func TestArenaSteadyState(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	r := rand.New(rand.NewSource(5))
	b := randBatch(r, 4096, 0.1)
	pred := Bin(OpOr, Bin(OpAnd, Bin(OpGt, Col("a"), Lit(types.NewInt(2))), Bin(OpEq, Col("s"), Lit(types.NewString("ab")))),
		Bin(OpLt, Col("f"), Lit(types.NewFloat(-3))))
	arg := Bin(OpMul, Col("f"), Bin(OpSub, Lit(types.NewFloat(1)), Col("f")))
	for _, x := range []Expr{pred, arg} {
		if err := Bind(x, diffSchema); err != nil {
			t.Fatal(err)
		}
	}
	var a Arena
	run := func() {
		a.Reset()
		sel, err := a.FilterVec(pred, b, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.EvalVec(arg, b, sel, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
		t.Errorf("a warm arena allocates %.1f times per evaluation, want 0", allocs)
	}
}
