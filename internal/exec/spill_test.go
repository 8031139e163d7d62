package exec

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"eon/internal/expr"
	"eon/internal/types"
	"eon/internal/udfs"
)

func testSpill(t *testing.T) *FSSpill {
	t.Helper()
	return NewFSSpill(context.Background(), udfs.NewMemFS(), "spill/q1")
}

// spillInput builds n rows of (id INT, grp VARCHAR, val FLOAT) split into
// batches of batchRows, with some NULL vals.
func spillInput(n, batchRows, groups int) (types.Schema, []*types.Batch) {
	schema := types.Schema{
		{Name: "id", Type: types.Int64},
		{Name: "grp", Type: types.Varchar},
		{Name: "val", Type: types.Float64},
	}
	var batches []*types.Batch
	b := types.NewBatch(schema, batchRows)
	for i := 0; i < n; i++ {
		val := types.NewFloat(float64(i%97) * 1.5)
		if i%13 == 0 {
			val = types.NullDatum(types.Float64)
		}
		b.AppendRow(types.Row{
			types.NewInt(int64(i * 7 % n)),
			types.NewString(fmt.Sprintf("g%03d", i%groups)),
			val,
		})
		if b.NumRows() == batchRows {
			batches = append(batches, b)
			b = types.NewBatch(schema, batchRows)
		}
	}
	if b.NumRows() > 0 {
		batches = append(batches, b)
	}
	return schema, batches
}

func TestMemGovernorAccounting(t *testing.T) {
	var gaugeVal int64
	g := NewMemGovernor(1000, func(d int64) { gaugeVal += d })
	if g.WouldExceed(1000) {
		t.Fatal("1000 within a 1000 budget")
	}
	if !g.WouldExceed(1001) {
		t.Fatal("1001 exceeds a 1000 budget")
	}
	g.Charge(600)
	if !g.WouldExceed(500) {
		t.Fatal("600+500 exceeds 1000")
	}
	g.Charge(300)
	g.Release(400)
	if got := g.Used(); got != 500 {
		t.Fatalf("used = %d, want 500", got)
	}
	if got := g.Peak(); got != 900 {
		t.Fatalf("peak = %d, want 900", got)
	}
	if gaugeVal != 500 {
		t.Fatalf("gauge = %d, want 500", gaugeVal)
	}
	g.NoteSpill(123)
	if g.Spills() != 1 || g.SpillBytes() != 123 {
		t.Fatalf("spill stats = %d/%d", g.Spills(), g.SpillBytes())
	}
	g.Close()
	if g.Used() != 0 || gaugeVal != 0 {
		t.Fatalf("after Close: used=%d gauge=%d", g.Used(), gaugeVal)
	}

	// Nil receiver: every method is a no-op.
	var nilG *MemGovernor
	nilG.Charge(10)
	nilG.Release(10)
	nilG.NoteSpill(1)
	nilG.Close()
	if nilG.Limited() || nilG.WouldExceed(1) || nilG.Used() != 0 || nilG.Peak() != 0 {
		t.Fatal("nil governor must be unlimited and zero")
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	schema := types.Schema{
		{Name: "i", Type: types.Int64},
		{Name: "f", Type: types.Float64},
		{Name: "s", Type: types.Varchar},
		{Name: "b", Type: types.Bool},
		{Name: "d", Type: types.Date},
	}
	b := types.NewBatch(schema, 4)
	b.AppendRow(types.Row{types.NewInt(-5), types.NewFloat(2.5), types.NewString("hello"), types.NewBool(true), types.NewDate(19000)})
	b.AppendRow(types.Row{types.NullDatum(types.Int64), types.NullDatum(types.Float64), types.NullDatum(types.Varchar), types.NullDatum(types.Bool), types.NullDatum(types.Date)})
	b.AppendRow(types.Row{types.NewInt(1 << 40), types.NewFloat(-0.0), types.NewString(""), types.NewBool(false), types.NewDate(0)})

	got, err := decodeBatch(schema, encodeBatch(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != b.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), b.NumRows())
	}
	for i := 0; i < b.NumRows(); i++ {
		want, have := b.Row(i), got.Row(i)
		for c := range want {
			if want[c].Null != have[c].Null || (!want[c].Null && !want[c].Equal(have[c])) {
				t.Fatalf("row %d col %d: got %v, want %v", i, c, have[c], want[c])
			}
		}
	}
}

func TestSortSpillMatchesInMemory(t *testing.T) {
	schema, batches := spillInput(5000, 250, 40)
	keys := []SortSpec{{Col: 1}, {Col: 2, Desc: true}, {Col: 0}}

	ref, err := Collect(NewSort(NewSource(schema, batches...), keys))
	if err != nil {
		t.Fatal(err)
	}

	g := NewMemGovernor(64<<10, nil)
	s := NewSort(NewSource(schema, batches...), keys)
	s.Mem, s.Spill = g, testSpill(t)
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}

	if g.Spills() == 0 {
		t.Fatal("budget 64KiB over ~5000 rows did not spill")
	}
	if g.Peak() > g.Budget() {
		t.Fatalf("peak %d exceeds budget %d", g.Peak(), g.Budget())
	}
	if g.Used() != 0 {
		t.Fatalf("governor still holds %d bytes after drain", g.Used())
	}
	if got.NumRows() != ref.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), ref.NumRows())
	}
	for i := 0; i < ref.NumRows(); i++ {
		w, h := ref.Row(i), got.Row(i)
		for c := range w {
			if w[c].Null != h[c].Null || (!w[c].Null && !w[c].Equal(h[c])) {
				t.Fatalf("row %d col %d: got %v, want %v (external sort diverged)", i, c, h[c], w[c])
			}
		}
	}
}

func TestSortNoBudgetUnchanged(t *testing.T) {
	schema, batches := spillInput(500, 100, 10)
	keys := []SortSpec{{Col: 0}}
	ref, err := NewSort(NewSource(schema, batches...), keys).Next()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSort(NewSource(schema, batches...), keys)
	s.Mem = NewMemGovernor(0, nil) // track-only governor, no spill store
	got, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != ref.NumRows() {
		t.Fatalf("rows differ: %d vs %d", got.NumRows(), ref.NumRows())
	}
	if b, err := s.Next(); err != nil || b != nil {
		t.Fatalf("second Next = (%v, %v), want (nil, nil)", b, err)
	}
}

// aggOver runs a grouped aggregation over the input with the given
// governor/spill and returns rows keyed by the group column.
func aggOver(t *testing.T, schema types.Schema, batches []*types.Batch, g *MemGovernor, sp SpillStore) map[string]types.Row {
	t.Helper()
	in := NewSource(schema, batches...)
	keyEx, valEx, idEx := expr.Col("grp"), expr.Col("val"), expr.Col("id")
	// NULL for every row of the groups below g100: their MIN stays unset
	// in every run.
	someVal := &expr.Case{Whens: []expr.When{{Cond: expr.Bin(expr.OpGe, expr.Col("grp"), expr.Lit(types.NewString("g100"))), Then: expr.Col("val")}}}
	for _, e := range []expr.Expr{keyEx, valEx, idEx, someVal} {
		if err := expr.Bind(e, schema); err != nil {
			t.Fatal(err)
		}
	}
	aggs := []AggDef{
		{Kind: AggCountStar, Name: "n"},
		{Kind: AggSum, Arg: idEx, Name: "sum_id"},
		{Kind: AggAvg, Arg: valEx, Name: "avg_val"},
		{Kind: AggMin, Arg: valEx, Name: "min_val"},
		{Kind: AggMax, Arg: idEx, Name: "max_id"},
		{Kind: AggCount, Arg: valEx, Name: "n_val"},
		{Kind: AggMin, Arg: keyEx, Name: "min_grp"},
		{Kind: AggMax, Arg: keyEx, Name: "max_grp"},
		{Kind: AggMin, Arg: someVal, Name: "min_some"},
	}
	ha := NewHashAggregate(in, []expr.Expr{keyEx}, []string{"grp"}, aggs, false)
	ha.Mem, ha.Spill = g, sp
	out, err := Collect(ha)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]types.Row{}
	for i := 0; i < out.NumRows(); i++ {
		r := out.Row(i)
		rows[r[0].S] = r
	}
	return rows
}

func TestHashAggSpillMatchesInMemory(t *testing.T) {
	schema, batches := spillInput(8000, 200, 500)

	ref := aggOver(t, schema, batches, nil, nil)

	g := NewMemGovernor(16<<10, nil)
	got := aggOver(t, schema, batches, g, testSpill(t))

	if g.Spills() == 0 {
		t.Fatal("500 groups under a 16KiB budget did not spill")
	}
	if g.Peak() > g.Budget() {
		t.Fatalf("peak %d exceeds budget %d", g.Peak(), g.Budget())
	}
	if g.Used() != 0 {
		t.Fatalf("governor still holds %d bytes after drain", g.Used())
	}
	if len(got) != len(ref) {
		t.Fatalf("group count = %d, want %d", len(got), len(ref))
	}
	for k, w := range ref {
		h, ok := got[k]
		if !ok {
			t.Fatalf("group %q missing from spilled result", k)
		}
		if want := k < "g100"; w[9].Null != want {
			t.Fatalf("group %q: min_some NULL = %v, want %v", k, w[9].Null, want)
		}
		for c := range w {
			if w[c].Null != h[c].Null || (!w[c].Null && !w[c].Equal(h[c])) {
				t.Fatalf("group %q col %d: got %v, want %v (spill merge diverged)", k, c, h[c], w[c])
			}
		}
	}
}

func TestHashAggPartialAvgSpill(t *testing.T) {
	schema, batches := spillInput(4000, 125, 300)
	build := func(g *MemGovernor, sp SpillStore) map[string]types.Row {
		in := NewSource(schema, batches...)
		keyEx, valEx := expr.Col("grp"), expr.Col("val")
		for _, e := range []expr.Expr{keyEx, valEx} {
			if err := expr.Bind(e, schema); err != nil {
				t.Fatal(err)
			}
		}
		ha := NewHashAggregate(in, []expr.Expr{keyEx}, []string{"grp"},
			[]AggDef{{Kind: AggAvg, Arg: valEx, Name: "a"}}, true)
		ha.Mem, ha.Spill = g, sp
		out, err := Collect(ha)
		if err != nil {
			t.Fatal(err)
		}
		rows := map[string]types.Row{}
		for i := 0; i < out.NumRows(); i++ {
			r := out.Row(i)
			rows[r[0].S] = r
		}
		return rows
	}
	ref := build(nil, nil)
	g := NewMemGovernor(8<<10, nil)
	got := build(g, testSpill(t))
	if g.Spills() == 0 {
		t.Fatal("expected spills")
	}
	if len(got) != len(ref) {
		t.Fatalf("groups %d != %d", len(got), len(ref))
	}
	for k, w := range ref {
		h := got[k]
		// Partial AVG emits (sum, count).
		if len(h) != 3 || w[1].F != h[1].F || w[2].I != h[2].I {
			t.Fatalf("group %q: got %v, want %v", k, h, w)
		}
	}
}

func TestHashJoinChargesAndReleases(t *testing.T) {
	schema, batches := spillInput(1000, 100, 50)
	g := NewMemGovernor(1<<30, nil)
	j := NewHashJoin(
		NewSource(schema, batches...),
		NewSource(schema, batches...),
		[]int{0}, []int{0},
	)
	j.Mem = g
	var rows int
	for {
		b, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		rows += b.NumRows()
		if g.Used() == 0 {
			t.Fatal("build side not charged while probing")
		}
	}
	if rows == 0 {
		t.Fatal("join produced no rows")
	}
	if g.Used() != 0 {
		t.Fatalf("governor still holds %d bytes after probe drained", g.Used())
	}
	if g.Peak() == 0 {
		t.Fatal("peak never recorded")
	}
}

func TestFSSpillCleanup(t *testing.T) {
	fs := udfs.NewMemFS()
	ctx := context.Background()
	sp := NewFSSpill(ctx, fs, "spill/q9")
	if _, err := sp.Put("sortrun", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Put("aggrun", []byte("defg")); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.List(ctx, "spill/q9/")
	if err != nil || len(infos) != 2 {
		t.Fatalf("list = %v, %v", infos, err)
	}
	if err := sp.Cleanup(ctx); err != nil {
		t.Fatal(err)
	}
	infos, err = fs.List(ctx, "spill/q9/")
	if err != nil || len(infos) != 0 {
		t.Fatalf("after cleanup: %v, %v", infos, err)
	}
}

// TestAggStateLayout pins what one group's states take, the figure
// groupMemBytes charges the governor: a 24-byte pointer-free aggState
// per aggregate, plus a Datum per aggregate when the operator has a MIN
// or MAX.
func TestAggStateLayout(t *testing.T) {
	if got := unsafe.Sizeof(aggState{}); got != 24 {
		t.Errorf("aggState takes %d bytes, want 24", got)
	}
	typ := reflect.TypeOf(aggState{})
	for i := range typ.NumField() {
		if k := typ.Field(i).Type.Kind(); k != reflect.Int64 && k != reflect.Float64 {
			t.Errorf("aggState field %s is a %v; the state must hold no pointer", typ.Field(i).Name, k)
		}
	}
	keys := []*types.Vector{types.NewVector(types.Int64, 1), types.NewVector(types.Varchar, 1)}
	keys[0].Append(types.NewInt(7))
	keys[1].Append(types.NewString("abcd"))
	// slots 32 + two key headers 48 + the string's 4 bytes
	if got, want := groupMemBytes(keys, 0, 3, false), int64(32+48+4+3*24); got != want {
		t.Errorf("groupMemBytes without extremes = %d, want %d", got, want)
	}
	datum := int64(unsafe.Sizeof(types.Datum{}))
	if got, want := groupMemBytes(keys, 0, 3, true), int64(32+48+4)+3*(24+datum); got != want {
		t.Errorf("groupMemBytes with extremes = %d, want %d", got, want)
	}
}
