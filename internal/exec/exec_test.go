package exec

import (
	"fmt"
	"testing"

	"eon/internal/expr"
	"eon/internal/hashring"
	"eon/internal/types"
)

var salesSchema = types.Schema{
	{Name: "id", Type: types.Int64},
	{Name: "region", Type: types.Varchar},
	{Name: "amount", Type: types.Float64},
}

func salesBatch() *types.Batch {
	return types.BatchFromRows(salesSchema, []types.Row{
		{types.NewInt(1), types.NewString("east"), types.NewFloat(10)},
		{types.NewInt(2), types.NewString("west"), types.NewFloat(20)},
		{types.NewInt(3), types.NewString("east"), types.NewFloat(30)},
		{types.NewInt(4), types.NewString("west"), types.NewFloat(40)},
		{types.NewInt(5), types.NewString("east"), types.NewFloat(50)},
	})
}

func bind(t *testing.T, e expr.Expr, s types.Schema) expr.Expr {
	t.Helper()
	if err := expr.Bind(e, s); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSourceAndCollect(t *testing.T) {
	src := NewSource(salesSchema, salesBatch(), nil, salesBatch())
	got, err := Collect(src)
	if err != nil || got.NumRows() != 10 {
		t.Fatalf("collect = %d rows, %v", got.NumRows(), err)
	}
}

func TestFilter(t *testing.T) {
	pred := bind(t, expr.Bin(expr.OpGt, expr.Col("amount"), expr.FloatLit(25)), salesSchema)
	f := NewFilter(NewSource(salesSchema, salesBatch()), pred)
	got, err := Collect(f)
	if err != nil || got.NumRows() != 3 {
		t.Fatalf("filter = %d rows, %v", got.NumRows(), err)
	}
}

func TestProject(t *testing.T) {
	double := bind(t, expr.Bin(expr.OpMul, expr.Col("amount"), expr.FloatLit(2)), salesSchema)
	idRef := bind(t, expr.Col("id"), salesSchema)
	p := NewProject(NewSource(salesSchema, salesBatch()), []expr.Expr{idRef, double}, []string{"id", "doubled"})
	got, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCols() != 2 || got.Cols[1].Floats[0] != 20 {
		t.Errorf("project = %+v", got.Rows())
	}
	if p.Schema()[1].Name != "doubled" {
		t.Error("output schema name")
	}
}

func TestLimit(t *testing.T) {
	l := NewLimit(NewSource(salesSchema, salesBatch()), 2)
	got, _ := Collect(l)
	if got.NumRows() != 2 {
		t.Errorf("limit = %d", got.NumRows())
	}
	// Limit larger than input.
	l = NewLimit(NewSource(salesSchema, salesBatch()), 100)
	got, _ = Collect(l)
	if got.NumRows() != 5 {
		t.Errorf("limit 100 = %d", got.NumRows())
	}
}

func TestDistinct(t *testing.T) {
	s := types.Schema{{Name: "r", Type: types.Varchar}}
	b := types.BatchFromRows(s, []types.Row{
		{types.NewString("a")}, {types.NewString("b")}, {types.NewString("a")},
		{types.NullDatum(types.Varchar)}, {types.NullDatum(types.Varchar)},
	})
	got, _ := Collect(NewDistinct(NewSource(s, b)))
	if got.NumRows() != 3 { // a, b, NULL
		t.Errorf("distinct = %d rows: %v", got.NumRows(), got.Rows())
	}
}

// TestDistinctOutputAppendSafe: Distinct returns views of its key table.
// A consumer that keeps one and appends to it in place must not overwrite
// keys the table has taken in since.
func TestDistinctOutputAppendSafe(t *testing.T) {
	s := types.Schema{{Name: "k", Type: types.Int64}, {Name: "r", Type: types.Varchar}}
	row := func(k int64) types.Row { return types.Row{types.NewInt(k), types.NewString(fmt.Sprint("r", k))} }
	d := NewDistinct(NewSource(s,
		types.BatchFromRows(s, []types.Row{row(1), row(2), row(1)}),
		types.BatchFromRows(s, []types.Row{row(2), row(3), row(4)}),
		types.BatchFromRows(s, []types.Row{row(3), row(4), row(5)}),
	))
	var got []string
	var kept *types.Batch
	for {
		b, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for i := 0; i < b.NumRows(); i++ {
			got = append(got, b.Row(i).String())
		}
		if kept == nil {
			kept = b
		} else {
			kept.AppendRow(row(-7)) // a careless consumer
		}
	}
	want := []string{row(1).String(), row(2).String(), row(3).String(), row(4).String(), row(5).String()}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("distinct rows = %v, want %v", got, want)
	}
}

func TestHashJoin(t *testing.T) {
	custSchema := types.Schema{
		{Name: "cust_id", Type: types.Int64},
		{Name: "name", Type: types.Varchar},
	}
	cust := types.BatchFromRows(custSchema, []types.Row{
		{types.NewInt(1), types.NewString("ada")},
		{types.NewInt(2), types.NewString("grace")},
	})
	orderSchema := types.Schema{
		{Name: "order_id", Type: types.Int64},
		{Name: "cust", Type: types.Int64},
	}
	orders := types.BatchFromRows(orderSchema, []types.Row{
		{types.NewInt(100), types.NewInt(1)},
		{types.NewInt(101), types.NewInt(2)},
		{types.NewInt(102), types.NewInt(1)},
		{types.NewInt(103), types.NewInt(9)}, // no match
		{types.NewInt(104), types.NullDatum(types.Int64)},
	})
	j := NewHashJoin(NewSource(custSchema, cust), NewSource(orderSchema, orders), []int{0}, []int{1})
	got, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Fatalf("join = %d rows: %v", got.NumRows(), got.Rows())
	}
	if got.NumCols() != 4 {
		t.Errorf("join schema = %v", j.Schema())
	}
	// Every output row's keys match.
	for _, r := range got.Rows() {
		if r[0].I != r[3].I {
			t.Errorf("mismatched join row: %v", r)
		}
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	s := types.Schema{{Name: "k", Type: types.Int64}}
	left := types.BatchFromRows(s, []types.Row{{types.NewInt(1)}, {types.NewInt(1)}})
	right := types.BatchFromRows(s, []types.Row{{types.NewInt(1)}, {types.NewInt(1)}, {types.NewInt(2)}})
	j := NewHashJoin(NewSource(s, left), NewSource(s, right), []int{0}, []int{0})
	got, _ := Collect(j)
	if got.NumRows() != 4 { // 2x2 cross of matching keys
		t.Errorf("dup join = %d rows", got.NumRows())
	}
}

func TestHashAggregateGrouped(t *testing.T) {
	region := bind(t, expr.Col("region"), salesSchema)
	amount := bind(t, expr.Col("amount"), salesSchema)
	agg := NewHashAggregate(
		NewSource(salesSchema, salesBatch()),
		[]expr.Expr{region}, []string{"region"},
		[]AggDef{
			{Kind: AggCountStar, Name: "n"},
			{Kind: AggSum, Arg: amount, Name: "total"},
			{Kind: AggAvg, Arg: amount, Name: "mean"},
			{Kind: AggMin, Arg: amount, Name: "lo"},
			{Kind: AggMax, Arg: amount, Name: "hi"},
		}, false)
	got, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 {
		t.Fatalf("groups = %d", got.NumRows())
	}
	byRegion := map[string]types.Row{}
	for _, r := range got.Rows() {
		byRegion[r[0].S] = r
	}
	east := byRegion["east"]
	if east[1].I != 3 || east[2].F != 90 || east[3].F != 30 || east[4].F != 10 || east[5].F != 50 {
		t.Errorf("east = %v", east)
	}
	west := byRegion["west"]
	if west[1].I != 2 || west[2].F != 60 {
		t.Errorf("west = %v", west)
	}
}

func TestHashAggregateGlobalEmptyInput(t *testing.T) {
	empty := NewSource(salesSchema)
	amount := bind(t, expr.Col("amount"), salesSchema)
	agg := NewHashAggregate(empty, nil, nil, []AggDef{
		{Kind: AggCountStar, Name: "n"},
		{Kind: AggSum, Arg: amount, Name: "s"},
	}, false)
	got, err := Collect(agg)
	if err != nil || got.NumRows() != 1 {
		t.Fatalf("global agg rows = %d, %v", got.NumRows(), err)
	}
	if got.Cols[0].Ints[0] != 0 {
		t.Error("count of empty input should be 0")
	}
	if !got.Cols[1].IsNull(0) {
		t.Error("sum of empty input should be NULL")
	}
}

func TestHashAggregateCountIgnoresNulls(t *testing.T) {
	s := types.Schema{{Name: "v", Type: types.Int64}}
	b := types.BatchFromRows(s, []types.Row{
		{types.NewInt(1)}, {types.NullDatum(types.Int64)}, {types.NewInt(3)},
	})
	v := bind(t, expr.Col("v"), s)
	agg := NewHashAggregate(NewSource(s, b), nil, nil, []AggDef{
		{Kind: AggCount, Arg: v, Name: "c"},
		{Kind: AggCountStar, Name: "cs"},
		{Kind: AggSum, Arg: v, Name: "s"},
	}, false)
	got, _ := Collect(agg)
	r := got.Row(0)
	if r[0].I != 2 || r[1].I != 3 || r[2].I != 4 {
		t.Errorf("counts = %v", r)
	}
}

// Partial + merge must equal single-site aggregation.
func TestPartialFinalAggregationEquivalence(t *testing.T) {
	all := salesBatch()
	region := bind(t, expr.Col("region"), salesSchema)
	amount := bind(t, expr.Col("amount"), salesSchema)

	// Split rows between two "nodes".
	node1 := all.Slice(0, 2)
	node2 := all.Slice(2, 5)

	partials := types.NewBatch(types.Schema{}, 0)
	var partialSchema types.Schema
	for _, part := range []*types.Batch{node1, node2} {
		agg := NewHashAggregate(NewSource(salesSchema, part),
			[]expr.Expr{region}, []string{"region"},
			[]AggDef{
				{Kind: AggCountStar, Name: "n"},
				{Kind: AggSum, Arg: amount, Name: "total"},
				{Kind: AggAvg, Arg: amount, Name: "mean"},
			}, true)
		b, err := Collect(agg)
		if err != nil {
			t.Fatal(err)
		}
		if partialSchema == nil {
			partialSchema = agg.Schema()
			partials = types.NewBatch(partialSchema, 0)
		}
		partials.AppendBatch(b)
	}
	// Partial schema: region, n, total, mean, mean_cnt.
	if len(partialSchema) != 5 {
		t.Fatalf("partial schema = %v", partialSchema)
	}

	rg := bind(t, expr.Col("region"), partialSchema)
	n := bind(t, expr.Col("n"), partialSchema)
	total := bind(t, expr.Col("total"), partialSchema)
	mean := bind(t, expr.Col("mean"), partialSchema)
	meanCnt := bind(t, expr.Col("mean_cnt"), partialSchema)
	final := NewHashAggregate(NewSource(partialSchema, partials),
		[]expr.Expr{rg}, []string{"region"},
		[]AggDef{
			{Kind: AggCountMerge, Arg: n, Name: "n"},
			{Kind: AggSum, Arg: total, Name: "total"},
			{Kind: AggAvgMerge, Arg: mean, ArgCount: meanCnt, Name: "mean"},
		}, false)
	got, err := Collect(final)
	if err != nil {
		t.Fatal(err)
	}
	byRegion := map[string]types.Row{}
	for _, r := range got.Rows() {
		byRegion[r[0].S] = r
	}
	east := byRegion["east"]
	if east[1].I != 3 || east[2].F != 90 || east[3].F != 30 {
		t.Errorf("merged east = %v", east)
	}
	west := byRegion["west"]
	if west[1].I != 2 || west[2].F != 60 || west[3].F != 30 {
		t.Errorf("merged west = %v", west)
	}
}

func TestSort(t *testing.T) {
	s := NewSort(NewSource(salesSchema, salesBatch()), []SortSpec{{Col: 2, Desc: true}})
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cols[2].Floats[0] != 50 || got.Cols[2].Floats[4] != 10 {
		t.Errorf("sorted = %v", got.Cols[2].Floats)
	}
}

func TestSortMultiKey(t *testing.T) {
	srt := NewSort(NewSource(salesSchema, salesBatch()), []SortSpec{
		{Col: 1, Desc: false}, {Col: 2, Desc: true},
	})
	got, _ := Collect(srt)
	// east rows first (amount desc 50,30,10) then west (40,20).
	want := []float64{50, 30, 10, 40, 20}
	for i, w := range want {
		if got.Cols[2].Floats[i] != w {
			t.Fatalf("multi-key sort = %v", got.Cols[2].Floats)
		}
	}
}

func TestTopK(t *testing.T) {
	tk := NewTopK(NewSource(salesSchema, salesBatch()), []SortSpec{{Col: 2, Desc: true}}, 2)
	got, err := Collect(tk)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 || got.Cols[2].Floats[0] != 50 || got.Cols[2].Floats[1] != 40 {
		t.Errorf("topk = %v", got.Cols[2].Floats)
	}
}

func TestTopKMatchesSortLimit(t *testing.T) {
	keys := []SortSpec{{Col: 0, Desc: false}}
	a, _ := Collect(NewTopK(NewSource(salesSchema, salesBatch()), keys, 3))
	b, _ := Collect(NewLimit(NewSort(NewSource(salesSchema, salesBatch()), keys), 3))
	if a.NumRows() != b.NumRows() {
		t.Fatalf("topk %d != sort+limit %d", a.NumRows(), b.NumRows())
	}
	for i := 0; i < a.NumRows(); i++ {
		if a.Cols[0].Ints[i] != b.Cols[0].Ints[i] {
			t.Errorf("row %d: %d != %d", i, a.Cols[0].Ints[i], b.Cols[0].Ints[i])
		}
	}
}

func TestPartitionByHash(t *testing.T) {
	// Each row goes to the ring segment its key hash falls in, every row
	// lands in exactly one part, and the split is deterministic.
	ring := hashring.NewRing(3)
	parts := Partition(salesBatch(), []int{0}, 3, ring.SegmentFor)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for i, p := range parts {
		if p == nil {
			continue
		}
		total += p.NumRows()
		for _, h := range hashring.HashBatchCols(p, []int{0}, nil) {
			if ring.SegmentFor(h) != i {
				t.Errorf("part %d holds a row of segment %d", i, ring.SegmentFor(h))
			}
		}
	}
	if total != 5 {
		t.Errorf("partition lost rows: %d", total)
	}
	parts2 := Partition(salesBatch(), []int{0}, 3, ring.SegmentFor)
	for i := range parts {
		n1, n2 := 0, 0
		if parts[i] != nil {
			n1 = parts[i].NumRows()
		}
		if parts2[i] != nil {
			n2 = parts2[i].NumRows()
		}
		if n1 != n2 {
			t.Error("partitioning not deterministic")
		}
	}
}

func TestHashFilterPartitionsCompletely(t *testing.T) {
	// The crunch split (§4.4): n members serving one shard each keep the
	// rows whose hash falls in their sub-range of the shard's segment.
	// Over every shard, the union of all members' rows is the input, no
	// row twice.
	const shards, n = 2, 3
	ring := hashring.NewRing(shards)
	seen := map[int64]int{}
	parts := Partition(salesBatch(), []int{0}, shards*n, func(h uint32) int {
		seg, part := ring.Locate(h, n)
		return seg*n + part
	})
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, id := range p.Cols[0].Ints {
			seen[id]++
		}
	}
	if len(seen) != 5 {
		t.Errorf("coverage = %v", seen)
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("row %d seen %d times", id, c)
		}
	}
}

func TestLimitZero(t *testing.T) {
	got, _ := Collect(NewLimit(NewSource(salesSchema, salesBatch()), 0))
	if got.NumRows() != 0 {
		t.Error("limit 0")
	}
}
