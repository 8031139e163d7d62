package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"eon/internal/expr"
	"eon/internal/types"
)

func benchBatch(n int) (*types.Batch, types.Schema) {
	schema := types.Schema{
		{Name: "k", Type: types.Int64},
		{Name: "v", Type: types.Float64},
		{Name: "s", Type: types.Varchar},
	}
	rng := rand.New(rand.NewSource(1))
	b := types.NewBatch(schema, n)
	labels := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		b.AppendRow(types.Row{
			types.NewInt(rng.Int63n(1000)),
			types.NewFloat(rng.Float64() * 100),
			types.NewString(labels[rng.Intn(4)]),
		})
	}
	return b, schema
}

func BenchmarkFilter(b *testing.B) {
	data, schema := benchBatch(8192)
	pred := expr.Bin(expr.OpGt, expr.Col("v"), expr.FloatLit(50))
	if err := expr.Bind(pred, schema); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		op := NewFilter(NewSource(schema, data), pred)
		if _, err := Collect(op); err != nil {
			b.Fatal(err)
		}
	}
}

// sink keeps benchmark results alive.
var sink *types.Batch

// joinBenchSide builds n rows (k INT, v FLOAT, s VARCHAR) in 4096-row
// batches with keys cycling through 0..keys-1.
func joinBenchSide(n, keys int) (types.Schema, []*types.Batch) {
	schema := types.Schema{
		{Name: "k", Type: types.Int64},
		{Name: "v", Type: types.Float64},
		{Name: "s", Type: types.Varchar},
	}
	var out []*types.Batch
	for lo := 0; lo < n; lo += 4096 {
		hi := min(lo+4096, n)
		b := types.NewBatch(schema, hi-lo)
		for i := lo; i < hi; i++ {
			b.AppendRow(types.Row{types.NewInt(int64(i % keys)), types.NewFloat(float64(i)), types.NewString("x")})
		}
		out = append(out, b)
	}
	return schema, out
}

// BenchmarkHashJoin covers the join shapes of the repository benchmark:
// a fact table against a dimension in either syntactic order (the
// smaller side builds both times) and a build side with repeated keys.
func BenchmarkHashJoin(b *testing.B) {
	schema, fact := joinBenchSide(65536, 2000)
	_, dim := joinBenchSide(2000, 2000)
	_, dupDim := joinBenchSide(2000, 500) // 4 build rows per key
	shapes := []struct {
		name          string
		first, second []*types.Batch
		build         int
	}{
		{"big-first/small-second", fact, dim, 1},
		{"small-first/big-second", dim, fact, 0},
		{"duplicate-build-keys", fact[:4], dupDim, 1},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op := NewHashJoin(NewSource(schema, sh.first...), NewSource(schema, sh.second...), []int{0}, []int{0})
				op.Build = sh.build
				for {
					out, err := op.Next()
					if err != nil {
						b.Fatal(err)
					}
					if out == nil {
						break
					}
					sink = out
				}
			}
		})
	}
}

// aggBenchInput builds n rows of (a VARCHAR, c VARCHAR, k INT, v FLOAT)
// with na, nc and nk distinct values per key column.
func aggBenchInput(n, na, nc, nk int) (types.Schema, []*types.Batch) {
	schema := types.Schema{
		{Name: "a", Type: types.Varchar},
		{Name: "c", Type: types.Varchar},
		{Name: "k", Type: types.Int64},
		{Name: "v", Type: types.Float64},
	}
	as, cs := make([]string, na), make([]string, nc)
	for i := range as {
		as[i] = fmt.Sprintf("Brand#%02d", i)
	}
	for i := range cs {
		cs[i] = fmt.Sprintf("STANDARD POLISHED %03d", i)
	}
	rng := rand.New(rand.NewSource(1))
	var out []*types.Batch
	for lo := 0; lo < n; lo += 4096 {
		hi := min(lo+4096, n)
		b := types.NewBatch(schema, hi-lo)
		for i := lo; i < hi; i++ {
			b.AppendRow(types.Row{
				types.NewString(as[rng.Intn(na)]), types.NewString(cs[rng.Intn(nc)]),
				types.NewInt(int64(rng.Intn(nk))), types.NewFloat(rng.Float64()),
			})
		}
		out = append(out, b)
	}
	return schema, out
}

// BenchmarkHashAggregate covers the group-key shapes the repository
// benchmark runs: (string, string) and (string, int) keys, and the
// single string key with 8 groups of copy_mergeout's GROUP BY metric.
func BenchmarkHashAggregate(b *testing.B) {
	shapes := []struct {
		name       string
		keys       []string
		na, nc, nk int
	}{
		{"string-string", []string{"a", "c"}, 25, 150, 1},
		{"string-int", []string{"a", "k"}, 25, 1, 1000},
		{"single-string-8-groups", []string{"a"}, 8, 1, 1},
	}
	for _, sh := range shapes {
		schema, data := aggBenchInput(65536, sh.na, sh.nc, sh.nk)
		var keys []expr.Expr
		for _, name := range sh.keys {
			k := expr.Col(name)
			if err := expr.Bind(k, schema); err != nil {
				b.Fatal(err)
			}
			keys = append(keys, k)
		}
		arg := expr.Col("v")
		if err := expr.Bind(arg, schema); err != nil {
			b.Fatal(err)
		}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op := NewHashAggregate(NewSource(schema, data...), keys, sh.keys,
					[]AggDef{{Kind: AggSum, Arg: arg, Name: "total"}, {Kind: AggCountStar, Name: "n"}}, false)
				out, err := op.Next()
				if err != nil {
					b.Fatal(err)
				}
				sink = out
			}
		})
	}
}

// BenchmarkDistinct is Q11's shape: a (string, int) row set that is
// almost all distinct (150 k distinct rows in 160 k), so the table grows
// through every doubling and the output is as large as the input.
func BenchmarkDistinct(b *testing.B) {
	s := types.Schema{{Name: "flag", Type: types.Varchar}, {Name: "k", Type: types.Int64}}
	flags := []string{"A", "N", "R"}
	var narrow []*types.Batch
	for lo := 0; lo < 160000; lo += 4096 {
		hi := min(lo+4096, 160000)
		batch := types.NewBatch(s, hi-lo)
		for i := lo; i < hi; i++ {
			key := i % 150000
			batch.AppendRow(types.Row{types.NewString(flags[key%3]), types.NewInt(int64(key / 3))})
		}
		narrow = append(narrow, batch)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := NewDistinct(NewSource(s, narrow...))
		rows := 0
		for {
			out, err := op.Next()
			if err != nil {
				b.Fatal(err)
			}
			if out == nil {
				break
			}
			rows += out.NumRows()
			sink = out
		}
		if rows != 150000 {
			b.Fatalf("%d distinct rows, want 150000", rows)
		}
	}
}

func BenchmarkTopK(b *testing.B) {
	data, schema := benchBatch(8192)
	for i := 0; i < b.N; i++ {
		op := NewTopK(NewSource(schema, data), []SortSpec{{Col: 1, Desc: true}}, 10)
		if _, err := Collect(op); err != nil {
			b.Fatal(err)
		}
	}
}
