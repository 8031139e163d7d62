package storage

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"eon/internal/colenc"
	"eon/internal/hashring"
	"eon/internal/rosfile"
	"eon/internal/types"
)

// The write path's typed kernels — the row comparator, the min/max pass,
// the encoding choice and the ring hash — are checked here against the
// Datum-based code they replaced, kept below as references.

// refSortPerm is the stable sort over boxed values.
func refSortPerm(b *types.Batch, keys []types.SortKey) []int {
	perm := make([]int, b.NumRows())
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool { return refCompareRows(b, perm[x], perm[y], keys) < 0 })
	return perm
}

func refCompareRows(b *types.Batch, i, j int, keys []types.SortKey) int {
	for _, k := range keys {
		if c := b.Cols[k.Col].Datum(i).Compare(b.Cols[k.Col].Datum(j)); c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// refStatsOf folds boxed values with Datum.Compare.
func refStatsOf(v *types.Vector) types.ColumnStats {
	st := types.ColumnStats{AllNull: true}
	for i := 0; i < v.Len(); i++ {
		d := v.Datum(i)
		if d.Null {
			st.HasNulls = true
			continue
		}
		if st.AllNull {
			st.Min, st.Max = d, d
			st.AllNull = false
			continue
		}
		if d.Compare(st.Min) < 0 {
			st.Min = d
		}
		if d.Compare(st.Max) > 0 {
			st.Max = d
		}
	}
	return st
}

// refBlockStats is a block footer's min, max and NULL count.
func refBlockStats(v *types.Vector) (min, max types.Datum, nulls int64) {
	min, max = types.NullDatum(v.Typ), types.NullDatum(v.Typ)
	first := true
	for i := 0; i < v.Len(); i++ {
		d := v.Datum(i)
		if d.Null {
			nulls++
			continue
		}
		if first {
			min, max, first = d, d, false
			continue
		}
		if d.Compare(min) < 0 {
			min = d
		}
		if d.Compare(max) > 0 {
			max = d
		}
	}
	return min, max, nulls
}

// refChoose is colenc.Choose over boxed values.
func refChoose(v *types.Vector, sorted bool) colenc.Encoding {
	n := v.Len()
	if n == 0 {
		return colenc.Plain
	}
	runs := func() float64 {
		if n < 2 {
			return 0
		}
		eq := 0
		for i := 1; i < n; i++ {
			if v.Datum(i).Equal(v.Datum(i - 1)) {
				eq++
			}
		}
		return float64(eq) / float64(n-1)
	}
	switch v.Typ.Physical() {
	case types.Int64:
		if runs() > 0.5 {
			return colenc.RLE
		}
		if sorted {
			return colenc.Delta
		}
		return colenc.FOR
	case types.Varchar:
		limit := n/4 + 1
		seen := map[string]bool{}
		for i := 0; i < n && len(seen) <= limit; i++ {
			seen[v.Datum(i).String()] = true
		}
		if len(seen) <= n/4 {
			if sorted && runs() > 0.5 {
				return colenc.RLE
			}
			return colenc.Dict
		}
		return colenc.Plain
	case types.Bool:
		return colenc.RLE
	}
	if sorted && runs() > 0.5 {
		return colenc.RLE
	}
	if refDecimal(v) {
		return colenc.Decimal
	}
	return colenc.Plain
}

// refDecimal is the decimal rule over boxed values: some exponent e in
// 0..18 at which every slot, NULL slots included (their payload is read
// with the bitmap set aside), has f·10^e within ±2^52, the nearest
// integer i to it gives i/10^e == f bit for bit, and the integers span at
// most 56 bits.
func refDecimal(v *types.Vector) bool {
	payload := &types.Vector{Typ: v.Typ, Floats: v.Floats}
	for e := 0; e <= 18; e++ {
		p := math.Pow10(e)
		ok := true
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for i := 0; i < payload.Len() && ok; i++ {
			f := payload.Datum(i).F
			x := f * p
			if !(math.Abs(x) <= 1<<52) {
				ok = false
				break
			}
			n := int64(math.Round(x))
			ok = math.Float64bits(float64(n)/p) == math.Float64bits(f)
			lo, hi = min(lo, n), max(hi, n)
		}
		if ok && uint64(hi-lo) < 1<<56 {
			return true
		}
	}
	return false
}

// refHashRow is the ring hash of one boxed row through a hash/fnv hasher.
func refHashRow(b *types.Batch, i int, cols []int) uint32 {
	h := fnv.New32a()
	for _, c := range cols {
		d := b.Cols[c].Datum(i)
		var buf [9]byte
		if d.Null {
			h.Write(buf[:1])
			continue
		}
		switch d.K.Physical() {
		case types.Int64:
			buf[0] = 1
			binary.LittleEndian.PutUint64(buf[1:], uint64(d.I))
			h.Write(buf[:9])
		case types.Float64:
			buf[0] = 2
			binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(d.F))
			h.Write(buf[:9])
		case types.Varchar:
			buf[0] = 3
			h.Write(buf[:1])
			h.Write([]byte(d.S))
		case types.Bool:
			buf[0] = 4
			if d.B {
				buf[1] = 1
			}
			h.Write(buf[:2])
		}
	}
	return h.Sum32()
}

var kernelSchema = types.Schema{
	{Name: "i", Type: types.Int64}, {Name: "f", Type: types.Float64},
	{Name: "s", Type: types.Varchar}, {Name: "b", Type: types.Bool},
	{Name: "d", Type: types.Date}, {Name: "ts", Type: types.Timestamp},
}

// kernelBatch draws n rows over small domains (heavy duplicates), with
// ±0 and ±Inf among the floats (NaN too when nan is set), and per column
// either no NULLs, some, all, or a NULL bitmap shorter than the vector.
// NULL positions hold arbitrary values, which every kernel must ignore.
func kernelBatch(rng *rand.Rand, n int, nan bool) *types.Batch {
	floats := []float64{math.Inf(-1), -2.5, math.Copysign(0, -1), 0, 1, 1e300, math.Inf(1)}
	if nan {
		floats = append(floats, math.NaN(), math.NaN())
	}
	strs := []string{"", "a", "ab", "b", "NULL", "zz", "é"}
	b := &types.Batch{Cols: make([]*types.Vector, len(kernelSchema))}
	for c, col := range kernelSchema {
		v := &types.Vector{Typ: col.Type}
		for r := 0; r < n; r++ {
			switch col.Type.Physical() {
			case types.Int64:
				x := int64(rng.Intn(9) - 4)
				if rng.Intn(50) == 0 {
					x = []int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
				}
				v.Ints = append(v.Ints, x)
			case types.Float64:
				v.Floats = append(v.Floats, floats[rng.Intn(len(floats))])
			case types.Varchar:
				v.Strs = append(v.Strs, strs[rng.Intn(len(strs))])
			case types.Bool:
				v.Bools = append(v.Bools, rng.Intn(2) == 0)
			}
		}
		switch rng.Intn(5) {
		case 1, 2: // some NULLs
			v.Nulls = make([]bool, n)
			for r := range v.Nulls {
				v.Nulls[r] = rng.Intn(4) == 0
			}
		case 3: // a bitmap shorter than the vector
			v.Nulls = make([]bool, n/2)
			for r := range v.Nulls {
				v.Nulls[r] = rng.Intn(3) == 0
			}
		case 4: // every value NULL
			v.Nulls = make([]bool, n)
			for r := range v.Nulls {
				v.Nulls[r] = rng.Intn(20) != 0 || n < 10
			}
		}
		b.Cols[c] = v
	}
	return b
}

func kernelKeys(rng *rand.Rand) []types.SortKey {
	cols := rng.Perm(len(kernelSchema))[:1+rng.Intn(3)]
	keys := make([]types.SortKey, len(cols))
	for i, c := range cols {
		keys[i] = types.SortKey{Col: c, Desc: rng.Intn(2) == 0}
	}
	return keys
}

// goSyntax renders a value so that -0 and +0 differ.
func goSyntax(x any) string { return fmt.Sprintf("%#v", x) }

func TestTypedKernelsMatchDatum(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 36; trial++ {
		n := []int{0, 1, 2, 17, 300, 4097}[trial%6]
		b := kernelBatch(rng, n, false)
		keys := kernelKeys(rng)
		name := fmt.Sprintf("trial %d (%d rows, keys %v)", trial, n, keys)

		perm := types.SortPerm(b, keys)
		if want := refSortPerm(b, keys); !slices.Equal(perm, want) {
			t.Fatalf("%s: SortPerm differs from the stable Datum sort", name)
		}
		sorted := types.SortBatch(b, keys)
		if !types.IsSorted(sorted, keys) || goSyntax(sorted.Rows()) != goSyntax(b.Gather(perm).Rows()) {
			t.Fatalf("%s: SortBatch is not the SortPerm gather", name)
		}
		refSorted := true
		for i := 1; i < n; i++ {
			refSorted = refSorted && refCompareRows(b, i-1, i, keys) <= 0
		}
		if types.IsSorted(b, keys) != refSorted {
			t.Fatalf("%s: IsSorted = %v, Datum order says %v", name, !refSorted, refSorted)
		}
		for r := 0; r+1 < n && r < 50; r++ {
			if c, want := types.CompareAt(b, r, b, r+1, keys), refCompareRows(b, r, r+1, keys); c != want {
				t.Fatalf("%s: CompareAt(%d, %d) = %d, want %d", name, r, r+1, c, want)
			}
		}

		hashCols := rng.Perm(len(kernelSchema))[:1+rng.Intn(4)]
		hs := hashring.HashBatchCols(b, hashCols, []uint32{7})
		if len(hs) != n+1 || hs[0] != 7 {
			t.Fatalf("%s: HashBatchCols did not append to dst", name)
		}
		for r := 0; r < n; r++ {
			want := refHashRow(b, r, hashCols)
			if hs[r+1] != want || hashring.HashRowCols(b.Row(r), hashCols) != want {
				t.Fatalf("%s: hash of row %d over %v differs", name, r, hashCols)
			}
		}

		for c, v := range b.Cols {
			if got, want := types.StatsOf(v), refStatsOf(v); goSyntax(got) != goSyntax(want) {
				t.Fatalf("%s col %d: StatsOf = %+v, want %+v", name, c, got, want)
			}
			checkWriteColumn(t, fmt.Sprintf("%s col %d", name, c), v, rng)
		}
	}
}

// checkWriteColumn checks a column file's per-block stats and encoding
// choice, and the column stats merged from the blocks.
func checkWriteColumn(t *testing.T, name string, v *types.Vector, rng *rand.Rand) {
	t.Helper()
	opts := rosfile.WriteOptions{BlockRows: []int{0, 1, 5, 64}[rng.Intn(4)], Sorted: rng.Intn(2) == 0}
	img, stats := rosfile.WriteColumn(v, opts)
	if want := refStatsOf(v); goSyntax(stats) != goSyntax(want) {
		t.Fatalf("%s: WriteColumn stats = %+v, want %+v", name, stats, want)
	}
	r, err := rosfile.NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	for bi, blk := range r.Footer().Blocks {
		part := v.Slice(int(blk.RowStart), int(blk.RowStart+blk.RowCount))
		min, max, nulls := refBlockStats(part)
		if goSyntax(blk.Min) != goSyntax(min) || goSyntax(blk.Max) != goSyntax(max) || blk.NullCount != nulls {
			t.Fatalf("%s block %d: footer %v..%v/%d, want %v..%v/%d", name, bi, blk.Min, blk.Max, blk.NullCount, min, max, nulls)
		}
		if got, want := colenc.Choose(part, opts.Sorted), refChoose(part, opts.Sorted); got != want {
			t.Fatalf("%s block %d: Choose = %v, want %v", name, bi, got, want)
		}
	}
}

// TestTypedKernelsNaN: Datum.Compare is no strict weak order once NaN is
// in play, so a NaN sort key need only leave the other rows sorted and the
// rows intact; stats, encoding choice and hashes still match exactly.
func TestTypedKernelsNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 24; trial++ {
		n := []int{2, 33, 700, 4097}[trial%4]
		b := kernelBatch(rng, n, true)
		keys := []types.SortKey{{Col: 1, Desc: trial%2 == 1}}
		if trial%3 == 0 {
			keys = append(keys, types.SortKey{Col: 0})
		}
		sorted := types.SortBatch(b, keys)
		var prev = -1
		for r := 0; r < n; r++ {
			if f := sorted.Cols[1]; !f.IsNull(r) && math.IsNaN(f.Floats[r]) {
				continue
			}
			if prev >= 0 && refCompareRows(sorted, prev, r, keys) > 0 {
				t.Fatalf("trial %d: non-NaN rows %d and %d out of order", trial, prev, r)
			}
			prev = r
		}
		got, want := rowTexts(sorted), rowTexts(b)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: sorting changed the rows", trial)
		}
		for c, v := range b.Cols {
			checkWriteColumn(t, fmt.Sprintf("trial %d col %d", trial, c), v, rng)
		}
		hs := hashring.HashBatchCols(b, []int{1, 2}, nil)
		for r := 0; r < n; r++ {
			if hs[r] != refHashRow(b, r, []int{1, 2}) {
				t.Fatalf("trial %d: hash of row %d differs", trial, r)
			}
		}
	}
}

// rowTexts is the sorted multiset of a batch's rows as text.
func rowTexts(b *types.Batch) []string {
	out := make([]string, b.NumRows())
	for i := range out {
		out[i] = goSyntax(b.Row(i))
	}
	slices.Sort(out)
	return out
}

// TestWriteColumnStatsNaNBlock: a block that starts with NaN has NaN for
// its min and max, which would hide its other values from a merge of
// block stats; the column stats still equal one fold over the column.
func TestWriteColumnStatsNaNBlock(t *testing.T) {
	v := &types.Vector{Typ: types.Float64, Floats: []float64{5, 6, math.NaN(), 1, 9, math.NaN()}}
	_, stats := rosfile.WriteColumn(v, rosfile.WriteOptions{BlockRows: 2})
	if want := refStatsOf(v); goSyntax(stats) != goSyntax(want) {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}
}
