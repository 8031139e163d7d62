package colenc

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"eon/internal/types"
)

func vecEqual(t *testing.T, a, b *types.Vector) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("len %d != %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		da, db := a.Datum(i), b.Datum(i)
		if da.Null != db.Null || (!da.Null && da.Compare(db) != 0) {
			t.Fatalf("position %d: %v != %v", i, da, db)
		}
	}
}

func roundtrip(t *testing.T, v *types.Vector, enc Encoding) {
	t.Helper()
	data := Encode(v, enc)
	got, err := Decode(data, v.Typ)
	if err != nil {
		t.Fatalf("%v decode: %v", enc, err)
	}
	vecEqual(t, v, got)
}

func TestRoundtripAllEncodingsInts(t *testing.T) {
	v := types.NewVector(types.Int64, 16)
	for _, x := range []int64{5, 5, 5, -3, 100, 100, 0, 9999999, -1 << 40} {
		v.Append(types.NewInt(x))
	}
	v.Append(types.NullDatum(types.Int64))
	v.Append(types.NewInt(7))
	for _, enc := range []Encoding{Plain, RLE, Delta, FOR} {
		roundtrip(t, v, enc)
	}
}

func TestRoundtripStrings(t *testing.T) {
	v := types.NewVector(types.Varchar, 8)
	for _, s := range []string{"apple", "apple", "banana", "", "cherry", "apple"} {
		v.Append(types.NewString(s))
	}
	v.Append(types.NullDatum(types.Varchar))
	for _, enc := range []Encoding{Plain, RLE, Dict} {
		roundtrip(t, v, enc)
	}
}

func TestRoundtripFloats(t *testing.T) {
	v := types.NewVector(types.Float64, 4)
	for _, f := range []float64{1.5, -2.25, 0, 1e300} {
		v.Append(types.NewFloat(f))
	}
	v.Append(types.NullDatum(types.Float64))
	for _, enc := range []Encoding{Plain, RLE} {
		roundtrip(t, v, enc)
	}
}

func TestRoundtripBools(t *testing.T) {
	v := types.NewVector(types.Bool, 6)
	for _, b := range []bool{true, true, false, true, false, false} {
		v.Append(types.NewBool(b))
	}
	for _, enc := range []Encoding{Plain, RLE} {
		roundtrip(t, v, enc)
	}
}

func TestRoundtripEmpty(t *testing.T) {
	for _, typ := range []types.Type{types.Int64, types.Float64, types.Varchar, types.Bool} {
		v := types.NewVector(typ, 0)
		for _, enc := range []Encoding{Plain, RLE, Delta, FOR, Dict} {
			roundtrip(t, v, enc)
		}
	}
}

func TestDateTimestampLogicalTypesPreserved(t *testing.T) {
	v := types.NewVector(types.Date, 3)
	v.Append(types.NewDate(17000))
	v.Append(types.NewDate(17001))
	data := Encode(v, Delta)
	got, err := Decode(data, types.Date)
	if err != nil {
		t.Fatal(err)
	}
	if got.Typ != types.Date || got.Ints[1] != 17001 {
		t.Errorf("decoded %v %v", got.Typ, got.Ints)
	}
}

// Property: random int vectors roundtrip through every int encoding.
func TestQuickIntRoundtrip(t *testing.T) {
	f := func(xs []int64, nullMask []bool) bool {
		v := types.NewVector(types.Int64, len(xs))
		for i, x := range xs {
			if i < len(nullMask) && nullMask[i] {
				v.Append(types.NullDatum(types.Int64))
			} else {
				v.Append(types.NewInt(x))
			}
		}
		for _, enc := range []Encoding{Plain, RLE, Delta, FOR} {
			data := Encode(v, enc)
			got, err := Decode(data, types.Int64)
			if err != nil || got.Len() != v.Len() {
				return false
			}
			for i := 0; i < v.Len(); i++ {
				if v.IsNull(i) != got.IsNull(i) {
					return false
				}
				if !v.IsNull(i) && v.Ints[i] != got.Ints[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: random string vectors roundtrip through Dict and RLE.
func TestQuickStringRoundtrip(t *testing.T) {
	f := func(xs []string) bool {
		v := types.NewVector(types.Varchar, len(xs))
		for _, x := range xs {
			v.Append(types.NewString(x))
		}
		for _, enc := range []Encoding{Plain, RLE, Dict} {
			data := Encode(v, enc)
			got, err := Decode(data, types.Varchar)
			if err != nil || got.Len() != v.Len() {
				return false
			}
			for i := range xs {
				if got.Strs[i] != xs[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWideIntRangeFallsBackFromFOR(t *testing.T) {
	v := types.NewVector(types.Int64, 2)
	v.Append(types.NewInt(-1 << 62))
	v.Append(types.NewInt(1 << 62))
	roundtrip(t, v, FOR) // must still roundtrip via the plain fallback
}

func TestSortedDataCompressesBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 4096
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = rng.Int63n(1000)
	}
	unsortedVec := types.NewVector(types.Int64, n)
	for _, x := range xs {
		unsortedVec.Append(types.NewInt(x))
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	sortedVec := types.NewVector(types.Int64, n)
	for _, x := range xs {
		sortedVec.Append(types.NewInt(x))
	}
	sortedSize := len(Encode(sortedVec, Choose(sortedVec, true)))
	plainSize := len(Encode(unsortedVec, Plain))
	if sortedSize >= plainSize {
		t.Errorf("sorted encoding (%d bytes) should beat plain on unsorted (%d bytes)", sortedSize, plainSize)
	}
}

func TestChoose(t *testing.T) {
	constant := types.NewVector(types.Int64, 100)
	for i := 0; i < 100; i++ {
		constant.Append(types.NewInt(7))
	}
	if Choose(constant, true) != RLE {
		t.Errorf("constant column should choose RLE, got %v", Choose(constant, true))
	}
	lowCard := types.NewVector(types.Varchar, 100)
	for i := 0; i < 100; i++ {
		lowCard.Append(types.NewString([]string{"a", "b", "c"}[i%3]))
	}
	if Choose(lowCard, false) != Dict {
		t.Errorf("low-cardinality strings should choose Dict, got %v", Choose(lowCard, false))
	}
}

func TestDecodeCorrupt(t *testing.T) {
	v := types.NewVector(types.Int64, 2)
	v.Append(types.NewInt(1))
	v.Append(types.NewInt(2))
	data := Encode(v, Plain)
	if _, err := Decode(data[:len(data)-1], types.Int64); err == nil {
		t.Error("truncated block should fail")
	}
	if _, err := Decode([]byte{99, 1, 0}, types.Int64); err == nil {
		t.Error("bad encoding tag should fail")
	}
	if _, err := Decode(nil, types.Int64); err == nil {
		t.Error("empty input should fail")
	}
}

func TestEncodingString(t *testing.T) {
	if Plain.String() != "PLAIN" || FOR.String() != "FOR" {
		t.Error("encoding names")
	}
}

// TestDecodeIntoReuse decodes a random sequence of blocks — every
// encoding, every type class, different lengths, with and without NULLs —
// into one vector and requires each result to be exactly what a fresh
// Decode returns: nothing of the previous block (values, a longer null
// bitmap, another class's slice) may show through. The payload is wiped
// afterwards, so a result aliasing it would change.
func TestDecodeIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	classes := []struct {
		typ  types.Type
		encs []Encoding
		gen  func(i int) types.Datum
	}{
		{types.Int64, []Encoding{Plain, RLE, Delta, FOR}, func(i int) types.Datum { return types.NewInt(int64(i/3) - 5) }},
		{types.Timestamp, []Encoding{Plain, Delta}, func(i int) types.Datum { return types.Datum{K: types.Timestamp, I: int64(i) * 1000} }},
		{types.Float64, []Encoding{Plain, RLE}, func(i int) types.Datum { return types.NewFloat(float64(i%4) / 2) }},
		{types.Varchar, []Encoding{Plain, RLE, Dict}, func(i int) types.Datum { return types.NewString(string(rune('a' + i%5))) }},
		{types.Bool, []Encoding{Plain, RLE}, func(i int) types.Datum { return types.NewBool(i%3 == 0) }},
	}
	dst := &types.Vector{}
	for step := 0; step < 400; step++ {
		c := classes[rng.Intn(len(classes))]
		n, nullEvery := rng.Intn(300), 0
		if rng.Intn(2) == 0 {
			nullEvery = 2 + rng.Intn(9)
		}
		v := types.NewVector(c.typ, n)
		for i := 0; i < n; i++ {
			if nullEvery > 0 && i%nullEvery == 1 {
				v.Append(types.NullDatum(c.typ))
			} else {
				v.Append(c.gen(i))
			}
		}
		data := Encode(v, c.encs[rng.Intn(len(c.encs))])
		want, err := Decode(data, c.typ)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(dst, data, c.typ); err != nil {
			t.Fatal(err)
		}
		clear(data)
		vecEqual(t, v, dst)
		if dst.Typ != want.Typ || (dst.Nulls == nil) != (want.Nulls == nil) || len(dst.Nulls) != len(want.Nulls) ||
			len(dst.Ints) != len(want.Ints) || len(dst.Floats) != len(want.Floats) ||
			len(dst.Strs) != len(want.Strs) || len(dst.Bools) != len(want.Bools) {
			t.Fatalf("step %d (%v, %d rows): reused vector is shaped differently from a fresh decode:\n got %+v\nwant %+v", step, c.typ, n, dst, want)
		}
	}
}

// TestDecodeIntoKeepsStorage: decoding same-sized blocks into one vector
// allocates nothing per block once it has grown.
func TestDecodeIntoKeepsStorage(t *testing.T) {
	v := types.NewVector(types.Int64, 4096)
	for i := 0; i < 4096; i++ {
		v.Append(types.NewInt(int64(i * 3)))
	}
	data := Encode(v, Delta)
	dst := &types.Vector{}
	if err := DecodeInto(dst, data, types.Int64); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := DecodeInto(dst, data, types.Int64); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 { // the reader cursor may escape; the 32 KB of values must not
		t.Errorf("DecodeInto into a grown vector allocates %.0f times per block", avg)
	}
}
