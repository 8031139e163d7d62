package colenc

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
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
	for _, enc := range []Encoding{Plain, RLE, Dict, DictVarint} {
		roundtrip(t, v, enc)
	}
}

func TestRoundtripFloats(t *testing.T) {
	v := types.NewVector(types.Float64, 4)
	for _, f := range []float64{1.5, -2.25, 0, 1e300} {
		v.Append(types.NewFloat(f))
	}
	v.Append(types.NullDatum(types.Float64))
	for _, enc := range []Encoding{Plain, RLE, Decimal} {
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
		for _, enc := range []Encoding{Plain, RLE, Delta, FOR, Dict, Decimal} {
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
	f := types.NewVector(types.Float64, 1)
	f.Append(types.NewFloat(0.5))
	dec := Encode(f, Decimal)
	if _, err := Decode(dec, types.Int64); !errors.Is(err, ErrCorrupt) {
		t.Errorf("DECIMAL block decoded as an integer column: %v", err)
	}
	dec[3] = byte(len(pow10)) // tag, rows, nulls, exponent
	if _, err := Decode(dec, types.Float64); !errors.Is(err, ErrCorrupt) {
		t.Errorf("DECIMAL block with exponent %d: %v", len(pow10), err)
	}
}

func TestEncodingString(t *testing.T) {
	if Plain.String() != "PLAIN" || FOR.String() != "FOR" || Decimal.String() != "DECIMAL" || Dict.String() != "DICT" || DictVarint.String() != "DICT_VARINT" {
		t.Error("encoding names")
	}
}

// bitsEqual reports whether two vectors hold the same NULLs and the same
// payload bits in every slot, NULL slots included.
func bitsEqual(a, b *types.Vector) bool {
	if a.Typ.Physical() != b.Typ.Physical() || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.IsNull(i) != b.IsNull(i) {
			return false
		}
		switch a.Typ.Physical() {
		case types.Int64:
			if a.Ints[i] != b.Ints[i] {
				return false
			}
		case types.Float64:
			if math.Float64bits(a.Floats[i]) != math.Float64bits(b.Floats[i]) {
				return false
			}
		case types.Varchar:
			if a.Strs[i] != b.Strs[i] {
				return false
			}
		case types.Bool:
			if a.Bools[i] != b.Bools[i] {
				return false
			}
		}
	}
	return true
}

// oldBlocks are blocks in the layouts the writer emitted before decimal
// floats and bit-packed dictionary codes: a plain float block, a
// one-uvarint-per-code dictionary block (DictVarint) and a FOR block,
// each with a NULL. Shared storage still holds blocks like these, so they
// must keep decoding to the vectors they were written from.
var oldBlocks = []struct {
	name string
	hex  string
	want func() *types.Vector
}{
	{"plain float", "000b0103000000000000f83fec51b81e85ebb13f00000000000002c000000000000000000000000000000080" +
		"000000000000f07f010000000000f87f9c7500883ce4377e010000000000000000000000000045409a9999999999b93f",
		func() *types.Vector {
			v := types.NewVector(types.Float64, 0)
			for i, x := range []float64{1.5, 0.07, -2.25, math.Copysign(0, -1), math.Inf(1), math.NaN(), 1e300, 5e-324, 42, 0.1} {
				if i == 3 {
					v.Append(types.NullDatum(types.Float64))
				}
				v.Append(types.NewFloat(x))
			}
			return v
		}},
	{"uvarint dictionary", "020a01040403414952044d41494c04534849500000010002030100020200",
		func() *types.Vector {
			v := types.NewVector(types.Varchar, 0)
			for i, x := range []string{"AIR", "MAIL", "AIR", "SHIP", "", "MAIL", "AIR", "SHIP", "SHIP", "AIR"} {
				if i == 4 {
					v.Append(types.NullDatum(types.Varchar))
					continue
				}
				v.Append(types.NewString(x))
			}
			return v
		}},
	{"frame of reference", "040a01020011640006010000200300faa000c0a76100001100060000",
		func() *types.Vector {
			v := types.NewVector(types.Int64, 0)
			for i, x := range []int64{100, 131, -7, 100, 4000, 5, 99999, 0, 17, 3} {
				if i == 2 {
					v.Append(types.NullDatum(types.Int64))
					continue
				}
				v.Append(types.NewInt(x))
			}
			return v
		}},
}

func TestOldBlocksStillDecode(t *testing.T) {
	for _, tc := range oldBlocks {
		data, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		want := tc.want()
		got, err := Decode(data, want.Typ)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bitsEqual(got, want) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, got, want)
		}
	}
}

// TestFloatsRoundtripBitForBit: random decimal floats and random doubles,
// with the values a decimal frame must refuse or take exactly (−0, NaN
// payloads, ±Inf, subnormals, ±2^52, 2^53) and NULL slots holding any of
// them, round-trip bit for bit through every float encoding and through
// the one Choose picks.
func TestFloatsRoundtripBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specials := []float64{math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8dead00000001),
		math.Float64frombits(0xfff0000000000007), math.Inf(1), math.Inf(-1), 5e-324, 2.2250738585072009e-308,
		1 << 52, -(1 << 52), 1 << 53, (1 << 52) + 0.5, 0.1, 1e18, 123456789.123}
	for trial := 0; trial < 300; trial++ {
		n := []int{1, 2, 7, 100, MaxBlockRows}[rng.Intn(5)]
		e := rng.Intn(8)
		v := types.NewVector(types.Float64, n)
		for i := 0; i < n; i++ {
			var f float64
			switch r := rng.Intn(100); {
			case trial%3 != 0 || r < 90: // decimals with at most e digits
				f = float64(rng.Int63n(2_000_000)-1_000_000) / math.Pow10(e)
			case r < 95:
				f = rng.NormFloat64() * 1e6
			default:
				f = specials[rng.Intn(len(specials))]
			}
			v.Append(types.NewFloat(f))
		}
		if trial%2 == 0 { // NULLs over live payloads
			v.Nulls = make([]bool, n)
			for i := range v.Nulls {
				v.Nulls[i] = rng.Intn(10) == 0
			}
		}
		for _, enc := range []Encoding{Plain, RLE, Decimal, Choose(v, false), Choose(v, true)} {
			got, err := Decode(Encode(v, enc), types.Float64)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, enc, err)
			}
			if !bitsEqual(got, v) {
				t.Fatalf("trial %d %v: round trip changed bits", trial, enc)
			}
		}
	}
}

// TestDecimalExponent pins the exponent the frame takes: the smallest at
// which every slot survives, and none when one slot cannot.
func TestDecimalExponent(t *testing.T) {
	for _, tc := range []struct {
		fs []float64
		e  int // -1: not a decimal block
	}{
		{[]float64{1, 2, 50}, 0},
		{[]float64{0.5, 3}, 1},
		{[]float64{0.07, 0.1, 0}, 2},
		{[]float64{1 << 52, -(1 << 52)}, 0},
		{[]float64{1 << 53}, -1},
		{[]float64{0.1, math.Copysign(0, -1)}, -1},
		{[]float64{0.1, math.NaN()}, -1},
		{[]float64{math.Inf(1)}, -1},
		{[]float64{5e-324}, -1},
		{[]float64{1.0 / 3}, 16},                // 0.3333333333333333 has sixteen digits
		{[]float64{math.Nextafter(0.3, 1)}, -1}, // 0.30000000000000004
		{[]float64{1.0 / 3, 3}, -1},             // 3e16 is past 2^52
	} {
		v := types.NewVector(types.Float64, len(tc.fs))
		for _, f := range tc.fs {
			v.Append(types.NewFloat(f))
		}
		got := exponent(Encode(v, Decimal))
		if got != tc.e {
			t.Errorf("%v: exponent %d, want %d", tc.fs, got, tc.e)
		}
		if want := map[bool]Encoding{true: Decimal, false: Plain}[tc.e >= 0]; Choose(v, false) != want {
			t.Errorf("%v: Choose = %v, want %v", tc.fs, Choose(v, false), want)
		}
	}
	// A slot past the sample that needs a larger exponent still gets it.
	v := types.NewVector(types.Float64, MaxBlockRows)
	for i := 0; i < MaxBlockRows; i++ {
		v.Append(types.NewFloat(float64(i % 50)))
	}
	v.Floats[MaxBlockRows-3] = 0.125
	if e := exponent(Encode(v, Choose(v, false))); e != 3 {
		t.Errorf("block with one three-digit slot: exponent %d, want 3", e)
	}
}

// exponent returns the exponent of a Decimal block without NULLs, or -1
// for a block of another encoding.
func exponent(data []byte) int {
	if Encoding(data[0]) != Decimal {
		return -1
	}
	_, n := binary.Uvarint(data[1:]) // row count; the null count is one zero byte
	return int(data[1+n+1])
}

// TestDictCodesPacked: a dictionary block spends bits.Len(len(dict)-1)
// bits per code.
func TestDictCodesPacked(t *testing.T) {
	v := types.NewVector(types.Varchar, MaxBlockRows)
	for i := 0; i < MaxBlockRows; i++ {
		v.Append(types.NewString([]string{"A", "N", "R", "O", "F"}[i%5]))
	}
	data := Encode(v, Choose(v, false))
	if Encoding(data[0]) != Dict {
		t.Fatalf("encoded as %v, want DICT", Encoding(data[0]))
	}
	if codes := MaxBlockRows * 3 / 8; len(data) > codes+20 {
		t.Errorf("dictionary block of %d rows and 5 entries takes %d bytes, want about %d for the codes", MaxBlockRows, len(data), codes)
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
		{types.Float64, []Encoding{Plain, RLE, Decimal}, func(i int) types.Datum { return types.NewFloat(float64(i%4) / 2) }},
		{types.Float64, []Encoding{Decimal}, func(i int) types.Datum { return types.NewFloat(float64(i*7919%100000)/100 - 300) }},
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
