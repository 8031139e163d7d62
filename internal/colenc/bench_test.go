package colenc

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"eon/internal/types"
)

func benchVector(n int, sorted bool) *types.Vector {
	rng := rand.New(rand.NewSource(1))
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = rng.Int63n(1 << 20)
	}
	if sorted {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	v := types.NewVector(types.Int64, n)
	for _, x := range xs {
		v.Append(types.NewInt(x))
	}
	return v
}

func benchStrings(n, card int) *types.Vector {
	rng := rand.New(rand.NewSource(2))
	v := types.NewVector(types.Varchar, n)
	for i := 0; i < n; i++ {
		v.Append(types.NewString("value-" + string(rune('a'+rng.Intn(card)))))
	}
	return v
}

func BenchmarkEncodeInts(b *testing.B) {
	for _, tc := range []struct {
		name   string
		enc    Encoding
		sorted bool
	}{
		{"plain", Plain, false},
		{"for", FOR, false},
		{"delta-sorted", Delta, true},
		{"rle-sorted", RLE, true},
	} {
		v := benchVector(8192, tc.sorted)
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(8192 * 8)
			for i := 0; i < b.N; i++ {
				Encode(v, tc.enc)
			}
		})
	}
}

func BenchmarkDecodeInts(b *testing.B) {
	for _, tc := range []struct {
		name string
		enc  Encoding
	}{
		{"plain", Plain}, {"for", FOR}, {"delta", Delta},
	} {
		// One full block: Decode rejects longer ones. It decodes into a
		// reused vector, as the scan does, so the time is the decoder's.
		v := benchVector(MaxBlockRows, tc.enc == Delta)
		data := Encode(v, tc.enc)
		b.Run(tc.name, func(b *testing.B) {
			dst := &types.Vector{}
			b.SetBytes(MaxBlockRows * 8)
			for i := 0; i < b.N; i++ {
				if err := DecodeInto(dst, data, types.Int64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeDictStrings(b *testing.B) {
	v := benchStrings(8192, 8)
	b.ReportMetric(float64(len(Encode(v, Dict))), "bytes")
	for i := 0; i < b.N; i++ {
		Encode(v, Dict)
	}
}

// Compression ratios on sorted data, reported as metrics.
func BenchmarkCompressionRatio(b *testing.B) {
	v := benchVector(8192, true)
	plain := len(Encode(v, Plain))
	for _, tc := range []struct {
		name string
		enc  Encoding
	}{
		{"delta", Delta}, {"for", FOR}, {"rle", RLE},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				size = len(Encode(v, tc.enc))
			}
			b.ReportMetric(float64(plain)/float64(size), "x_vs_plain")
		})
	}
}

// benchFloats is one full block of floats: full-precision doubles when
// e < 0, else decimals with e fractional digits, shaped like TPC-H's
// quantities (e = 0), prices (e = 1) and discounts (e = 2).
func benchFloats(e int) *types.Vector {
	rng := rand.New(rand.NewSource(3))
	v := types.NewVector(types.Float64, MaxBlockRows)
	for i := 0; i < MaxBlockRows; i++ {
		var f float64
		switch e {
		case 0:
			f = float64(rng.Intn(50) + 1)
		case 1:
			f = float64(rng.Intn(100000))/10 + 1
		case 2:
			f = float64(rng.Intn(11)) / 100
		default:
			f = rng.Float64() * 100
		}
		v.Append(types.NewFloat(f))
	}
	return v
}

// BenchmarkDecodeFloats decodes one block of each float shape as Choose
// encodes it, into a reused vector as the scan does; B/value is the
// block's size.
func BenchmarkDecodeFloats(b *testing.B) {
	for _, tc := range []struct {
		name string
		e    int
	}{{"plain", -1}, {"decimal-e0", 0}, {"decimal-e1", 1}, {"decimal-e2", 2}} {
		v := benchFloats(tc.e)
		data := Encode(v, Choose(v, false))
		b.Run(tc.name, func(b *testing.B) {
			dst := &types.Vector{}
			b.SetBytes(MaxBlockRows * 8)
			b.ReportMetric(float64(len(data))/MaxBlockRows, "B/value")
			for i := 0; i < b.N; i++ {
				if err := DecodeInto(dst, data, types.Float64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeFloats is the writer's per-block work on floats: choose
// the encoding (the decimal exponent search) and encode into a reused
// buffer.
func BenchmarkEncodeFloats(b *testing.B) {
	for _, tc := range []struct {
		name string
		e    int
	}{{"decimal", 1}, {"doubles", -1}} {
		v := benchFloats(tc.e)
		b.Run(tc.name, func(b *testing.B) {
			var out []byte
			b.SetBytes(MaxBlockRows * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out = AppendEncode(out[:0], v, Choose(v, false))
			}
		})
	}
}

// BenchmarkDecodeDictStrings decodes one block of low- and
// higher-cardinality strings as Choose encodes them.
func BenchmarkDecodeDictStrings(b *testing.B) {
	for _, card := range []int{3, 200} {
		rng := rand.New(rand.NewSource(4))
		v := types.NewVector(types.Varchar, MaxBlockRows)
		for i := 0; i < MaxBlockRows; i++ {
			v.Append(types.NewString(fmt.Sprintf("value-%d", rng.Intn(card))))
		}
		data := Encode(v, Choose(v, false))
		b.Run(fmt.Sprintf("card-%d", card), func(b *testing.B) {
			dst := &types.Vector{}
			b.ReportMetric(float64(len(data))/MaxBlockRows, "B/value")
			for i := 0; i < b.N; i++ {
				if err := DecodeInto(dst, data, types.Varchar); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
