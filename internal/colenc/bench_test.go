package colenc

import (
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
		// One full block: Decode rejects longer ones.
		v := benchVector(MaxBlockRows, tc.enc == Delta)
		data := Encode(v, tc.enc)
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(MaxBlockRows * 8)
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data, types.Int64); err != nil {
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
