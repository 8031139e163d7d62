package rosfile

import (
	"errors"
	"testing"

	"eon/internal/colenc"
	"eon/internal/types"
)

// bundleSeeds are bundles of zero, one and three columns — integers,
// floats and strings, with NULLs, in one and in several blocks — plus a
// truncated and a bit-flipped copy of each.
func bundleSeeds() [][]byte {
	col := func(typ types.Type, rows, blockRows int, gen func(i int) types.Datum) []byte {
		v := types.NewVector(typ, rows)
		for i := 0; i < rows; i++ {
			if i%11 == 5 {
				v.Append(types.NullDatum(typ))
			} else {
				v.Append(gen(i))
			}
		}
		img, _ := WriteColumn(v, WriteOptions{BlockRows: blockRows})
		return img
	}
	ints := func(i int) types.Datum { return types.NewInt(int64(i*37%1000) - 300) }
	floats := func(i int) types.Datum { return types.NewFloat(float64(i%500) / 4) }
	strs := func(i int) types.Datum { return types.NewString([]string{"AIR", "MAIL", "", "RAIL"}[i%4]) }
	var seeds [][]byte
	for _, c := range []struct {
		names  []string
		images [][]byte
	}{
		{nil, nil},
		{[]string{"id"}, [][]byte{col(types.Int64, 1, 0, ints)}},
		{[]string{"id", "price", "mode"}, [][]byte{
			col(types.Int64, 120, 32, ints),
			col(types.Float64, 120, 64, floats),
			col(types.Varchar, 120, 50, strs),
		}},
	} {
		b, err := BuildBundle(c.names, c.images)
		if err != nil {
			panic(err)
		}
		flipped := append([]byte(nil), b...)
		flipped[len(b)/2] ^= 1 << (len(b) % 8)
		seeds = append(seeds, b, b[:len(b)/2], flipped)
	}
	return seeds
}

// FuzzOpenBundle: whatever the bytes, opening them as a bundle, opening
// each of its columns and decoding every block never panics, and each
// step either succeeds or fails with ErrCorrupt. The columns a bundle
// opens fit in it together, opening them allocates in proportion to the
// input, and a decoded block holds at most MaxBlockRows values.
func FuzzOpenBundle(f *testing.F) {
	for _, seed := range bundleSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		corrupt := func(err error) {
			t.Helper()
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, colenc.ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
		}
		var readers []*Reader
		imageBytes := 0
		opened := allocBytes(func() {
			b, err := OpenBundle(data)
			if err != nil {
				corrupt(err)
				return
			}
			for _, name := range b.Names() {
				img, err := b.Column(name)
				if err != nil {
					t.Fatalf("listed column %q: %v", name, err)
				}
				imageBytes += len(img)
				r, err := NewReader(img)
				if err != nil {
					corrupt(err)
					continue
				}
				readers = append(readers, r)
			}
		})
		if imageBytes > len(data) {
			t.Fatalf("columns of %d bytes in a %d-byte bundle", imageBytes, len(data))
		}
		if limit := 64*uint64(len(data)) + 64<<10; opened > limit {
			t.Fatalf("opening %d bytes allocated %d", len(data), opened)
		}
		v := &types.Vector{}
		for _, r := range readers {
			for i := range r.Footer().Blocks {
				if err := r.ReadBlockInto(v, i); err != nil {
					corrupt(err)
					continue
				}
				if c := max(cap(v.Nulls), cap(v.Ints), cap(v.Floats), cap(v.Strs), cap(v.Bools)); c > colenc.MaxBlockRows {
					t.Fatalf("decode allocated room for %d values", c)
				}
			}
		}
	})
}
