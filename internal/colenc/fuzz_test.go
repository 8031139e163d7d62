package colenc

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"eon/internal/types"
)

// fuzzTypes are the column types FuzzDecodeInto decodes as, one per
// physical class, indexed by its class argument.
var fuzzTypes = []types.Type{types.Int64, types.Float64, types.Varchar, types.Bool}

// fuzzSeeds are blocks of every encoding for every class — decimal and
// full-precision floats both — with and without NULLs, at 0, 1 and
// MaxBlockRows rows, the old-layout blocks, and a truncated and a
// bit-flipped copy of each.
func fuzzSeeds() (data [][]byte, class []uint8) {
	gens := []struct {
		class uint8
		gen   func(i int) types.Datum
	}{
		{0, func(i int) types.Datum { return types.NewInt(int64(i*37%1000) - 300) }},
		{1, func(i int) types.Datum { return types.NewFloat(float64(i%500) / 4) }},
		{1, func(i int) types.Datum { return types.NewFloat(float64(i) / 3) }},
		{2, func(i int) types.Datum { return types.NewString([]string{"AIR", "MAIL", "SHIP", "", "RAIL"}[i%5]) }},
		{3, func(i int) types.Datum { return types.NewBool(i%3 == 0) }},
	}
	add := func(b []byte, c uint8) {
		data, class = append(data, b), append(class, c)
		data, class = append(data, b[:len(b)/2]), append(class, c)
		flipped := append([]byte(nil), b...)
		flipped[len(b)/2] ^= 1 << (len(b) % 8)
		data, class = append(data, flipped), append(class, c)
	}
	for _, g := range gens {
		typ := fuzzTypes[g.class]
		for _, rows := range []int{0, 1, MaxBlockRows} {
			for _, nulls := range []bool{false, true} {
				v := types.NewVector(typ, rows)
				for i := 0; i < rows; i++ {
					if nulls && i%7 == 0 {
						v.Append(types.NullDatum(typ))
					} else {
						v.Append(g.gen(i))
					}
				}
				for enc := Plain; enc <= Dict; enc++ {
					add(Encode(v, enc), g.class)
				}
			}
		}
	}
	for _, old := range oldBlocks {
		b, _ := hex.DecodeString(old.hex)
		add(b, map[types.Type]uint8{types.Int64: 0, types.Float64: 1, types.Varchar: 2}[old.want().Typ])
	}
	return data, class
}

// FuzzDecodeInto: whatever the bytes, DecodeInto never panics. It returns
// ErrCorrupt, or a vector of the block's declared row count whose storage
// stays within MaxBlockRows values. A vector it returns re-encodes, under
// the block's own encoding and under each one Choose picks, to a block
// that decodes back to the same bits.
func FuzzDecodeInto(f *testing.F) {
	data, class := fuzzSeeds()
	for i := range data {
		f.Add(data[i], class[i])
	}
	f.Fuzz(func(t *testing.T, data []byte, class uint8) {
		typ := fuzzTypes[int(class)%len(fuzzTypes)]
		v := &types.Vector{}
		if err := DecodeInto(v, data, typ); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		rows, _ := binary.Uvarint(data[1:])
		if v.Len() != int(rows) {
			t.Fatalf("decoded %d rows, block declares %d", v.Len(), rows)
		}
		if c := max(cap(v.Nulls), cap(v.Ints), cap(v.Floats), cap(v.Strs), cap(v.Bools)); c > MaxBlockRows {
			t.Fatalf("decode allocated room for %d values", c)
		}
		for _, enc := range []Encoding{Encoding(data[0]), Choose(v, false), Choose(v, true)} {
			got, err := Decode(Encode(v, enc), typ)
			if err != nil {
				t.Fatalf("re-encoded as %v: %v", enc, err)
			}
			if !bitsEqual(got, v) {
				t.Fatalf("re-encoded as %v: round trip changed bits", enc)
			}
		}
	})
}
