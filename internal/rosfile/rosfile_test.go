package rosfile

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"eon/internal/colenc"
	"eon/internal/types"
)

func intVec(xs ...int64) *types.Vector {
	v := types.NewVector(types.Int64, len(xs))
	for _, x := range xs {
		v.Append(types.NewInt(x))
	}
	return v
}

func TestWriteReadColumn(t *testing.T) {
	v := intVec(1, 2, 3, 4, 5, 6, 7, 8)
	img, _ := WriteColumn(v, WriteOptions{BlockRows: 3, Sorted: true})
	r, err := NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowCount() != 8 || r.Type() != types.Int64 {
		t.Fatalf("rowcount=%d type=%v", r.RowCount(), r.Type())
	}
	if len(r.Footer().Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(r.Footer().Blocks))
	}
	all, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if all.Ints[i] != i+1 {
			t.Fatalf("value %d = %d", i, all.Ints[i])
		}
	}
}

func TestBlockMinMax(t *testing.T) {
	v := intVec(10, 20, 30, 40, 50, 60)
	img, _ := WriteColumn(v, WriteOptions{BlockRows: 2})
	r, err := NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	blocks := r.Footer().Blocks
	if blocks[0].Min.I != 10 || blocks[0].Max.I != 20 {
		t.Errorf("block 0 min/max = %v/%v", blocks[0].Min, blocks[0].Max)
	}
	if blocks[2].Min.I != 50 || blocks[2].Max.I != 60 {
		t.Errorf("block 2 min/max = %v/%v", blocks[2].Min, blocks[2].Max)
	}
	if blocks[1].RowStart != 2 || blocks[1].RowCount != 2 {
		t.Errorf("block 1 position = %d+%d", blocks[1].RowStart, blocks[1].RowCount)
	}
}

func TestNullCounts(t *testing.T) {
	v := types.NewVector(types.Varchar, 4)
	v.Append(types.NewString("a"))
	v.Append(types.NullDatum(types.Varchar))
	v.Append(types.NullDatum(types.Varchar))
	v.Append(types.NewString("b"))
	img, _ := WriteColumn(v, WriteOptions{})
	r, err := NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	if r.Footer().Blocks[0].NullCount != 2 {
		t.Errorf("nullcount = %d", r.Footer().Blocks[0].NullCount)
	}
	all, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !all.IsNull(1) || !all.IsNull(2) || all.IsNull(0) {
		t.Error("null roundtrip wrong")
	}
}

func TestReadBlockIndividually(t *testing.T) {
	v := intVec(1, 2, 3, 4, 5)
	img, _ := WriteColumn(v, WriteOptions{BlockRows: 2})
	r, err := NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r.ReadBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Len() != 2 || b1.Ints[0] != 3 {
		t.Errorf("block 1 = %v", b1.Ints)
	}
	if _, err := r.ReadBlock(99); err == nil {
		t.Error("out-of-range block should error")
	}
}

func TestBlockForRow(t *testing.T) {
	v := intVec(1, 2, 3, 4, 5, 6, 7)
	img, _ := WriteColumn(v, WriteOptions{BlockRows: 3})
	r, _ := NewReader(img)
	cases := map[int64]int{0: 0, 2: 0, 3: 1, 6: 2}
	for row, want := range cases {
		if got := r.BlockForRow(row); got != want {
			t.Errorf("BlockForRow(%d) = %d, want %d", row, got, want)
		}
	}
	if r.BlockForRow(100) != -1 {
		t.Error("out of range row should be -1")
	}
}

func TestEmptyColumn(t *testing.T) {
	v := types.NewVector(types.Float64, 0)
	img, _ := WriteColumn(v, WriteOptions{})
	r, err := NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowCount() != 0 || len(r.Footer().Blocks) != 0 {
		t.Error("empty column should have no blocks")
	}
	all, err := r.ReadAll()
	if err != nil || all.Len() != 0 {
		t.Error("empty readall")
	}
}

func TestCorruptDetection(t *testing.T) {
	v := intVec(1, 2, 3)
	img, _ := WriteColumn(v, WriteOptions{})
	if _, err := NewReader(img[:4]); err == nil {
		t.Error("truncated file should fail")
	}
	bad := append([]byte{}, img...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := NewReader(bad); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := NewReader(nil); err == nil {
		t.Error("nil input should fail")
	}
}

// withFooter rebuilds a column file image around footer bytes fb,
// keeping img's blocks.
func withFooter(t *testing.T, img, fb []byte) []byte {
	t.Helper()
	flen := int(binary.LittleEndian.Uint32(img[len(img)-8:]))
	out := append([]byte{}, img[:len(img)-8-flen]...)
	out = append(out, fb...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(fb)))
	return binary.LittleEndian.AppendUint32(out, Magic)
}

// editFooter rebuilds img with its parsed footer changed by edit.
func editFooter(t *testing.T, img []byte, edit func(*Footer)) []byte {
	t.Helper()
	r, err := NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	f := r.Footer()
	f.Blocks = append([]BlockMeta{}, f.Blocks...)
	edit(&f)
	return withFooter(t, img, encodeFooter(f))
}

// TestCorruptInputsReturnErrCorrupt feeds the decoders headers whose
// sizes are out of range. Each must fail with ErrCorrupt, never panic or
// allocate what the header claims.
func TestCorruptInputsReturnErrCorrupt(t *testing.T) {
	img, _ := WriteColumn(intVec(1, 2, 3, 4, 5), WriteOptions{BlockRows: 2})
	open := func(img []byte, use func(*Reader) error) func() error {
		return func() error {
			r, err := NewReader(img)
			if err != nil {
				return err
			}
			return use(r)
		}
	}
	uv := func(prefix []byte, v uint64) []byte { return binary.AppendUvarint(prefix, v) }
	openColumn := func(img []byte, name string) func() error {
		return func() error {
			b, err := OpenBundle(img)
			if err != nil {
				return err
			}
			_, err = b.Column(name)
			return err
		}
	}
	for _, tc := range []struct {
		name string
		run  func() error
		want error
	}{
		{"negative block length", open(editFooter(t, img, func(f *Footer) { f.Blocks[0].Length = -1 }),
			func(r *Reader) error { return r.ReadBlockInto(&types.Vector{}, 0) }), ErrCorrupt},
		{"footer row count 2^50", open(editFooter(t, img, func(f *Footer) { f.RowCount = 1 << 50 }),
			func(r *Reader) error { _, err := r.ReadAll(); return err }), ErrCorrupt},
		{"block count 2^60", open(withFooter(t, img, uv([]byte{byte(types.Int64), 0}, 1<<60)),
			func(*Reader) error { return nil }), ErrCorrupt},
		{"dictionary size 2^60", func() error {
			block := uv([]byte{byte(colenc.Dict), 1, 0}, 1<<60)
			return colenc.DecodeInto(&types.Vector{}, block, types.Varchar)
		}, colenc.ErrCorrupt},
		{"block row count 2^60", func() error {
			block := append(uv([]byte{byte(colenc.RLE)}, 1<<60), 0, 1, 2)
			return colenc.DecodeInto(&types.Vector{}, block, types.Int64)
		}, colenc.ErrCorrupt},
		{"footer string length 2^64-1", open(withFooter(t, img,
			uv([]byte{byte(types.Varchar), 0, 1, 0, 0, 0, 0, 0, 3}, math.MaxUint64)),
			func(*Reader) error { return nil }), ErrCorrupt},
		{"bundle entry length -3", openColumn(testBundle(bundleEntry(uv(nil, 1), "a", 5, -3), 8), "a"), ErrCorrupt},
		{"bundle entry end past 2^63", openColumn(testBundle(bundleEntry(uv(nil, 1), "a", 1, math.MaxInt64), 8), "a"), ErrCorrupt},
		{"bundle entry count 2^20", openColumn(hugeBundle, "a"), ErrCorrupt},
	} {
		if err := tc.run(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if n := allocBytes(func() { OpenBundle(hugeBundle) }); n >= 64<<10 {
		t.Errorf("the %d-byte bundle claiming 2^20 entries allocated %d bytes", len(hugeBundle), n)
	}
}

// hugeBundle is 11 bytes whose directory claims 2^20 entries.
var hugeBundle = testBundle(binary.AppendUvarint(nil, 1<<20), 0)

// testBundle is a bundle image of images zero bytes followed by dir.
func testBundle(dir []byte, images int) []byte {
	out := append(make([]byte, images), dir...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(dir)))
	return binary.LittleEndian.AppendUint32(out, BundleMagic)
}

// bundleEntry appends one directory entry to dir.
func bundleEntry(dir []byte, name string, off, length int64) []byte {
	dir = binary.AppendUvarint(dir, uint64(len(name)))
	dir = append(dir, name...)
	dir = binary.AppendVarint(dir, off)
	return binary.AppendVarint(dir, length)
}

// allocBytes returns how many bytes the process allocated while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Property: any int64 column roundtrips through the file format.
func TestQuickRoundtrip(t *testing.T) {
	f := func(xs []int64) bool {
		v := intVec(xs...)
		img, _ := WriteColumn(v, WriteOptions{BlockRows: 4})
		r, err := NewReader(img)
		if err != nil {
			return false
		}
		all, err := r.ReadAll()
		if err != nil || all.Len() != len(xs) {
			return false
		}
		for i, x := range xs {
			if all.Ints[i] != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: footer stats bound every value in each block.
func TestQuickStatsBound(t *testing.T) {
	f := func(xs []int64) bool {
		if len(xs) == 0 {
			return true
		}
		v := intVec(xs...)
		img, _ := WriteColumn(v, WriteOptions{BlockRows: 3})
		r, err := NewReader(img)
		if err != nil {
			return false
		}
		for bi, blk := range r.Footer().Blocks {
			data, err := r.ReadBlock(bi)
			if err != nil {
				return false
			}
			for i := 0; i < data.Len(); i++ {
				x := data.Ints[i]
				if x < blk.Min.I || x > blk.Max.I {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBundleRoundtrip(t *testing.T) {
	a, _ := WriteColumn(intVec(1, 2, 3), WriteOptions{})
	sVec := types.NewVector(types.Varchar, 2)
	sVec.Append(types.NewString("x"))
	sVec.Append(types.NewString("y"))
	b, _ := WriteColumn(sVec, WriteOptions{})
	img, err := BuildBundle([]string{"id", "name"}, [][]byte{a, b})
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := OpenBundle(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundle.Names()) != 2 {
		t.Fatalf("names = %v", bundle.Names())
	}
	r, err := bundle.Open("name")
	if err != nil {
		t.Fatal(err)
	}
	all, err := r.ReadAll()
	if err != nil || all.Strs[1] != "y" {
		t.Errorf("bundle column read: %v %v", err, all)
	}
	if _, err := bundle.Open("missing"); err == nil {
		t.Error("missing column should error")
	}
}

func TestBundleMismatchedInputs(t *testing.T) {
	if _, err := BuildBundle([]string{"a"}, nil); err == nil {
		t.Error("mismatched names/images should fail")
	}
}

func TestBundleCorrupt(t *testing.T) {
	if _, err := OpenBundle([]byte{1, 2, 3}); err == nil {
		t.Error("short bundle should fail")
	}
	col, _ := WriteColumn(intVec(1), WriteOptions{})
	img, _ := BuildBundle([]string{"a"}, [][]byte{col})
	bad := append([]byte{}, img...)
	bad[len(bad)-2] ^= 0xFF
	if _, err := OpenBundle(bad); err == nil {
		t.Error("corrupt magic should fail")
	}
}

func TestStringMinMaxInFooter(t *testing.T) {
	v := types.NewVector(types.Varchar, 3)
	v.Append(types.NewString("melon"))
	v.Append(types.NewString("apple"))
	v.Append(types.NewString("zebra"))
	img, _ := WriteColumn(v, WriteOptions{})
	r, _ := NewReader(img)
	blk := r.Footer().Blocks[0]
	if blk.Min.S != "apple" || blk.Max.S != "zebra" {
		t.Errorf("string min/max = %q/%q", blk.Min.S, blk.Max.S)
	}
}
