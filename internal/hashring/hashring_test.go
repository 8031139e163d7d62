package hashring

import (
	"slices"
	"testing"
	"testing/quick"

	"eon/internal/types"
)

func TestRingPartitionsSpace(t *testing.T) {
	for _, n := range []int{1, 3, 4, 7, 16} {
		r := NewRing(n)
		if r.Count() != n {
			t.Fatalf("count = %d", r.Count())
		}
		if r.Segment(0).Start != 0 {
			t.Errorf("n=%d: first segment starts at %d", n, r.Segment(0).Start)
		}
		if r.Segment(n-1).End != SpaceSize {
			t.Errorf("n=%d: last segment ends at %d", n, r.Segment(n-1).End)
		}
		for i := 1; i < n; i++ {
			if r.Segment(i).Start != r.Segment(i-1).End {
				t.Errorf("n=%d: gap between segment %d and %d", n, i-1, i)
			}
		}
	}
}

// Property: every hash lands in exactly the segment SegmentFor returns.
func TestSegmentForContains(t *testing.T) {
	r := NewRing(7)
	f := func(h uint32) bool {
		return r.Segment(r.SegmentFor(h)).Contains(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentForBoundaries(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 4; i++ {
		seg := r.Segment(i)
		if got := r.SegmentFor(uint32(seg.Start)); got != i {
			t.Errorf("start of segment %d maps to %d", i, got)
		}
		if got := r.SegmentFor(uint32(seg.End - 1)); got != i {
			t.Errorf("end-1 of segment %d maps to %d", i, got)
		}
	}
}

func TestHashDeterminism(t *testing.T) {
	row := types.Row{types.NewInt(42), types.NewString("grace")}
	h1 := HashRowCols(row, []int{0, 1})
	h2 := HashRowCols(row, []int{0, 1})
	if h1 != h2 {
		t.Error("hash not deterministic")
	}
	h3 := HashRowCols(row, []int{1, 0})
	if h1 == h3 {
		t.Error("column order should matter")
	}
}

func TestHashNullDistinct(t *testing.T) {
	a := HashDatum(types.NullDatum(types.Int64))
	b := HashDatum(types.NewInt(0))
	if a == b {
		t.Error("NULL must hash differently from zero")
	}
}

func TestHashTypeTagged(t *testing.T) {
	// int 0 and empty string should not collide trivially.
	if HashDatum(types.NewInt(0)) == HashDatum(types.NewString("")) {
		t.Error("types should be tagged in hash input")
	}
}

func TestHashBatchColsMatchesRow(t *testing.T) {
	s := types.Schema{{Name: "a", Type: types.Int64}, {Name: "b", Type: types.Varchar}}
	b := types.BatchFromRows(s, []types.Row{
		{types.NewInt(1), types.NewString("x")},
		{types.NewInt(2), types.NewString("y")},
	})
	hs := HashBatchCols(b, []int{0, 1}, nil)
	for i := 0; i < b.NumRows(); i++ {
		if hs[i] != HashRowCols(b.Row(i), []int{0, 1}) {
			t.Errorf("row %d batch hash mismatch", i)
		}
	}
}

// Property: hash distribution over segments is reasonably even.
func TestHashDistribution(t *testing.T) {
	r := NewRing(4)
	counts := make([]int, 4)
	n := 20000
	for i := 0; i < n; i++ {
		h := HashRowCols(types.Row{types.NewInt(int64(i))}, []int{0})
		counts[r.SegmentFor(h)]++
	}
	for i, c := range counts {
		frac := float64(c) / float64(n)
		if frac < 0.15 || frac > 0.35 {
			t.Errorf("segment %d has fraction %.3f, expected near 0.25", i, frac)
		}
	}
}

// Locate covers every hash exactly once: the segment is the one that
// contains it, the parts of a segment are consecutive sub-ranges from 0
// at its start to of-1 at its end, and integer keys spread evenly over
// every (segment, part) cell.
func TestRingLocate(t *testing.T) {
	for _, tc := range []struct{ shards, of int }{
		{1, 1}, {1, 3}, {2, 4}, {3, 2}, {4, 1}, {4, 3}, {7, 5},
	} {
		r := NewRing(tc.shards)
		for seg := 0; seg < tc.shards; seg++ {
			s := r.Segment(seg)
			for _, h := range []uint64{s.Start, s.End - 1} {
				gotSeg, part := r.Locate(uint32(h), tc.of)
				want := 0
				if h == s.End-1 {
					want = tc.of - 1
				}
				if gotSeg != seg || part != want {
					t.Errorf("%+v: Locate(%d) = (%d, %d), want (%d, %d)", tc, h, gotSeg, part, seg, want)
				}
			}
		}
		const n = 40000
		counts := make([][]int, tc.shards)
		for i := range counts {
			counts[i] = make([]int, tc.of)
		}
		last := map[int]int{}
		hashes := make([]uint32, 0, n)
		for i := 0; i < n; i++ {
			hashes = append(hashes, HashDatum(types.NewInt(int64(i))))
		}
		slices.Sort(hashes)
		for _, h := range hashes {
			seg, part := r.Locate(h, tc.of)
			if seg != r.SegmentFor(h) || part < 0 || part >= tc.of {
				t.Fatalf("%+v: Locate(%d) = (%d, %d) outside the ring", tc, h, seg, part)
			}
			if part < last[seg] {
				t.Fatalf("%+v: hash %d in part %d after part %d: parts overlap", tc, h, part, last[seg])
			}
			last[seg] = part
			counts[seg][part]++
		}
		fair := float64(n) / float64(tc.shards*tc.of)
		for seg, row := range counts {
			for part, c := range row {
				if f := float64(c) / fair; f < 0.75 || f > 1.25 {
					t.Errorf("%+v: cell (%d, %d) holds %d keys, %.2f× its share", tc, seg, part, c, f)
				}
			}
		}
	}
}

func TestBuddyLayout(t *testing.T) {
	b := BuddyLayout{Nodes: 4, Offset: 1}
	for seg := 0; seg < 8; seg++ {
		base := b.BaseNode(seg)
		buddy := b.BuddyNode(seg)
		if base == buddy {
			t.Errorf("segment %d: buddy on same node %d", seg, base)
		}
		if buddy != (base+1)%4 {
			t.Errorf("segment %d: buddy %d, want ring rotation", seg, buddy)
		}
	}
}

func TestSegmentForRow(t *testing.T) {
	r := NewRing(3)
	row := types.Row{types.NewInt(99), types.NewString("q")}
	want := r.SegmentFor(HashRowCols(row, []int{1}))
	if got := r.SegmentForRow(row, []int{1}); got != want {
		t.Errorf("SegmentForRow = %d, want %d", got, want)
	}
}

func BenchmarkHashBatchCols(b *testing.B) {
	s := types.Schema{{Name: "id", Type: types.Int64}, {Name: "name", Type: types.Varchar}, {Name: "v", Type: types.Float64}}
	batch := types.NewBatch(s, 2000)
	for i := 0; i < 2000; i++ {
		batch.AppendRow(types.Row{types.NewInt(int64(i * 7919)), types.NewString("device-" + string(rune('a'+i%26))), types.NewFloat(float64(i) / 3)})
	}
	dst := make([]uint32, 0, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = HashBatchCols(batch, []int{0, 1, 2}, dst[:0])
	}
}
