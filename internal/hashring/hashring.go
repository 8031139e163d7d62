// Package hashring implements the 32-bit hash space that underlies both
// Enterprise-mode projection segmentation and Eon-mode segment shards.
//
// Each record's segmentation key is hashed into a 32-bit space. In
// Enterprise mode contiguous regions of the space are mapped to nodes by
// each projection (with a rotated "buddy" layout for fault tolerance). In
// Eon mode the space is statically divided at database creation into
// segment shards; all storage whose tuples hash into a shard's region is
// associated with that shard (paper §2.2, §3.1, Figure 3).
package hashring

import (
	"math"
	"slices"

	"eon/internal/types"
)

// SpaceSize is the size of the hash space: hashes are in [0, SpaceSize).
const SpaceSize = uint64(1) << 32

// HashDatum hashes a single datum into the 32-bit space. The hash is
// deterministic across processes so that segmentation is stable.
func HashDatum(d types.Datum) uint32 { return foldDatum(fnvOffset32, d) }

// HashRowCols hashes the given column positions of a row, in order. This is
// the SEGMENTED BY HASH(col, ...) function.
func HashRowCols(r types.Row, cols []int) uint32 {
	h := uint32(fnvOffset32)
	for _, c := range cols {
		h = foldDatum(h, r[c])
	}
	return h
}

// The hash is 32-bit FNV-1a, as hash/fnv's New32a computes it.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// HashBatchCols hashes the given column positions for every row of a batch,
// appending the hashes to dst and returning it. Each equals HashRowCols of
// the row, folded column by column over the typed slices.
func HashBatchCols(b *types.Batch, cols []int, dst []uint32) []uint32 {
	n := b.NumRows()
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	hs := dst[base:]
	for i := range hs {
		hs[i] = fnvOffset32
	}
	for _, c := range cols {
		v := b.Cols[c]
		for i := range hs {
			h := hs[i]
			if v.IsNull(i) {
				hs[i] = fnvByte(h, 0)
				continue
			}
			switch v.Typ.Physical() {
			case types.Int64:
				h = fnvUint64(fnvByte(h, 1), uint64(v.Ints[i]))
			case types.Float64:
				h = fnvUint64(fnvByte(h, 2), math.Float64bits(v.Floats[i]))
			case types.Varchar:
				h = fnvString(fnvByte(h, 3), v.Strs[i])
			case types.Bool:
				h = fnvByte(fnvByte(h, 4), b2byte(v.Bools[i]))
			}
			hs[i] = h
		}
	}
	return dst
}

func fnvByte(h uint32, c byte) uint32 { return (h ^ uint32(c)) * fnvPrime32 }

// fnvUint64 folds x's eight little-endian bytes into h.
func fnvUint64(h uint32, x uint64) uint32 {
	for k := 0; k < 8; k++ {
		h = fnvByte(h, byte(x>>(8*k)))
	}
	return h
}

func fnvString(h uint32, s string) uint32 {
	for k := 0; k < len(s); k++ {
		h = fnvByte(h, s[k])
	}
	return h
}

func b2byte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// foldDatum folds a datum's hash bytes into h: a tag byte per physical
// class (0 for NULL), then the value's little-endian or string bytes.
func foldDatum(h uint32, d types.Datum) uint32 {
	if d.Null {
		return fnvByte(h, 0)
	}
	switch d.K.Physical() {
	case types.Int64:
		return fnvUint64(fnvByte(h, 1), uint64(d.I))
	case types.Float64:
		return fnvUint64(fnvByte(h, 2), math.Float64bits(d.F))
	case types.Varchar:
		return fnvString(fnvByte(h, 3), d.S)
	case types.Bool:
		return fnvByte(fnvByte(h, 4), b2byte(d.B))
	}
	return h
}

// Segment is a contiguous half-open region [Start, End) of the hash space.
// End is exclusive and expressed in the 33-bit range so the final segment
// can end exactly at SpaceSize.
type Segment struct {
	Start uint64
	End   uint64
}

// Contains reports whether hash h falls in the segment.
func (s Segment) Contains(h uint32) bool {
	v := uint64(h)
	return v >= s.Start && v < s.End
}

// Ring divides the hash space into n equal contiguous segments, numbered
// 0..n-1 in hash order. Both modes use the same division; Eon calls the
// segments "shards".
type Ring struct {
	segments []Segment
}

// NewRing returns a ring with n segments. n must be >= 1.
func NewRing(n int) *Ring {
	if n < 1 {
		panic("hashring: ring must have at least one segment")
	}
	segs := make([]Segment, n)
	for i := 0; i < n; i++ {
		segs[i] = Segment{
			Start: SpaceSize * uint64(i) / uint64(n),
			End:   SpaceSize * uint64(i+1) / uint64(n),
		}
	}
	return &Ring{segments: segs}
}

// Count returns the number of segments.
func (r *Ring) Count() int { return len(r.segments) }

// Segment returns segment i's region.
func (r *Ring) Segment(i int) Segment { return r.segments[i] }

// SegmentFor returns the index of the segment containing hash h.
func (r *Ring) SegmentFor(h uint32) int {
	n := uint64(len(r.segments))
	idx := int(uint64(h) * n / SpaceSize)
	// Guard against boundary rounding: the computed index is correct for
	// equal divisions, but verify and adjust to keep the invariant exact.
	for idx > 0 && uint64(h) < r.segments[idx].Start {
		idx--
	}
	for idx < len(r.segments)-1 && uint64(h) >= r.segments[idx].End {
		idx++
	}
	return idx
}

// Locate returns the segment holding hash h and which of `of` equal
// sub-ranges of that segment holds it. The segment picks a row's shard;
// the part picks the member of a crunch group that serves the row when
// `of` nodes split the shard (§4.4). of must be >= 1.
func (r *Ring) Locate(h uint32, of int) (seg, part int) {
	seg = r.SegmentFor(h)
	s := r.segments[seg]
	return seg, int((uint64(h) - s.Start) * uint64(of) / (s.End - s.Start))
}

// SegmentForRow hashes the given columns of the row and returns the owning
// segment index.
func (r *Ring) SegmentForRow(row types.Row, cols []int) int {
	return r.SegmentFor(HashRowCols(row, cols))
}

// BuddyLayout computes the Enterprise-mode node placement for a projection
// and its buddy. Segment i of the base projection lives on node i mod N;
// the buddy layout is the logical ring rotated by offset, so adjacent nodes
// serve as replicas (paper §2.2).
type BuddyLayout struct {
	Nodes  int
	Offset int
}

// BaseNode returns the node index serving segment seg in the base
// projection.
func (b BuddyLayout) BaseNode(seg int) int { return seg % b.Nodes }

// BuddyNode returns the node index serving segment seg in the buddy
// projection.
func (b BuddyLayout) BuddyNode(seg int) int { return (seg + b.Offset) % b.Nodes }
