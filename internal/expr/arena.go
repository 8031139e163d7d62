package expr

import (
	"unsafe"

	"eon/internal/types"
)

// Arena is one owner's scratch for vectorized evaluation: the result
// vectors, null bitmaps and selections that (*Arena).EvalVec and
// (*Arena).FilterVec make come out of it instead of the heap. What it
// hands out stays valid until Reset, which the owner calls once nothing
// it evaluated is read any more (a scan worker per block, an aggregation
// per batch), so a warm arena allocates nothing. A nil *Arena allocates
// every result on the heap. An Arena is not safe for concurrent use.
type Arena struct {
	ints   slab[int64]
	floats slab[float64]
	strs   slab[string]
	bools  slab[bool]
	sels   slab[int]
	vecs   slab[types.Vector]
}

// onHeap stands in for a nil *Arena: its slabs make every run anew and
// keep nothing, so it is safe to share.
var onHeap = Arena{slab[int64]{heap: true}, slab[float64]{heap: true}, slab[string]{heap: true},
	slab[bool]{heap: true}, slab[int]{heap: true}, slab[types.Vector]{heap: true}}

func (a *Arena) orHeap() *Arena {
	if a == nil {
		return &onHeap
	}
	return a
}

// Reset takes back everything the arena handed out. In test binaries it
// first poisons it (types.Poison), so a result read after its owner moved
// on fails the differential tests instead of reading stale values.
func (a *Arena) Reset() {
	a.ints.reset()
	a.floats.reset()
	a.strs.reset()
	a.bools.reset()
	a.sels.reset()
	a.vecs.reset()
}

// Bytes is the capacity of the arena's slabs, what it keeps across
// Reset.
func (a *Arena) Bytes() int64 {
	return a.ints.bytes() + a.floats.bytes() + a.strs.bytes() + a.bools.bytes() + a.sels.bytes() + a.vecs.bytes()
}

// slab bump-allocates zeroed runs of T. Past the end of its chunk it
// starts a larger one, so after a round or two one chunk holds a whole
// round. buf[len(buf):cap(buf)] is always zero outside test binaries.
type slab[T any] struct {
	buf  []T
	old  [][]T // earlier chunks of this round, kept only to poison them
	heap bool
}

func (s *slab[T]) take(n int) []T {
	if s.heap {
		return make([]T, n)
	}
	at := len(s.buf)
	if at+n > cap(s.buf) {
		if types.Poisoning {
			s.old = append(s.old, s.buf)
		}
		s.buf, at = make([]T, 0, max(2*cap(s.buf), at+n, 8)), 0
	}
	s.buf = s.buf[:at+n]
	out := s.buf[at : at+n : at+n]
	if types.Poisoning {
		clear(out)
	}
	return out
}

func (s *slab[T]) bytes() int64 {
	var zero T
	return int64(cap(s.buf)) * int64(unsafe.Sizeof(zero))
}

func (s *slab[T]) reset() {
	if types.Poisoning {
		for _, c := range s.old {
			types.Poison(c)
		}
		types.Poison(s.buf)
		s.old = nil
	} else {
		clear(s.buf) // zero for the next round, and no string stays alive
	}
	s.buf = s.buf[:0]
}

// idx returns an empty selection with room for n row indexes.
func (a *Arena) idx(n int) []int { return a.sels.take(n)[:0] }

// gather is Vector.Gather into the arena. Its null bitmap, made when
// col has one, may be all false.
func gather(a *Arena, col *types.Vector, sel []int) *types.Vector {
	out := newDense(a, col.Typ, len(sel)).v
	out.Truncate(col.Typ) // appended to within the arena's storage
	if col.Nulls != nil {
		out.Nulls = a.bools.take(len(sel))[:0]
	}
	out.AppendSel(col, sel)
	return out
}
