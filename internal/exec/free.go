package exec

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"eon/internal/expr"
	"eon/internal/types"
)

// FreeList is a node's one free list (DESIGN.md §8, "Who owns a buffer"):
// the vectors its scans lend and its hash operators copy into, the slot
// arrays, id and row scratch and aggregate states of their tables, and
// the aggregations' expression arenas, reused from query to query. It
// keeps storage by exact class (a vector by physical class and capacity,
// a []uint64, []int32, []int or []aggState by capacity; a power of two up
// to 1<<maxClass; arenas in one class): per scan
// worker, at most perWorker items a class and freeBytesPerWorker bytes
// in all. What does not fit is left to the collector. A nil list
// allocates. Safe for concurrent use. In test binaries (types.Poisoning)
// what is given back is poisoned, and giving back what it holds panics.
type FreeList struct {
	vecs   [types.Bool + 1]classes[*types.Vector] // by physical class
	hashes classes[[]uint64]
	ids    classes[[]int32]
	rows   classes[[]int]
	states classes[[]aggState]
	arenas classes[*expr.Arena] // all in class 0: an arena has no one size

	perClass int
	bound    int64
	held     atomic.Int64
}

const (
	maxClass  = 17 // 128Ki: the largest grouping of a tpch_warm node
	perWorker = 32 // tpch_warm allocates as much with 64
	// tpch_warm's hash tables and lent vectors need 8-16 MiB a node.
	freeBytesPerWorker = 8 << 20
)

// classes is one kind of storage, by log2 of its capacity.
type classes[T any] [maxClass + 1]struct {
	mu   sync.Mutex
	free []kept[T]
}

// kept is an item, its address (to catch a second give-back) and size.
type kept[T any] struct {
	x     T
	at    unsafe.Pointer
	bytes int64
}

// NewFreeList returns an empty list for a node whose scans run conc
// workers wide.
func NewFreeList(conc int) *FreeList {
	conc = max(conc, 1)
	return &FreeList{perClass: conc * perWorker, bound: int64(conc) * freeBytesPerWorker}
}

// HeldBytes is what the list holds, by capacity (exec.free_bytes).
func (f *FreeList) HeldBytes() int64 { return f.held.Load() }

// class returns the smallest k with 1<<k >= n.
func class(n int) int { return bits.Len(uint(max(n, 1) - 1)) }

// get takes an item of class k from c, if it holds one.
func get[T any](f *FreeList, c *classes[T], k int) (x T, ok bool) {
	if k > maxClass {
		return x, false
	}
	sh := &c[k]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := len(sh.free)
	if n == 0 {
		return x, false
	}
	e := sh.free[n-1]
	sh.free[n-1] = kept[T]{}
	sh.free = sh.free[:n-1]
	f.held.Add(-e.bytes)
	return e.x, true
}

// put keeps e, of capacity size, in c if that is a class with room.
func put[T any](f *FreeList, c *classes[T], size int, e kept[T]) {
	k := bits.Len(uint(size)) - 1
	if size <= 0 || size&(size-1) != 0 || k > maxClass {
		return
	}
	sh := &c[k]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := 0; types.Poisoning && i < len(sh.free); i++ {
		if sh.free[i].at == e.at {
			panic("exec: storage given back to a free list twice")
		}
	}
	if len(sh.free) < f.perClass && f.held.Add(e.bytes) <= f.bound {
		sh.free = append(sh.free, e)
	} else if len(sh.free) < f.perClass {
		f.held.Add(-e.bytes)
	}
}

// slotsOf returns f's classes of []T.
func slotsOf[T any](f *FreeList) *classes[[]T] {
	for _, c := range [...]any{&f.hashes, &f.ids, &f.rows, &f.states} {
		if c, ok := c.(*classes[[]T]); ok {
			return c
		}
	}
	panic("exec: a free list keeps no such slots")
}

// takeSlots returns n zeroed elements, from f if it has some.
func takeSlots[T any](f *FreeList, n int) []T {
	if f == nil {
		return make([]T, n)
	}
	if s, ok := get(f, slotsOf[T](f), class(n)); ok {
		clear(s)
		return s[:n]
	}
	return make([]T, n, max(n, 1<<min(class(n), maxClass)))
}

// giveSlots gives s back to f. No one may read it afterwards.
func giveSlots[T any](f *FreeList, s []T) {
	if f == nil || cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	if st, ok := any(s).([]aggState); ok && types.Poisoning {
		for i := range st {
			st[i] = aggState{count: types.PoisonInt, sumI: types.PoisonInt, sumF: math.NaN()}
		}
	} else if types.Poisoning {
		types.Poison(s)
	}
	put(f, slotsOf[T](f), cap(s), kept[[]T]{s, unsafe.Pointer(&s[0]), int64(cap(s)) * int64(unsafe.Sizeof(s[0]))})
}

// growSlots resizes scratch s to n elements, from f when it must grow.
func growSlots[T any](f *FreeList, s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	giveSlots(f, s)
	return takeSlots[T](f, n)
}

// Arena returns a reset expression arena, from f if it keeps one.
func (f *FreeList) Arena() *expr.Arena {
	if f != nil {
		if a, ok := get(f, &f.arenas, 0); ok {
			return a
		}
	}
	return new(expr.Arena)
}

// PutArena resets a (which poisons it in test binaries) and gives it
// back. No one may read what it handed out afterwards.
func (f *FreeList) PutArena(a *expr.Arena) {
	if f == nil {
		return
	}
	a.Reset()
	put(f, &f.arenas, 1, kept[*expr.Arena]{a, unsafe.Pointer(a), a.Bytes()})
}

// Vector returns an empty vector of type t with room for n values.
func (f *FreeList) Vector(t types.Type, n int) *types.Vector {
	if f == nil {
		return types.NewVector(t, n)
	}
	if v, ok := get(f, &f.vecs[t.Physical()], class(n)); ok {
		v.Typ = t
		return v
	}
	return types.NewVector(t, max(n, 1<<min(class(n), maxClass)))
}

// vecBytes is the size of one value of each physical class.
var vecBytes = [types.Bool + 1]int64{types.Int64: 8, types.Float64: 8, types.Varchar: 16, types.Bool: 1}

// vecCap is the capacity of v's values (only its class's slice has any).
func vecCap(v *types.Vector) int {
	return max(cap(v.Ints), cap(v.Floats), cap(v.Strs), cap(v.Bools))
}

// PutVectors gives vectors back, skipping nils. No one may hold them or a
// view of them afterwards. Their strings, to capacity, are cleared so
// they do not stay alive in the list; null bitmaps are dropped.
func (f *FreeList) PutVectors(vs []*types.Vector) {
	if f == nil {
		return
	}
	if types.Poisoning {
		types.Poison(vs) // which drops the strings too
	}
	for _, v := range vs {
		if v == nil {
			continue
		}
		if !types.Poisoning {
			clear(v.Strs[:cap(v.Strs)])
		}
		v.Truncate(v.Typ)
		p := v.Typ.Physical()
		put(f, &f.vecs[p], vecCap(v), kept[*types.Vector]{v, unsafe.Pointer(v), int64(vecCap(v)) * vecBytes[p]})
	}
}

// room returns v emptied as a vector of type t if it has room for n
// values, else gives v back (if not nil) and returns one from the list.
func (f *FreeList) room(v *types.Vector, t types.Type, n int) *types.Vector {
	if v != nil && v.Typ.Physical() == t.Physical() && vecCap(v) >= n {
		v.Truncate(t)
		return v
	}
	f.PutVectors([]*types.Vector{v})
	return f.Vector(t, n)
}

// Gather returns the rows sel of b (nil: every row) in vectors from f.
func (f *FreeList) Gather(b *types.Batch, sel []int) *types.Batch {
	out := &types.Batch{Cols: make([]*types.Vector, len(b.Cols))}
	for i, c := range b.Cols {
		out.Cols[i] = f.Vector(c.Typ, selLen(b, sel))
		out.Cols[i].AppendSel(c, sel)
	}
	return out
}
