package exec

import (
	"hash/maphash"
	"math"
	"math/bits"

	"eon/internal/types"
)

// keyTable maps composite keys to dense ids in first-seen order. It is
// the one hash table of the vectorized engine: HashAggregate uses the id
// as its group index, Distinct as a set membership test, and HashJoin
// chains build rows off it.
//
// Layout: open addressing with linear probing over two parallel slot
// arrays — the key's full hash and its id+1 (0 = empty) — and one typed
// vector per key column into which a key is appended once, when its id
// is assigned. The table starts empty and doubles in storage from free,
// its node's list, giving outgrown arrays back at once and the rest on
// release, so a warm node builds it in storage an earlier query grew.
//
// Equality is what rowKey encodes, which the row engine keeps as the
// reference: NULL equals NULL (callers that must not match NULLs — the
// join — leave those rows out of the selection), floats compare by bit
// pattern (so -0.0 != +0.0 and a NaN equals itself), and a column of a
// different physical class than the table's matches nothing.
type keyTable struct {
	cols   []*types.Vector // key columns, one value per id
	hashes []uint64        // per slot
	ids    []int32         // per slot: id+1, 0 = empty
	n      int

	hbuf []uint64  // hash scratch, reused across calls
	free *FreeList // nil: the table allocates
}

// strSeed keys the string hash; one seed serves every table because ids,
// not slot positions, are what callers observe.
var strSeed = maphash.MakeSeed()

// nullHash stands in for a NULL value so NULL and the zero value it is
// stored over land in different slots.
const nullHash = 0x9ae16a3b2f90404f

// mix folds one value into a running hash (wyhash's multiply-fold).
func mix(h, x uint64) uint64 {
	hi, lo := bits.Mul64(h^x^0x2d358dccaa6c78a5, 0x8bb84b93962eacc9)
	return hi ^ lo
}

func (t *keyTable) len() int { return t.n }

// reset forgets every key but keeps the allocated storage.
func (t *keyTable) reset() {
	for i := range t.ids {
		t.ids[i] = 0
	}
	for _, c := range t.cols {
		c.Ints, c.Floats, c.Strs, c.Bools, c.Nulls = c.Ints[:0], c.Floats[:0], c.Strs[:0], c.Bools[:0], nil
	}
	t.n = 0
}

// release gives the table's storage back and empties it. No one may read
// its key vectors, or views of them, afterwards.
func (t *keyTable) release() {
	giveSlots(t.free, t.hashes)
	giveSlots(t.free, t.ids)
	giveSlots(t.free, t.hbuf)
	t.free.PutVectors(t.cols)
	*t = keyTable{free: t.free}
}

// memBytes is the resident size of the slot arrays and key vectors, the
// figure the memory governor is charged.
func (t *keyTable) memBytes() int64 {
	n := int64(cap(t.hashes))*8 + int64(cap(t.ids))*4
	for _, c := range t.cols {
		n += vectorMemBytes(c)
	}
	return n
}

// hash returns one hash per selected row of cols (sel nil = rows 0..m-1),
// computed a column at a time. The slice is scratch owned by the table
// and valid until the next call.
func (t *keyTable) hash(cols []*types.Vector, sel []int, m int) []uint64 {
	if cap(t.hbuf) < m {
		giveSlots(t.free, t.hbuf)
		t.hbuf = takeSlots[uint64](t.free, m)
	}
	hs := t.hbuf[:m]
	for j := range hs {
		hs[j] = 0
	}
	for _, v := range cols {
		nulls := v.Nulls
		switch v.Typ.Physical() {
		case types.Int64:
			for j := range hs {
				i := selRow(sel, j)
				x := uint64(v.Ints[i])
				if i < len(nulls) && nulls[i] {
					x = nullHash
				}
				hs[j] = mix(hs[j], x)
			}
		case types.Float64:
			for j := range hs {
				i := selRow(sel, j)
				x := math.Float64bits(v.Floats[i])
				if i < len(nulls) && nulls[i] {
					x = nullHash
				}
				hs[j] = mix(hs[j], x)
			}
		case types.Varchar:
			for j := range hs {
				i := selRow(sel, j)
				x := maphash.String(strSeed, v.Strs[i])
				if i < len(nulls) && nulls[i] {
					x = nullHash
				}
				hs[j] = mix(hs[j], x)
			}
		case types.Bool:
			for j := range hs {
				i := selRow(sel, j)
				x := uint64(1)
				if i < len(nulls) && nulls[i] {
					x = nullHash
				} else if v.Bools[i] {
					x = 2
				}
				hs[j] = mix(hs[j], x)
			}
		}
	}
	return hs
}

// sameClasses reports whether cols have the physical classes of the
// table's key columns (vacuously true before the first insert).
func (t *keyTable) sameClasses(cols []*types.Vector) bool {
	for c, k := range t.cols {
		if k.Typ.Physical() != cols[c].Typ.Physical() {
			return false
		}
	}
	return true
}

// equal compares stored key id with row i of cols.
func (t *keyTable) equal(id int, cols []*types.Vector, i int) bool {
	for c, k := range t.cols {
		v := cols[c]
		kn, vn := k.IsNull(id), v.IsNull(i)
		if kn || vn {
			if kn != vn {
				return false
			}
			continue
		}
		switch k.Typ.Physical() {
		case types.Int64:
			if k.Ints[id] != v.Ints[i] {
				return false
			}
		case types.Float64:
			if math.Float64bits(k.Floats[id]) != math.Float64bits(v.Floats[i]) {
				return false
			}
		case types.Varchar:
			if k.Strs[id] != v.Strs[i] {
				return false
			}
		case types.Bool:
			if k.Bools[id] != v.Bools[i] {
				return false
			}
		}
	}
	return true
}

// reserve makes room for n keys without further growth. Callers pass a
// count of rows they already hold, never an estimate.
func (t *keyTable) reserve(n int) {
	size := 16
	for size*3 < n*4 {
		size *= 2
	}
	if size > len(t.ids) {
		t.rehash(size)
	}
}

// rehash moves every occupied slot into arrays of the given power-of-two
// size (stored hashes make this independent of the keys) and gives the
// key vectors room for as many keys as those slots may hold, so slots and
// keys grow together by doubling instead of by append's smaller steps.
func (t *keyTable) rehash(size int) {
	hashes, ids := takeSlots[uint64](t.free, size), takeSlots[int32](t.free, size)
	mask := uint64(size - 1)
	for s, id := range t.ids {
		if id == 0 {
			continue
		}
		h := t.hashes[s]
		p := h & mask
		for ids[p] != 0 {
			p = (p + 1) & mask
		}
		hashes[p], ids[p] = h, id
	}
	giveSlots(t.free, t.hashes)
	giveSlots(t.free, t.ids)
	t.hashes, t.ids = hashes, ids
	for i, c := range t.cols {
		t.cols[i] = t.free.Vector(c.Typ, size/4*3)
		t.cols[i].AppendVector(c)
		t.free.PutVectors([]*types.Vector{c})
	}
}

// probe walks key (h, row i of cols) along its probe sequence and returns
// its id, or -1 and the empty slot that ended the walk.
func (t *keyTable) probe(h uint64, cols []*types.Vector, i int) (id int32, slot uint64) {
	mask := uint64(len(t.ids) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		id := t.ids[p]
		if id == 0 {
			return -1, p
		}
		if t.hashes[p] == h && t.equal(int(id-1), cols, i) {
			return id - 1, p
		}
	}
}

// insert resolves the selected rows from position from on to ids,
// assigning the next id to each key not seen before: out[j] receives the
// id of row selRow(sel, j), and hs[j] must be its hash from t.hash.
//
// admit, when non-nil, is asked before each new key is stored (with the
// position of the row that carries it); a false answer stops the insert
// there and the position is returned so the caller can make room and
// resume. Without admit the result is always len(hs).
func (t *keyTable) insert(hs []uint64, cols []*types.Vector, sel []int, from int, out []int32, admit func(j int) bool) int {
	if t.cols == nil {
		t.cols = make([]*types.Vector, len(cols))
		for c, v := range cols {
			t.cols[c] = t.free.Vector(v.Typ, len(t.ids)/4*3)
		}
	}
	for j := from; j < len(hs); j++ {
		if (t.n+1)*4 > len(t.ids)*3 {
			t.reserve(t.n + 1)
		}
		i := selRow(sel, j)
		id, slot := t.probe(hs[j], cols, i)
		if id < 0 {
			if admit != nil && !admit(j) {
				return j
			}
			for c, v := range cols {
				t.cols[c].AppendFrom(v, i)
			}
			id = int32(t.n)
			t.hashes[slot], t.ids[slot] = hs[j], id+1
			t.n++
		}
		out[j] = id
	}
	return len(hs)
}

// find resolves the selected rows to the ids of stored keys, -1 where
// the key is absent. It never changes the table.
func (t *keyTable) find(hs []uint64, cols []*types.Vector, sel []int, out []int32) {
	if t.n == 0 || !t.sameClasses(cols) {
		for j := range hs {
			out[j] = -1
		}
		return
	}
	for j, h := range hs {
		out[j], _ = t.probe(h, cols, selRow(sel, j))
	}
}
