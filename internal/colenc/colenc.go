// Package colenc implements the column encodings used inside ROS container
// files: plain, run-length (RLE), dictionary, delta, frame-of-reference
// bit packing, and scaled-integer decimals for floats. Vertica's execution
// engine "operates directly on encoded data" (paper §2.1); here the scan
// decodes blocks, but the encoding choices and their compression
// behaviour on sorted data are reproduced.
//
// An encoded block is self-describing: a one-byte encoding tag, a null
// bitmap section, then the payload. Decode needs only the logical type.
// A tag, once written to shared storage, decodes forever: the writer
// stops emitting an old layout (DictVarint) but the reader keeps it.
package colenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"eon/internal/types"
)

// Encoding identifies a block encoding scheme.
type Encoding uint8

// The supported encodings.
const (
	Plain Encoding = iota
	RLE
	// DictVarint is the first dictionary layout, one uvarint per code.
	// Blocks already on shared storage carry it, so it still decodes;
	// the writer emits Dict instead.
	DictVarint
	Delta
	FOR     // frame-of-reference bit packing for integers
	Decimal // floats as scaled integers: i / 10^e, i frame-of-reference packed
	Dict    // dictionary with bit-packed codes
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case Plain:
		return "PLAIN"
	case RLE:
		return "RLE"
	case DictVarint:
		return "DICT_VARINT"
	case Delta:
		return "DELTA"
	case FOR:
		return "FOR"
	case Decimal:
		return "DECIMAL"
	case Dict:
		return "DICT"
	}
	return fmt.Sprintf("ENC(%d)", uint8(e))
}

// ErrCorrupt is returned when a block fails to decode.
var ErrCorrupt = errors.New("colenc: corrupt block")

// MaxBlockRows caps the values in one block. The ROS writer never cuts
// longer blocks (rosfile.DefaultBlockRows is this value), and DecodeInto
// rejects a longer row count as corrupt: RLE runs and width-0 FOR frames
// let a block's row count run far ahead of its byte length, so this cap
// is what bounds the storage a corrupt header can make the decoder
// allocate.
const MaxBlockRows = 4096

type buf struct{ b []byte }

func (w *buf) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *buf) varint(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *buf) byte(c byte)      { w.b = append(w.b, c) }
func (w *buf) f64(f float64)    { w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(f)) }
func (w *buf) str(s string)     { w.uvarint(uint64(len(s))); w.b = append(w.b, s...) }

type rd struct {
	b   []byte
	pos int
	err error
}

func (r *rd) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.err = ErrCorrupt
		return 0
	}
	r.pos += n
	return v
}

func (r *rd) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.err = ErrCorrupt
		return 0
	}
	r.pos += n
	return v
}

func (r *rd) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.b) {
		r.err = ErrCorrupt
		return 0
	}
	c := r.b[r.pos]
	r.pos++
	return c
}

func (r *rd) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.b) {
		r.err = ErrCorrupt
		return nil
	}
	p := r.b[r.pos : r.pos+n]
	r.pos += n
	return p
}

func (r *rd) f64() float64 {
	p := r.take(8)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

func (r *rd) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.pos) {
		r.err = ErrCorrupt
		return ""
	}
	return string(r.take(int(n)))
}

// writeNulls serializes the null positions of v: uvarint count followed by
// delta-encoded positions.
func writeNulls(w *buf, v *types.Vector) {
	cnt := 0
	for _, isNull := range v.Nulls {
		if isNull {
			cnt++
		}
	}
	w.uvarint(uint64(cnt))
	prev := 0
	for p, isNull := range v.Nulls {
		if isNull {
			w.uvarint(uint64(p - prev))
			prev = p
		}
	}
}

// readNulls returns the block's null bitmap (nil when no value is NULL),
// in spare's storage when that is large enough.
func readNulls(r *rd, n int, spare []bool) []bool {
	cnt := r.uvarint()
	if r.err != nil || cnt == 0 {
		return nil
	}
	nulls := room(spare, n)[:n]
	clear(nulls)
	pos := 0
	for i := uint64(0); i < cnt; i++ {
		d := r.uvarint()
		if r.err != nil || d >= uint64(n-pos) {
			r.err = ErrCorrupt
			return nil
		}
		pos += int(d)
		nulls[pos] = true
	}
	return nulls
}

// Choose picks a reasonable encoding for the vector. sorted indicates the
// vector is in sort order (the ROS writer knows this from the projection's
// sort key), which favours RLE and delta. A float block that is not a
// sorted run is Decimal when every slot reads back exactly from a scaled
// integer (decimalFrame), else Plain.
func Choose(v *types.Vector, sorted bool) Encoding {
	n := v.Len()
	if n == 0 {
		return Plain
	}
	switch v.Typ.Physical() {
	case types.Int64:
		if sorted {
			if runFraction(v) > 0.5 {
				return RLE
			}
			return Delta
		}
		if runFraction(v) > 0.5 {
			return RLE
		}
		return FOR
	case types.Varchar:
		card := distinctCap(v, n/4+1)
		if card <= n/4 {
			if sorted && runFraction(v) > 0.5 {
				return RLE
			}
			return Dict
		}
		return Plain
	case types.Bool:
		return RLE
	default:
		if sorted && runFraction(v) > 0.5 {
			return RLE
		}
		if _, _, _, ok := decimalFrame(v.Floats); ok {
			return Decimal
		}
		return Plain
	}
}

// runFraction estimates the fraction of adjacent pairs that are equal
// under Datum.Equal: NULL equals NULL, -0 equals +0, and a NaN equals
// every number.
func runFraction(v *types.Vector) float64 {
	n := v.Len()
	if n < 2 {
		return 0
	}
	var eq int
	switch v.Typ.Physical() {
	case types.Int64:
		eq = adjacentEqual(v.Ints, v.Nulls, func(a, b int64) bool { return a == b })
	case types.Float64:
		eq = adjacentEqual(v.Floats, v.Nulls, func(a, b float64) bool { return !(a < b || a > b) })
	case types.Varchar:
		eq = adjacentEqual(v.Strs, v.Nulls, func(a, b string) bool { return a == b })
	case types.Bool:
		eq = adjacentEqual(v.Bools, v.Nulls, func(a, b bool) bool { return a == b })
	}
	return float64(eq) / float64(n-1)
}

func adjacentEqual[T any](xs []T, nulls []bool, equal func(a, b T) bool) int {
	eq := 0
	prevNull := len(nulls) > 0 && nulls[0]
	for i := 1; i < len(xs); i++ {
		null := i < len(nulls) && nulls[i]
		if null == prevNull && (null || equal(xs[i], xs[i-1])) {
			eq++
		}
		prevNull = null
	}
	return eq
}

// distinctCap counts the distinct strings of a Varchar vector up to a cap
// (then returns cap+1). NULL counts as the text "NULL", as Datum.String
// renders it.
func distinctCap(v *types.Vector, cap int) int {
	seen := make(map[string]struct{}, cap)
	for i, s := range v.Strs {
		if v.IsNull(i) {
			s = "NULL"
		}
		seen[s] = struct{}{}
		if len(seen) > cap {
			return cap + 1
		}
	}
	return len(seen)
}

// Encode serializes the vector with the given encoding. Encodings that do
// not apply to the vector's type or values fall back to Plain, and
// DictVarint is written as Dict. v must hold at most MaxBlockRows values,
// or Decode rejects the block.
func Encode(v *types.Vector, enc Encoding) []byte { return AppendEncode(nil, v, enc) }

// AppendEncode is Encode appending the block to dst.
func AppendEncode(dst []byte, v *types.Vector, enc Encoding) []byte {
	if enc == DictVarint {
		enc = Dict
	}
	if !applies(enc, v.Typ.Physical()) {
		enc = Plain
	}
	var lo, hi int64
	var e int
	switch enc {
	case FOR:
		// The unpacker handles widths up to 56 bits; wider frames gain
		// nothing over plain varints anyway.
		if lo, hi = minMax(v.Ints); bits.Len64(uint64(hi-lo)) > maxWidth {
			enc = Plain
		}
	case Decimal:
		var ok bool
		if e, lo, hi, ok = decimalFrame(v.Floats); !ok {
			enc = Plain
		}
	}
	w := &buf{b: dst}
	w.byte(byte(enc))
	w.uvarint(uint64(v.Len()))
	writeNulls(w, v)
	switch enc {
	case Plain:
		encodePlain(w, v)
	case RLE:
		encodeRLE(w, v)
	case Dict:
		encodeDict(w, v)
	case Delta:
		encodeDelta(w, v)
	case FOR:
		p := w.frame(lo, hi, len(v.Ints))
		for _, x := range v.Ints {
			p.put(uint64(x - lo))
		}
		p.flush()
	case Decimal:
		w.byte(byte(e))
		p := w.frame(lo, hi, len(v.Floats))
		scale := pow10[e]
		for _, f := range v.Floats {
			p.put(uint64(int64(math.Round(f*scale)) - lo))
		}
		p.flush()
	}
	return w.b
}

// applies reports whether enc can encode values of physical class phys.
// Every encoding may decode only blocks of the class it applies to.
func applies(enc Encoding, phys types.Type) bool {
	switch enc {
	case Delta, FOR:
		return phys == types.Int64
	case Decimal:
		return phys == types.Float64
	case Dict, DictVarint:
		return phys == types.Varchar
	}
	return true
}

// Decode deserializes a block produced by Encode into a new vector of
// logical type t.
func Decode(data []byte, t types.Type) (*types.Vector, error) {
	v := &types.Vector{}
	if err := DecodeInto(v, data, t); err != nil {
		return nil, err
	}
	return v, nil
}

// room returns an empty slice with capacity for n values: s's own storage
// when it is large enough, new storage otherwise.
func room[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// DecodeInto is Decode into dst: dst's previous contents are discarded
// and its storage is reused where it fits, so a caller decoding block
// after block into one vector allocates only when a block outgrows it.
// The result equals a fresh Decode; it never aliases data. After an
// error dst's contents are unspecified.
func DecodeInto(dst *types.Vector, data []byte, t types.Type) error {
	r := &rd{b: data}
	enc := Encoding(r.byte())
	rows := r.uvarint()
	if r.err != nil {
		return r.err
	}
	if rows > MaxBlockRows {
		return ErrCorrupt
	}
	n := int(rows)
	v := types.Vector{Typ: t, Nulls: readNulls(r, n, dst.Nulls)}
	switch t.Physical() {
	case types.Int64:
		v.Ints = room(dst.Ints, n)
	case types.Float64:
		v.Floats = room(dst.Floats, n)
	case types.Varchar:
		v.Strs = room(dst.Strs, n)
	case types.Bool:
		v.Bools = room(dst.Bools, n)
	}
	*dst = v
	if !applies(enc, t.Physical()) {
		return fmt.Errorf("colenc: %v block for a %v column: %w", enc, t, ErrCorrupt)
	}
	switch enc {
	case Plain:
		decodePlain(r, dst, n)
	case RLE:
		decodeRLE(r, dst, n)
	case DictVarint:
		decodeDictVarint(r, dst, n)
	case Delta:
		decodeDelta(r, dst, n)
	case FOR:
		decodeFOR(r, dst, n)
	case Decimal:
		decodeDecimal(r, dst, n)
	case Dict:
		decodeDict(r, dst, n)
	default:
		return fmt.Errorf("colenc: unknown encoding tag %d: %w", enc, ErrCorrupt)
	}
	if r.err != nil {
		return r.err
	}
	if dst.Len() != n {
		return ErrCorrupt
	}
	return nil
}

func encodePlain(w *buf, v *types.Vector) {
	switch v.Typ.Physical() {
	case types.Int64:
		for _, x := range v.Ints {
			w.varint(x)
		}
	case types.Float64:
		for _, f := range v.Floats {
			w.f64(f)
		}
	case types.Varchar:
		for _, s := range v.Strs {
			w.str(s)
		}
	case types.Bool:
		for _, b := range v.Bools {
			if b {
				w.byte(1)
			} else {
				w.byte(0)
			}
		}
	}
}

func decodePlain(r *rd, v *types.Vector, n int) {
	switch v.Typ.Physical() {
	case types.Int64:
		for i := 0; i < n; i++ {
			v.Ints = append(v.Ints, r.varint())
		}
	case types.Float64:
		p := r.take(8 * n)
		if r.err != nil {
			return
		}
		out := v.Floats[:n]
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
		v.Floats = out
	case types.Varchar:
		for i := 0; i < n; i++ {
			v.Strs = append(v.Strs, r.str())
		}
	case types.Bool:
		for i := 0; i < n; i++ {
			v.Bools = append(v.Bools, r.byte() != 0)
		}
	}
}

func encodeRLE(w *buf, v *types.Vector) {
	n := v.Len()
	i := 0
	for i < n {
		j := i + 1
		for j < n && rawEqual(v, j, i) {
			j++
		}
		w.uvarint(uint64(j - i))
		writeRaw(w, v, i)
		i = j
	}
}

func decodeRLE(r *rd, v *types.Vector, n int) {
	for v.Len() < n {
		run := int(r.uvarint())
		if r.err != nil || run <= 0 || v.Len()+run > n {
			r.err = ErrCorrupt
			return
		}
		readRawRun(r, v, run)
	}
}

// rawEqual compares physical values ignoring nullness (nulls are stored in
// the bitmap; their payload slot is the zero value, which still run-length
// encodes correctly).
func rawEqual(v *types.Vector, i, j int) bool {
	switch v.Typ.Physical() {
	case types.Int64:
		return v.Ints[i] == v.Ints[j]
	case types.Float64:
		return math.Float64bits(v.Floats[i]) == math.Float64bits(v.Floats[j])
	case types.Varchar:
		return v.Strs[i] == v.Strs[j]
	case types.Bool:
		return v.Bools[i] == v.Bools[j]
	}
	return false
}

func writeRaw(w *buf, v *types.Vector, i int) {
	switch v.Typ.Physical() {
	case types.Int64:
		w.varint(v.Ints[i])
	case types.Float64:
		w.f64(v.Floats[i])
	case types.Varchar:
		w.str(v.Strs[i])
	case types.Bool:
		if v.Bools[i] {
			w.byte(1)
		} else {
			w.byte(0)
		}
	}
}

func readRawRun(r *rd, v *types.Vector, run int) {
	switch v.Typ.Physical() {
	case types.Int64:
		x := r.varint()
		for k := 0; k < run; k++ {
			v.Ints = append(v.Ints, x)
		}
	case types.Float64:
		f := r.f64()
		for k := 0; k < run; k++ {
			v.Floats = append(v.Floats, f)
		}
	case types.Varchar:
		s := r.str()
		for k := 0; k < run; k++ {
			v.Strs = append(v.Strs, s)
		}
	case types.Bool:
		b := r.byte() != 0
		for k := 0; k < run; k++ {
			v.Bools = append(v.Bools, b)
		}
	}
}

func encodeDict(w *buf, v *types.Vector) {
	index := make(map[string]uint32)
	var dict []string
	codes := make([]uint32, 0, v.Len())
	for _, s := range v.Strs {
		c, ok := index[s]
		if !ok {
			c = uint32(len(dict))
			index[s] = c
			dict = append(dict, s)
		}
		codes = append(codes, c)
	}
	w.uvarint(uint64(len(dict)))
	for _, s := range dict {
		w.str(s)
	}
	p := w.packed(dictWidth(len(dict)), len(codes))
	for _, c := range codes {
		p.put(uint64(c))
	}
	p.flush()
}

// dictWidth is the bit width of the codes of a dictionary of n entries.
func dictWidth(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// readDict reads a dictionary block's entries.
func readDict(r *rd) []string {
	// Every entry takes at least its one-byte length prefix.
	dn := r.uvarint()
	if r.err != nil || dn > uint64(len(r.b)-r.pos) {
		r.err = ErrCorrupt
		return nil
	}
	dict := make([]string, dn)
	for i := range dict {
		dict[i] = r.str()
	}
	return dict
}

func decodeDict(r *rd, v *types.Vector, n int) {
	dict := readDict(r)
	if r.err != nil || n == 0 {
		return
	}
	u := r.packed(n, dictWidth(len(dict)))
	v.Strs = v.Strs[:n]
	if !lookup(v.Strs, u, dict) {
		r.err = ErrCorrupt
	}
}

func decodeDictVarint(r *rd, v *types.Vector, n int) {
	dict := readDict(r)
	for i := 0; i < n; i++ {
		c := r.uvarint()
		if r.err != nil {
			return
		}
		if c >= uint64(len(dict)) {
			r.err = ErrCorrupt
			return
		}
		v.Strs = append(v.Strs, dict[c])
	}
}

func encodeDelta(w *buf, v *types.Vector) {
	prev := int64(0)
	for _, x := range v.Ints {
		w.varint(x - prev)
		prev = x
	}
}

func decodeDelta(r *rd, v *types.Vector, n int) {
	prev := int64(0)
	for i := 0; i < n; i++ {
		prev += r.varint()
		v.Ints = append(v.Ints, prev)
	}
}

// maxWidth is the widest packed value: a value and its offset within its
// first byte (at most 7 bits) must fit one 64-bit load.
const maxWidth = 56

// pow10[e] is 10^e, exact in a float64 for every e here.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// minMax returns the smallest and largest of xs, or zeros when it is
// empty.
func minMax(xs []int64) (lo, hi int64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// decimal returns the integer i nearest f·scale, where scale is 10^e, and
// whether f is a decimal at e: |f·10^e| is at most 2^52 and i/10^e, the
// decoder's expression, gives back f bit for bit. −0, NaN, ±Inf and
// genuine doubles are decimals at no exponent.
func decimal(f, scale float64) (int64, bool) {
	x := f * scale
	if !(math.Abs(x) <= 1<<52) {
		return 0, false
	}
	i := int64(math.Round(x))
	return i, math.Float64bits(float64(i)/scale) == math.Float64bits(f)
}

// decimalSample is how many slots the exponent search tries before it
// verifies its pick over the whole block.
const decimalSample = 32

// decimalFrame returns the smallest exponent e at which every slot of fs,
// NULL slots included, is a decimal, and the range of the integers they
// scale to; ok is false when no e in 0..18 qualifies. It picks e on a
// sample, then verifies the pick in one pass over the block. A slot the
// sample missed raises e and restarts the verification, so the pick is
// exact. |i| <= 2^52 keeps the frame within 54 bits, under maxWidth.
func decimalFrame(fs []float64) (e int, lo, hi int64, ok bool) {
	if len(fs) == 0 {
		return 0, 0, 0, false
	}
	step := max(len(fs)/decimalSample, 1)
	for k := 0; k < len(fs); k += step {
		if e, ok = smallestExp(fs[k], e); !ok {
			return 0, 0, 0, false
		}
	}
	for {
		lo, hi = math.MaxInt64, math.MinInt64
		bad, scale := -1, pow10[e]
		for k, f := range fs {
			i, fits := decimal(f, scale)
			if !fits {
				bad = k
				break
			}
			lo, hi = min(lo, i), max(hi, i)
		}
		if bad < 0 {
			return e, lo, hi, true
		}
		// Every exponent below e has failed some slot, and e fails this one.
		if e, ok = smallestExp(fs[bad], e+1); !ok {
			return 0, 0, 0, false
		}
	}
}

// smallestExp returns the smallest exponent from e up at which f is a
// decimal.
func smallestExp(f float64, e int) (int, bool) {
	for ; e < len(pow10); e++ {
		if _, ok := decimal(f, pow10[e]); ok {
			return e, true
		}
	}
	return e, false
}

func decodeFOR(r *rd, v *types.Vector, n int) {
	lo, u := r.frame(n)
	out, bit, mask := v.Ints[:n], uint(0), u.mask()
	for i := range out {
		out[i] = lo + int64(u.get(bit, mask))
		bit += u.width
	}
	v.Ints = out
}

func decodeDecimal(r *rd, v *types.Vector, n int) {
	e := int(r.byte())
	if e >= len(pow10) {
		r.err = ErrCorrupt
		return
	}
	lo, u := r.frame(n)
	scale := pow10[e]
	out, bit, mask := v.Floats[:n], uint(0), u.mask()
	for i := range out {
		out[i] = float64(lo+int64(u.get(bit, mask))) / scale
		bit += u.width
	}
	v.Floats = out
}

// packer appends width-bit values to a buf least significant bit first,
// the layout unpacker reads, eight bytes at a time.
type packer struct {
	w     *buf
	acc   uint64
	n     uint // bits pending in acc, fewer than 64 between puts
	width uint
}

// packed returns a packer for n width-bit values, growing the buffer
// once for all of them.
func (w *buf) packed(width, n int) packer {
	w.b = slices.Grow(w.b, (n*width+7)/8)
	return packer{w: w, width: uint(width)}
}

// frame writes a frame-of-reference header, lo and the bit width of
// hi−lo, and returns the packer for n offsets from lo. An empty block has
// no header.
func (w *buf) frame(lo, hi int64, n int) packer {
	if n == 0 {
		return packer{w: w}
	}
	width := bits.Len64(uint64(hi - lo))
	w.varint(lo)
	w.byte(byte(width))
	return w.packed(width, n)
}

func (p *packer) put(u uint64) {
	p.acc |= u << p.n
	if p.n+p.width < 64 {
		p.n += p.width
		return
	}
	p.w.b = binary.LittleEndian.AppendUint64(p.w.b, p.acc)
	p.acc = u >> (64 - p.n) // the bits that did not fit; none when n is 0
	p.n += p.width - 64
}

func (p *packer) flush() {
	for k := uint(0); k < p.n; k += 8 {
		p.w.b = append(p.w.b, byte(p.acc>>k))
	}
}

// unpacker reads width-bit values packed least significant bit first:
// one unaligned little-endian 64-bit load, a shift and a mask per value
// while eight bytes remain, then the tail byte by byte.
type unpacker struct {
	p     []byte
	width uint // the struct stays four words, small enough for registers
}

// packed takes the bytes of n width-bit values off r.
func (r *rd) packed(n, width int) unpacker {
	if width > maxWidth {
		r.err = ErrCorrupt
		return unpacker{}
	}
	p := r.take((n*width + 7) / 8)
	return unpacker{p: p, width: uint(width)}
}

// frame reads a frame-of-reference header and returns lo and the
// unpacker of the n offsets from it. An empty block has no header.
func (r *rd) frame(n int) (int64, unpacker) {
	if n == 0 {
		return 0, unpacker{}
	}
	lo := r.varint()
	width := int(r.byte())
	return lo, r.packed(n, width)
}

// mask is the mask of one value.
func (u unpacker) mask() uint64 { return 1<<u.width - 1 }

// get returns the value at bit offset bit, given u's mask: one unaligned
// little-endian 64-bit load, a shift and a mask while eight bytes remain,
// then the tail byte by byte.
func (u unpacker) get(bit uint, mask uint64) uint64 {
	at := bit >> 3
	if at+8 > uint(len(u.p)) {
		return tail(u.p, at) >> (bit & 7) & mask
	}
	return binary.LittleEndian.Uint64(u.p[at:at+8]) >> (bit & 7) & mask
}

// lookup fills out with the entries of tab that u's values index. It
// reports false, leaving out partly filled, when a value is past tab's end.
func lookup[T any](out []T, u unpacker, tab []T) bool {
	bit, mask := uint(0), u.mask()
	for i := range out {
		c := u.get(bit, mask)
		if c >= uint64(len(tab)) {
			return false
		}
		out[i] = tab[c]
		bit += u.width
	}
	return true
}

// tail loads the fewer than eight bytes of p from at on.
func tail(p []byte, at uint) (w uint64) {
	for k, c := range p[min(at, uint(len(p))):] {
		w |= uint64(c) << (8 * k)
	}
	return w
}
