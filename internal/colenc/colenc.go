// Package colenc implements the column encodings used inside ROS container
// files: plain, run-length (RLE), dictionary, delta and frame-of-reference
// bit packing. Vertica's execution engine "operates directly on encoded
// data" (paper §2.1); here the scan decodes blocks, but the encoding
// choices and their compression behaviour on sorted data are reproduced.
//
// An encoded block is self-describing: a one-byte encoding tag, a null
// bitmap section, then the payload. Decode needs only the logical type.
package colenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"eon/internal/types"
)

// Encoding identifies a block encoding scheme.
type Encoding uint8

// The supported encodings.
const (
	Plain Encoding = iota
	RLE
	Dict
	Delta
	FOR // frame-of-reference bit packing for integers
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case Plain:
		return "PLAIN"
	case RLE:
		return "RLE"
	case Dict:
		return "DICT"
	case Delta:
		return "DELTA"
	case FOR:
		return "FOR"
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
		pos += int(r.uvarint())
		if r.err != nil || pos >= n {
			r.err = ErrCorrupt
			return nil
		}
		nulls[pos] = true
	}
	return nulls
}

// Choose picks a reasonable encoding for the vector. sorted indicates the
// vector is in sort order (the ROS writer knows this from the projection's
// sort key), which favours RLE and delta.
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
// not apply to the vector's type fall back to Plain. v must hold at most
// MaxBlockRows values, or Decode rejects the block.
func Encode(v *types.Vector, enc Encoding) []byte { return AppendEncode(nil, v, enc) }

// AppendEncode is Encode appending the block to dst.
func AppendEncode(dst []byte, v *types.Vector, enc Encoding) []byte {
	phys := v.Typ.Physical()
	switch enc {
	case Delta, FOR:
		if phys != types.Int64 {
			enc = Plain
		}
	case Dict:
		if phys != types.Varchar {
			enc = Plain
		}
	}
	// The bit-packing accumulator handles widths up to 56 bits; wider
	// frames gain nothing over plain varints anyway.
	if enc == FOR && forWidth(v.Ints) > 56 {
		enc = Plain
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
		encodeFOR(w, v)
	}
	return w.b
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
	switch enc {
	case Plain:
		decodePlain(r, dst, n)
	case RLE:
		decodeRLE(r, dst, n)
	case Dict:
		decodeDict(r, dst, n)
	case Delta:
		decodeDelta(r, dst, n)
	case FOR:
		decodeFOR(r, dst, n)
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
		for i := 0; i < n; i++ {
			v.Floats = append(v.Floats, r.f64())
		}
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
	index := make(map[string]uint64)
	var dict []string
	codes := make([]uint64, 0, v.Len())
	for _, s := range v.Strs {
		c, ok := index[s]
		if !ok {
			c = uint64(len(dict))
			index[s] = c
			dict = append(dict, s)
		}
		codes = append(codes, c)
	}
	w.uvarint(uint64(len(dict)))
	for _, s := range dict {
		w.str(s)
	}
	for _, c := range codes {
		w.uvarint(c)
	}
}

func decodeDict(r *rd, v *types.Vector, n int) {
	// Every entry takes at least its one-byte length prefix.
	dn := r.uvarint()
	if r.err != nil || dn > uint64(len(r.b)-r.pos) {
		r.err = ErrCorrupt
		return
	}
	dict := make([]string, dn)
	for i := range dict {
		dict[i] = r.str()
	}
	for i := 0; i < n; i++ {
		c := r.uvarint()
		if r.err != nil {
			return
		}
		if c >= dn {
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

// forWidth returns the bit width needed to frame-of-reference encode xs.
func forWidth(xs []int64) int {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return bits.Len64(uint64(hi - lo))
}

func encodeFOR(w *buf, v *types.Vector) {
	n := len(v.Ints)
	if n == 0 {
		return
	}
	lo, hi := v.Ints[0], v.Ints[0]
	for _, x := range v.Ints {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	span := uint64(hi - lo)
	width := bits.Len64(span)
	w.varint(lo)
	w.byte(byte(width))
	if width == 0 {
		return
	}
	var acc uint64
	accBits := 0
	for _, x := range v.Ints {
		val := uint64(x - lo)
		acc |= val << accBits
		accBits += width
		for accBits >= 8 {
			w.byte(byte(acc))
			acc >>= 8
			accBits -= 8
		}
	}
	if accBits > 0 {
		w.byte(byte(acc))
	}
}

func decodeFOR(r *rd, v *types.Vector, n int) {
	if n == 0 {
		return
	}
	lo := r.varint()
	width := int(r.byte())
	if r.err != nil {
		return
	}
	if width == 0 {
		for i := 0; i < n; i++ {
			v.Ints = append(v.Ints, lo)
		}
		return
	}
	if width > 56 { // the encoder never produces wider frames
		r.err = ErrCorrupt
		return
	}
	totalBits := n * width
	nbytes := (totalBits + 7) / 8
	p := r.take(nbytes)
	if r.err != nil {
		return
	}
	var acc uint64
	accBits := 0
	pos := 0
	mask := uint64(1)<<uint(width) - 1
	if width == 64 {
		mask = ^uint64(0)
	}
	for i := 0; i < n; i++ {
		for accBits < width {
			if pos >= len(p) {
				r.err = ErrCorrupt
				return
			}
			acc |= uint64(p[pos]) << accBits
			pos++
			accBits += 8
		}
		v.Ints = append(v.Ints, lo+int64(acc&mask))
		acc >>= uint(width)
		accBits -= width
	}
}
