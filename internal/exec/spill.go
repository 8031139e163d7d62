package exec

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"eon/internal/types"
	"eon/internal/udfs"
)

// SpillHandle identifies one spill file written through a SpillStore.
type SpillHandle struct {
	Path string
	Size int64
}

// SpillStore is the narrow disk interface pipeline breakers spill
// through when the memory governor reports the budget exhausted. Files
// are written whole (the UDFS contract) and read back incrementally.
type SpillStore interface {
	// Put writes one spill file of the given kind and returns its handle.
	Put(kind string, data []byte) (SpillHandle, error)
	// ReadAt reads length bytes at offset from a spilled file.
	ReadAt(h SpillHandle, offset, length int64) ([]byte, error)
}

// FSSpill adapts a udfs.FileSystem (a node's simulated local disk) to
// SpillStore. Every file lands under the store's prefix, so a query's
// spill can be removed wholesale when it finishes. Writes and reads run
// under the query context; Cleanup takes its own context because it must
// work after the query's has been canceled.
type FSSpill struct {
	ctx    context.Context
	fs     udfs.FileSystem
	prefix string
	seq    atomic.Int64
}

// NewFSSpill returns a spill store writing under prefix on fs.
func NewFSSpill(ctx context.Context, fs udfs.FileSystem, prefix string) *FSSpill {
	return &FSSpill{ctx: ctx, fs: fs, prefix: prefix}
}

// Put implements SpillStore.
func (s *FSSpill) Put(kind string, data []byte) (SpillHandle, error) {
	path := fmt.Sprintf("%s/%06d.%s", s.prefix, s.seq.Add(1), kind)
	if err := s.fs.WriteFile(s.ctx, path, data); err != nil {
		return SpillHandle{}, err
	}
	return SpillHandle{Path: path, Size: int64(len(data))}, nil
}

// ReadAt implements SpillStore.
func (s *FSSpill) ReadAt(h SpillHandle, offset, length int64) ([]byte, error) {
	return s.fs.ReadAt(s.ctx, h.Path, offset, length)
}

// Cleanup removes every file under the store's prefix.
func (s *FSSpill) Cleanup(ctx context.Context) error {
	infos, err := s.fs.List(ctx, s.prefix+"/")
	if err != nil {
		return err
	}
	for _, in := range infos {
		if err := s.fs.Remove(ctx, in.Path); err != nil {
			return err
		}
	}
	return nil
}

// spillChunkRows bounds the rows per frame in a spilled run, so reading
// a run back holds one frame of rows at a time, not the whole run.
const spillChunkRows = 4096

// aggRecsPerFrame bounds group records per frame in an aggregation run.
const aggRecsPerFrame = 512

// ---- framing ----
//
// A spill file is a sequence of frames: [u32 little-endian payload
// length][payload]. Frames decode independently, so a reader holds one
// frame in memory at a time.

func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// readFrame reads the frame starting at off. A nil payload with no error
// means the file is exhausted.
func readFrame(st SpillStore, h SpillHandle, off int64) (payload []byte, next int64, err error) {
	if off >= h.Size {
		return nil, off, nil
	}
	hdr, err := st.ReadAt(h, off, 4)
	if err != nil {
		return nil, 0, err
	}
	if len(hdr) < 4 {
		return nil, 0, fmt.Errorf("exec: truncated spill frame header in %s", h.Path)
	}
	n := int64(binary.LittleEndian.Uint32(hdr))
	payload, err = st.ReadAt(h, off+4, n)
	if err != nil {
		return nil, 0, err
	}
	if int64(len(payload)) < n {
		return nil, 0, fmt.Errorf("exec: truncated spill frame in %s", h.Path)
	}
	return payload, off + 4 + n, nil
}

// byteReader is a bounds-checked cursor over one decoded frame.
type byteReader struct {
	data []byte
	pos  int
	err  error
}

func (r *byteReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("exec: truncated spill payload")
	}
}

func (r *byteReader) u8() byte {
	if r.err != nil || r.pos+1 > len(r.data) {
		r.fail()
		return 0
	}
	v := r.data[r.pos]
	r.pos++
	return v
}

func (r *byteReader) u32() uint32 {
	if r.err != nil || r.pos+4 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v
}

func (r *byteReader) u64() uint64 {
	if r.err != nil || r.pos+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

func (r *byteReader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.pos+n > len(r.data) {
		r.fail()
		return nil
	}
	v := r.data[r.pos : r.pos+n]
	r.pos += n
	return v
}

// ---- batch codec ----
//
// One frame payload holds one batch: u32 row count, then per column a
// null-bitmap presence byte (+ bitmap) and the typed values. The schema
// is not stored; the reader supplies it.

func encodeBatch(dst []byte, b *types.Batch) []byte {
	rows := b.NumRows()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	for _, v := range b.Cols {
		hasNulls := false
		for i := 0; i < rows; i++ {
			if v.IsNull(i) {
				hasNulls = true
				break
			}
		}
		if hasNulls {
			dst = append(dst, 1)
			for i := 0; i < rows; i++ {
				if v.IsNull(i) {
					dst = append(dst, 1)
				} else {
					dst = append(dst, 0)
				}
			}
		} else {
			dst = append(dst, 0)
		}
		switch v.Typ.Physical() {
		case types.Int64:
			for _, x := range v.Ints {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
			}
		case types.Float64:
			for _, x := range v.Floats {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
			}
		case types.Varchar:
			for _, s := range v.Strs {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
				dst = append(dst, s...)
			}
		case types.Bool:
			for _, x := range v.Bools {
				if x {
					dst = append(dst, 1)
				} else {
					dst = append(dst, 0)
				}
			}
		}
	}
	return dst
}

func decodeBatch(schema types.Schema, payload []byte) (*types.Batch, error) {
	r := &byteReader{data: payload}
	rows := int(r.u32())
	b := &types.Batch{Cols: make([]*types.Vector, len(schema))}
	for ci, col := range schema {
		v := &types.Vector{Typ: col.Type}
		var nulls []bool
		if r.u8() == 1 {
			raw := r.bytes(rows)
			nulls = make([]bool, rows)
			for i := range raw {
				nulls[i] = raw[i] == 1
			}
		}
		switch col.Type.Physical() {
		case types.Int64:
			v.Ints = make([]int64, rows)
			for i := range v.Ints {
				v.Ints[i] = int64(r.u64())
			}
		case types.Float64:
			v.Floats = make([]float64, rows)
			for i := range v.Floats {
				v.Floats[i] = math.Float64frombits(r.u64())
			}
		case types.Varchar:
			v.Strs = make([]string, rows)
			for i := range v.Strs {
				v.Strs[i] = string(r.bytes(int(r.u32())))
			}
		case types.Bool:
			v.Bools = make([]bool, rows)
			for i := range v.Bools {
				v.Bools[i] = r.u8() == 1
			}
		}
		v.Nulls = nulls
		b.Cols[ci] = v
	}
	if r.err != nil {
		return nil, r.err
	}
	return b, nil
}

// writeBatchRun spills a batch as one run file of framed chunks.
func writeBatchRun(st SpillStore, kind string, b *types.Batch) (SpillHandle, error) {
	var buf []byte
	rows := b.NumRows()
	for lo := 0; lo < rows; lo += spillChunkRows {
		hi := lo + spillChunkRows
		if hi > rows {
			hi = rows
		}
		buf = appendFrame(buf, encodeBatch(nil, b.Slice(lo, hi)))
	}
	return st.Put(kind, buf)
}

// batchRunCursor reads a spilled batch run back frame by frame, exposing
// the current row as (cur, row).
type batchRunCursor struct {
	st     SpillStore
	h      SpillHandle
	schema types.Schema
	off    int64
	cur    *types.Batch
	row    int
}

// load advances to the next available row, fetching the next frame when
// the current one is exhausted. cur == nil after load means end of run.
func (c *batchRunCursor) load() error {
	for c.cur == nil || c.row >= c.cur.NumRows() {
		payload, next, err := readFrame(c.st, c.h, c.off)
		if err != nil {
			return err
		}
		if payload == nil {
			c.cur = nil
			return nil
		}
		b, err := decodeBatch(c.schema, payload)
		if err != nil {
			return err
		}
		c.off = next
		c.cur = b
		c.row = 0
	}
	return nil
}

// ---- datum / aggregation-state codec ----

func appendDatum(dst []byte, d types.Datum) []byte {
	dst = append(dst, byte(d.K))
	if d.Null {
		return append(dst, 1)
	}
	dst = append(dst, 0)
	switch d.K.Physical() {
	case types.Int64:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(d.I))
	case types.Float64:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.F))
	case types.Varchar:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.S)))
		dst = append(dst, d.S...)
	case types.Bool:
		if d.B {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

func (r *byteReader) datum() types.Datum {
	d := types.Datum{K: types.Type(r.u8())}
	if r.u8() == 1 {
		d.Null = true
		return d
	}
	switch d.K.Physical() {
	case types.Int64:
		d.I = int64(r.u64())
	case types.Float64:
		d.F = math.Float64frombits(r.u64())
	case types.Varchar:
		d.S = string(r.bytes(int(r.u32())))
	case types.Bool:
		d.B = r.u8() == 1
	}
	return d
}

// aggRecord is one spilled group: its hash key bytes (the run sort
// order), the materialized key datums and the per-aggregate states.
type aggRecord struct {
	key    []byte
	row    types.Row
	states aggStates
}

// appendAggRecord writes one group: its key bytes, its key datums, its
// states [lo, hi), then a byte saying whether their extremes follow, and
// them.
func appendAggRecord(dst []byte, key []byte, row types.Row, states *aggStates, lo, hi int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = append(dst, key...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(row)))
	for _, d := range row {
		dst = appendDatum(dst, d)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(hi-lo))
	for _, st := range states.s[lo:hi] {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(st.count))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(st.sumI))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.sumF))
	}
	if states.ext == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	for _, d := range states.ext[lo:hi] {
		dst = appendDatum(dst, d)
	}
	return dst
}

func (r *byteReader) aggRecord() aggRecord {
	var rec aggRecord
	rec.key = append([]byte(nil), r.bytes(int(r.u32()))...)
	nk := int(r.u32())
	if nk > 0 {
		rec.row = make(types.Row, nk)
		for i := range rec.row {
			rec.row[i] = r.datum()
		}
	}
	na := int(r.u32())
	rec.states.s = make([]aggState, na)
	for i := range rec.states.s {
		rec.states.s[i] = aggState{int64(r.u64()), int64(r.u64()), math.Float64frombits(r.u64())}
	}
	if r.u8() == 1 {
		rec.states.ext = make([]types.Datum, na)
		for i := range rec.states.ext {
			rec.states.ext[i] = r.datum()
		}
	}
	return rec
}

// aggRunCursor reads a spilled aggregation run record by record.
type aggRunCursor struct {
	st   SpillStore
	h    SpillHandle
	off  int64
	recs []aggRecord
	pos  int
}

// head returns the current record (valid after a successful load with
// done() false).
func (c *aggRunCursor) head() *aggRecord { return &c.recs[c.pos] }

func (c *aggRunCursor) done() bool { return c.recs == nil }

// load advances to the next record, fetching the next frame as needed.
func (c *aggRunCursor) load() error {
	for c.recs == nil || c.pos >= len(c.recs) {
		payload, next, err := readFrame(c.st, c.h, c.off)
		if err != nil {
			return err
		}
		if payload == nil {
			c.recs = nil
			return nil
		}
		r := &byteReader{data: payload}
		var recs []aggRecord
		for r.pos < len(r.data) && r.err == nil {
			recs = append(recs, r.aggRecord())
		}
		if r.err != nil {
			return r.err
		}
		c.off = next
		c.recs = recs
		c.pos = 0
	}
	return nil
}
