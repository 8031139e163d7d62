package storage

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"eon/internal/catalog"
	"eon/internal/hashring"
	"eon/internal/types"
	"eon/internal/workload"
)

// fixedOID mints one constant OID, so container names do not depend on
// allocation order.
type fixedOID catalog.OID

func (f fixedOID) NewOID() catalog.OID { return catalog.OID(f) }

// containerDigest is the SHA-256 of a built container's files (in path
// order, each prefixed by its path) and of its JSON metadata. JSON has no
// ±Inf, so metadata whose stats hold one is digested in Go syntax.
func containerDigest(built *BuiltContainer) (files, meta string) {
	paths := make([]string, 0, len(built.Files))
	for p := range built.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(built.Files[p])
	}
	js, err := json.Marshal(built.Meta)
	if err != nil {
		js = []byte(fmt.Sprintf("%#v", *built.Meta))
	}
	m := sha256.Sum256(js)
	return hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(m[:])
}

// ringDigest is the SHA-256 of the ring hashes of the given columns.
func ringDigest(b *types.Batch, cols []int) string {
	h := sha256.New()
	for _, x := range hashring.HashBatchCols(b, cols, nil) {
		h.Write(binary.LittleEndian.AppendUint32(nil, x))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenMixedBatch covers every type, NULLs (including a bitmap shorter
// than its vector), heavy duplicates, ±0 and ±Inf, across a block
// boundary.
func goldenMixedBatch() (*catalog.Projection, types.Schema, *types.Batch) {
	s := types.Schema{
		{Name: "k", Type: types.Int64},
		{Name: "d", Type: types.Date},
		{Name: "ts", Type: types.Timestamp},
		{Name: "f", Type: types.Float64},
		{Name: "s", Type: types.Varchar},
		{Name: "b", Type: types.Bool},
	}
	p := &catalog.Projection{
		OID: 20, TableOID: 2, Name: "mixed_p",
		Columns: s.Names(), SortKey: []string{"s", "f", "k"},
	}
	rng := rand.New(rand.NewSource(5))
	floats := []float64{math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 2.25, math.Inf(1)}
	strs := []string{"", "a", "ab", "b", "NULL", "zz"}
	b := types.NewBatch(s, 0)
	for i := 0; i < 4500; i++ {
		row := types.Row{
			types.NewInt(int64(rng.Intn(40) - 20)),
			types.NewDate(int64(rng.Intn(30) + 9000)),
			types.NewTimestamp(int64(rng.Intn(1 << 30))),
			types.NewFloat(floats[rng.Intn(len(floats))]),
			types.NewString(strs[rng.Intn(len(strs))]),
			types.NewBool(rng.Intn(2) == 0),
		}
		for c := range row {
			if rng.Intn(9) == 0 {
				row[c] = types.NullDatum(s[c].Type)
			}
		}
		b.AppendRow(row)
	}
	// A bitmap shorter than its vector: positions past it are non-NULL.
	if n := b.Cols[0].Nulls; n != nil {
		b.Cols[0].Nulls = n[:3000]
	}
	return p, s, b
}

// TestBuildContainerGolden pins the bytes BuildContainer writes: the
// container files, the JSON metadata and the ring hashes for a COPY-sized
// IoT batch, a TPC-H lineitem sample and a mixed-type batch with NULLs.
// The ring digests, and every digest of the mixed batch, were recorded
// with the Datum-based kernels the typed ones replaced, so they prove the
// output did not change; the other file and metadata digests were
// re-recorded when decimal floats and bit-packed dictionary codes came
// in. Each container must also read back, bit for bit, as its sorted
// input.
func TestBuildContainerGolden(t *testing.T) {
	iot := workload.DefaultIoT()
	iotSchema := iot.Schema()
	iotProj := &catalog.Projection{
		OID: 10, TableOID: 1, Name: "readings_super",
		Columns: iotSchema.Names(), SortKey: []string{"device_id", "ts"},
	}
	li := workload.DefaultTPCH(0.125).Tables()["lineitem"]
	liSchema := types.Schema{
		{Name: "l_orderkey", Type: types.Int64},
		{Name: "l_partkey", Type: types.Int64},
		{Name: "l_suppkey", Type: types.Int64},
		{Name: "l_linenumber", Type: types.Int64},
		{Name: "l_quantity", Type: types.Float64},
		{Name: "l_extendedprice", Type: types.Float64},
		{Name: "l_discount", Type: types.Float64},
		{Name: "l_tax", Type: types.Float64},
		{Name: "l_returnflag", Type: types.Varchar},
		{Name: "l_linestatus", Type: types.Varchar},
		{Name: "l_shipdate", Type: types.Date},
	}
	liProj := &catalog.Projection{
		OID: 30, TableOID: 3, Name: "lineitem_super",
		Columns: liSchema.Names(), SortKey: []string{"l_shipdate"},
	}
	liMulti := &catalog.Projection{
		OID: 31, TableOID: 3, Name: "lineitem_flags",
		Columns: liSchema.Names(), SortKey: []string{"l_returnflag", "l_linestatus", "l_shipdate", "l_orderkey"},
	}
	mixProj, mixSchema, mix := goldenMixedBatch()

	cases := []struct {
		name      string
		proj      *catalog.Projection
		schema    types.Schema
		batch     *types.Batch
		threshold int64
		files     string
		meta      string
		ringCols  []int
		ring      string
	}{
		{"iot_bundle", iotProj, iotSchema, iot.Batch(3), 0,
			"6614c0cb9e4d29fe4fa2e2ad151fee9b7afa4507b7a1f9aec762666d484e853d",
			"29887917b3a2fc7c94fb90506048a507b38ddf3c3cf28cba3ffae3c67a9b8f99",
			[]int{0}, "382349cb691a5f28c84b9661a8450043d766925ae92d6f38398b6bd63277f6c5"},
		{"iot_files", iotProj, iotSchema, iot.Batch(4), -1,
			"69fa38bbad8175b77bcb0a15345ff1d392711af325620e5b47ad3d0de8100be1",
			"805fef498e0b37bed5d7669c75a662bf0c3abc4dbcff908dad59252442100bba",
			[]int{0, 2}, "231d303bf6113327c3c2cb3ba789160660324bf0e10e63b60954e8a3a9aa1f28"},
		{"lineitem", liProj, liSchema, li, -1,
			"971bf9e2e3e38f8228c49329fa15f98187cd145471539b04c9a9e2b900c055f4",
			"08589b247e4bb2f6db031d1f2d4d6f9e91209cdbe3a9252d2da3f70137335196",
			[]int{0}, "8365f5097d2c1534e2627bd5a13e750bd52291b1932db8e708df142c635a538d"},
		{"lineitem_multikey", liMulti, liSchema, li, 0,
			"60a38cc4daf564d75e94ff24d6837dd2f5424e5838999dda2cce1b2875e4ecc6",
			"edf5f82e32457d7234a0234622bd627b3b0411bbcbed15c42b6c368f812126b5",
			[]int{8, 9, 10, 4}, "f43942ca888aa69e7a4e8e0d60b67f3847a9919e92facb0a15d26d43b2de2d6f"},
		{"mixed", mixProj, mixSchema, mix, -1,
			"1de37149e8bb025a85f7f78831b068b8d9955f0b081cf708849ea18289b31844",
			"3f395597e42d85fab1e3399e375a82bfd672e4296f00fd88e5635932d58bf31e",
			[]int{0, 1, 2, 3, 4, 5}, "771c6d24ca435f3dab86c2cceeafba91caf5e89a511f5bb1ad0282063d98830b"},
	}
	for _, tc := range cases {
		built, err := BuildContainer(fixedOID(0x1234), testInst, WriteSpec{
			Projection: tc.proj, Schema: tc.schema, ShardIndex: 1,
			PartitionKey: "p", BundleThreshold: tc.threshold, CreateVersion: 7,
		}, tc.batch)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		files, meta := containerDigest(built)
		ring := ringDigest(tc.batch, tc.ringCols)
		if files != tc.files || meta != tc.meta || ring != tc.ring {
			t.Errorf("%s: digests changed\n files %s\n meta  %s\n ring  %s", tc.name, files, meta, ring)
		}
		checkReadsBack(t, tc.name, built, tc.proj, tc.schema, tc.batch)
	}
}

// checkReadsBack reads every column of a built container and requires it
// to equal the input sorted by the projection's sort key, bit for bit:
// the same NULLs and the same payload in every slot, NULL slots included.
func checkReadsBack(t *testing.T, name string, built *BuiltContainer, proj *catalog.Projection, schema types.Schema, batch *types.Batch) {
	t.Helper()
	var keys []types.SortKey
	for _, k := range proj.SortKey {
		keys = append(keys, types.SortKey{Col: schema.ColumnIndex(k)})
	}
	want := types.SortBatch(batch, keys)
	fetch := func(_ context.Context, path string) ([]byte, error) { return built.Files[path], nil }
	got, err := ReadColumns(context.Background(), built.Meta, schema, fetch, 1)
	if err != nil {
		t.Fatalf("%s: read back: %v", name, err)
	}
	for c, col := range schema {
		g, w := got.Cols[c], want.Cols[c]
		if g.Len() != w.Len() {
			t.Fatalf("%s column %s: read %d values, wrote %d", name, col.Name, g.Len(), w.Len())
		}
		for i := 0; i < w.Len(); i++ {
			same := g.IsNull(i) == w.IsNull(i)
			switch col.Type.Physical() {
			case types.Int64:
				same = same && g.Ints[i] == w.Ints[i]
			case types.Float64:
				same = same && math.Float64bits(g.Floats[i]) == math.Float64bits(w.Floats[i])
			case types.Varchar:
				same = same && g.Strs[i] == w.Strs[i]
			case types.Bool:
				same = same && g.Bools[i] == w.Bools[i]
			}
			if !same {
				t.Fatalf("%s column %s row %d: read %v, wrote %v", name, col.Name, i, g.Datum(i), w.Datum(i))
			}
		}
	}
}
