package storage

import (
	"testing"

	"eon/internal/catalog"
	"eon/internal/hashring"
	"eon/internal/obs"
	"eon/internal/types"
	"eon/internal/workload"
)

// BenchmarkBuildContainer builds one COPY's container: 2000 IoT readings
// sorted by (device_id, ts), encoded, with stats.
func BenchmarkBuildContainer(b *testing.B) {
	iot := workload.DefaultIoT()
	schema := iot.Schema()
	proj := &catalog.Projection{
		OID: 10, TableOID: 1, Name: "readings_super",
		Columns: schema.Names(), SortKey: []string{"device_id", "ts"},
	}
	batch := iot.Batch(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildContainer(fixedOID(1), testInst, WriteSpec{Projection: proj, Schema: schema}, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWritePathAllocs pins the write path's garbage: ring hashes into a
// dst with room allocate nothing, and a sort allocates its permutation
// plus a few closures per key, never anything per row or comparison.
func TestWritePathAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	batch := workload.DefaultIoT().Batch(1)
	dst := make([]uint32, 0, batch.NumRows())
	if n := testing.AllocsPerRun(20, func() {
		dst = hashring.HashBatchCols(batch, []int{0, 2, 3}, dst[:0])
	}); n != 0 {
		t.Errorf("HashBatchCols into a dst with room: %v allocs, want 0", n)
	}
	for _, keys := range [][]types.SortKey{{{Col: 0}}, {{Col: 0}, {Col: 1}}, {{Col: 2, Desc: true}, {Col: 3}, {Col: 1}}} {
		if n := testing.AllocsPerRun(20, func() { types.SortPerm(batch, keys) }); n > float64(2+3*len(keys)) {
			t.Errorf("SortPerm over %d keys: %v allocs, want at most the permutation plus %d", len(keys), n, 1+3*len(keys))
		}
	}
}
