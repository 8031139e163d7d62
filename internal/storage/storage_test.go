package storage

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"eon/internal/catalog"
	"eon/internal/cluster"
	"eon/internal/types"
)

var testInst = cluster.InstanceID("aabbccddeeff00112233445566")

func testProjection() (*catalog.Projection, types.Schema) {
	p := &catalog.Projection{
		OID:         10,
		TableOID:    1,
		Name:        "sales_p1",
		Columns:     []string{"id", "amount", "region"},
		SortKey:     []string{"region", "id"},
		SegmentCols: []string{"id"},
	}
	s := types.Schema{
		{Name: "id", Type: types.Int64},
		{Name: "amount", Type: types.Float64},
		{Name: "region", Type: types.Varchar},
	}
	return p, s
}

func testBatch(s types.Schema) *types.Batch {
	return types.BatchFromRows(s, []types.Row{
		{types.NewInt(3), types.NewFloat(30), types.NewString("west")},
		{types.NewInt(1), types.NewFloat(10), types.NewString("east")},
		{types.NewInt(2), types.NewFloat(20), types.NewString("east")},
	})
}

func TestSIDFormat(t *testing.T) {
	sid := SID(testInst, 255)
	if !strings.HasPrefix(sid, string(testInst)+"_") {
		t.Errorf("sid = %s", sid)
	}
	if !strings.HasSuffix(sid, "00000000000000ff") {
		t.Errorf("sid oid hex = %s", sid)
	}
	if SID(testInst, 1) == SID(testInst, 2) {
		t.Error("sids must differ by oid")
	}
}

func TestDataPathHashPrefix(t *testing.T) {
	sid := SID(testInst, 1)
	p := DataPath(sid, "id")
	if !strings.HasPrefix(p, "data/aa/") {
		t.Errorf("path should use 2-char fanout prefix: %s", p)
	}
	if BundlePath(sid) == p {
		t.Error("bundle path must differ from column path")
	}
	if !strings.HasPrefix(DataPath(sid, "id"), InstancePrefix(testInst)[:8]) {
		t.Error("instance prefix mismatch")
	}
}

func TestBuildContainerSortsAndStats(t *testing.T) {
	p, s := testProjection()
	c := catalog.New()
	built, err := BuildContainer(c, testInst, WriteSpec{
		Projection: p, Schema: s, ShardIndex: 0, BundleThreshold: -1,
	}, testBatch(s))
	if err != nil {
		t.Fatal(err)
	}
	if built.Meta.RowCount != 3 || built.Meta.ShardIndex != 0 {
		t.Errorf("meta = %+v", built.Meta)
	}
	if len(built.Files) != 3 {
		t.Fatalf("files = %d", len(built.Files))
	}
	st := built.Meta.ColStats["amount"]
	if st.Min.F != 10 || st.Max.F != 30 {
		t.Errorf("amount stats = %+v", st)
	}
	// Read back and verify sort order (region asc, id asc).
	fetch := func(ctx context.Context, path string) ([]byte, error) {
		return built.Files[path], nil
	}
	b, err := ReadColumns(context.Background(), built.Meta, s, fetch, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := b.Cols[0].Ints
	if ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Errorf("sorted ids = %v", ids)
	}
	regions := b.Cols[2].Strs
	if regions[0] != "east" || regions[2] != "west" {
		t.Errorf("sorted regions = %v", regions)
	}
}

func TestBuildContainerBundlesSmall(t *testing.T) {
	p, s := testProjection()
	c := catalog.New()
	built, err := BuildContainer(c, testInst, WriteSpec{
		Projection: p, Schema: s, ShardIndex: 1, // default threshold bundles tiny data
	}, testBatch(s))
	if err != nil {
		t.Fatal(err)
	}
	if built.Meta.Bundle.Path == "" {
		t.Fatal("small container should be bundled")
	}
	if len(built.Files) != 1 {
		t.Errorf("bundle should be one file, got %d", len(built.Files))
	}
	fetch := func(ctx context.Context, path string) ([]byte, error) {
		return built.Files[path], nil
	}
	b, err := ReadColumns(context.Background(), built.Meta, s, fetch, 2)
	if err != nil || b.NumRows() != 3 {
		t.Fatalf("bundle read: %v", err)
	}
}

func TestBuildContainerEmptyBatch(t *testing.T) {
	p, s := testProjection()
	c := catalog.New()
	built, err := BuildContainer(c, testInst, WriteSpec{Projection: p, Schema: s}, types.NewBatch(s, 0))
	if err != nil || built != nil {
		t.Errorf("empty batch should yield nil: %v %v", built, err)
	}
}

func TestBuildContainerSchemaMismatch(t *testing.T) {
	p, s := testProjection()
	c := catalog.New()
	wrong := types.BatchFromRows(s[:1], []types.Row{{types.NewInt(1)}})
	if _, err := BuildContainer(c, testInst, WriteSpec{Projection: p, Schema: s}, wrong); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestOpenColumnsSubset(t *testing.T) {
	p, s := testProjection()
	c := catalog.New()
	built, _ := BuildContainer(c, testInst, WriteSpec{Projection: p, Schema: s, BundleThreshold: -1}, testBatch(s))
	fetch := func(ctx context.Context, path string) ([]byte, error) {
		return built.Files[path], nil
	}
	readers, err := OpenColumns(context.Background(), built.Meta, []string{"amount"}, fetch)
	if err != nil || len(readers) != 1 {
		t.Fatalf("open subset: %v", err)
	}
	if _, err := OpenColumns(context.Background(), built.Meta, []string{"bogus"}, fetch); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestDeleteVectorRoundtrip(t *testing.T) {
	data := BuildDeleteVector([]int64{5, 1, 3, 3, 1})
	got, err := ReadDeleteVector(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("positions = %v (want deduped sorted)", got)
	}
}

func TestDeleteVectorEmpty(t *testing.T) {
	got, err := ReadDeleteVector(BuildDeleteVector(nil))
	if err != nil || len(got) != 0 {
		t.Errorf("empty dv = %v, %v", got, err)
	}
}

func TestNewDeleteVectorMeta(t *testing.T) {
	c := catalog.New()
	sc := &catalog.StorageContainer{OID: 5, ProjOID: 10, ShardIndex: 2}
	dv, data := NewDeleteVectorMeta(c, testInst, sc, []int64{0, 2, 2}, "")
	if dv.ContainerOID != 5 || dv.ShardIndex != 2 || dv.Count != 2 {
		t.Errorf("dv = %+v", dv)
	}
	if int64(len(data)) != dv.File.Size {
		t.Error("size mismatch")
	}
	if !strings.HasSuffix(dv.File.Path, "_dv") {
		t.Errorf("dv path = %s", dv.File.Path)
	}
}

func TestDeleteSet(t *testing.T) {
	ds := NewDeleteSet([]int64{1, 3}, []int64{3, 5})
	if ds.Len() != 3 {
		t.Errorf("len = %d", ds.Len())
	}
	if !ds.Contains(1) || !ds.Contains(5) || ds.Contains(0) {
		t.Error("contains wrong")
	}
	live := ds.LivePositions(0, 6)
	if len(live) != 3 || live[0] != 0 || live[1] != 2 || live[2] != 4 {
		t.Errorf("live = %v", live)
	}
	// Offset window.
	live = ds.LivePositions(3, 3) // positions 3,4,5 -> live 4 (index 1)
	if len(live) != 1 || live[0] != 1 {
		t.Errorf("offset live = %v", live)
	}
}

func TestDeleteSetEmptyFastPath(t *testing.T) {
	ds := NewDeleteSet()
	live := ds.LivePositions(100, 3)
	if len(live) != 3 {
		t.Errorf("live = %v", live)
	}
}

// Property: delete vectors roundtrip any position set.
func TestQuickDeleteVectorRoundtrip(t *testing.T) {
	f := func(raw []uint16) bool {
		positions := make([]int64, len(raw))
		for i, r := range raw {
			positions[i] = int64(r)
		}
		got, err := ReadDeleteVector(BuildDeleteVector(positions))
		if err != nil {
			return false
		}
		want := map[int64]bool{}
		for _, p := range positions {
			want[p] = true
		}
		if len(got) != len(want) {
			return false
		}
		for i, p := range got {
			if !want[p] {
				return false
			}
			if i > 0 && got[i-1] >= p {
				return false // must be strictly sorted
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestContainerAllFiles(t *testing.T) {
	sc := &catalog.StorageContainer{
		Files: map[string]catalog.FileRef{
			"a": {Path: "p1", Size: 1},
			"b": {Path: "p2", Size: 2},
		},
	}
	if got := sc.AllFiles(); len(got) != 2 {
		t.Errorf("allfiles = %v", got)
	}
	sc.Bundle = catalog.FileRef{Path: "bundle", Size: 3}
	got := sc.AllFiles()
	if len(got) != 1 || got[0].Path != "bundle" {
		t.Errorf("bundled allfiles = %v", got)
	}
}
