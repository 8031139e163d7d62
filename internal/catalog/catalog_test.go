package catalog

import (
	"context"
	"errors"
	"testing"

	"eon/internal/types"
	"eon/internal/udfs"
)

func newTable(c *Catalog, name string) *Table {
	return &Table{
		OID:  c.NewOID(),
		Name: name,
		Columns: types.Schema{
			{Name: "id", Type: types.Int64},
			{Name: "val", Type: types.Varchar},
		},
	}
}

func TestCommitBasic(t *testing.T) {
	c := New()
	txn := c.Begin()
	tbl := newTable(c, "sales")
	txn.Put(tbl)
	rec, err := c.Commit(txn)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 1 || len(rec.Ops) != 1 {
		t.Fatalf("record = %+v", rec)
	}
	snap := c.Snapshot()
	if snap.Version() != 1 {
		t.Errorf("version = %d", snap.Version())
	}
	got, ok := snap.TableByName("SALES")
	if !ok || got.OID != tbl.OID {
		t.Error("table lookup failed")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	c := New()
	txn := c.Begin()
	txn.Put(newTable(c, "t1"))
	before := c.Snapshot()
	if _, err := c.Commit(txn); err != nil {
		t.Fatal(err)
	}
	if before.Len() != 0 {
		t.Error("old snapshot must not see new commit")
	}
	if c.Snapshot().Len() != 1 {
		t.Error("new snapshot must see commit")
	}
}

func TestOCCWriteWriteConflict(t *testing.T) {
	c := New()
	setup := c.Begin()
	tbl := newTable(c, "t")
	setup.Put(tbl)
	if _, err := c.Commit(setup); err != nil {
		t.Fatal(err)
	}

	// Two transactions both modify the same table.
	t1 := c.Begin()
	t2 := c.Begin()
	o1, _ := t1.Get(tbl.OID)
	m1 := o1.Clone().(*Table)
	m1.Name = "renamed1"
	t1.Put(m1)
	o2, _ := t2.Get(tbl.OID)
	m2 := o2.Clone().(*Table)
	m2.Name = "renamed2"
	t2.Put(m2)

	if _, err := c.Commit(t1); err != nil {
		t.Fatal(err)
	}
	_, err := c.Commit(t2)
	if !errors.Is(err, ErrConflict) {
		t.Errorf("want ErrConflict, got %v", err)
	}
	got, _ := c.Snapshot().Get(tbl.OID)
	if got.(*Table).Name != "renamed1" {
		t.Error("first writer should win")
	}
}

func TestOCCReadValidation(t *testing.T) {
	c := New()
	setup := c.Begin()
	tbl := newTable(c, "t")
	setup.Put(tbl)
	c.Commit(setup)

	reader := c.Begin()
	reader.Get(tbl.OID) // records read version
	other := newTable(c, "unrelated")
	reader.Put(other)

	// Concurrent commit modifies what reader read.
	w := c.Begin()
	o, _ := w.Get(tbl.OID)
	m := o.Clone().(*Table)
	m.Name = "x"
	w.Put(m)
	c.Commit(w)

	if _, err := c.Commit(reader); !errors.Is(err, ErrConflict) {
		t.Errorf("read-set validation should fail, got %v", err)
	}
}

func TestNonConflictingCommitsBothSucceed(t *testing.T) {
	c := New()
	t1 := c.Begin()
	t1.Put(newTable(c, "a"))
	t2 := c.Begin()
	t2.Put(newTable(c, "b"))
	if _, err := c.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(t2); err != nil {
		t.Fatalf("disjoint writes must not conflict: %v", err)
	}
	if c.Version() != 2 || c.Snapshot().Len() != 2 {
		t.Error("both commits should be visible")
	}
}

func TestDelete(t *testing.T) {
	c := New()
	txn := c.Begin()
	tbl := newTable(c, "t")
	txn.Put(tbl)
	c.Commit(txn)

	del := c.Begin()
	del.Delete(tbl)
	rec, err := c.Commit(del)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Ops) != 1 || !rec.Ops[0].Delete {
		t.Errorf("delete op = %+v", rec.Ops)
	}
	if _, ok := c.Snapshot().Get(tbl.OID); ok {
		t.Error("object should be gone")
	}
}

func TestCommitValidatedAbort(t *testing.T) {
	c := New()
	txn := c.Begin()
	txn.Put(newTable(c, "t"))
	_, err := c.CommitValidated(txn, func(latest *Snapshot) error {
		return errors.New("subscription changed")
	})
	if err == nil {
		t.Fatal("validation error should abort commit")
	}
	if c.Version() != 0 {
		t.Error("aborted commit must not advance version")
	}
}

func TestApplyRecord(t *testing.T) {
	src := New()
	dst := New()
	txn := src.Begin()
	tbl := newTable(src, "t")
	txn.Put(tbl)
	rec, _ := src.Commit(txn)

	if err := dst.Apply(rec, nil); err != nil {
		t.Fatal(err)
	}
	if dst.Version() != 1 {
		t.Errorf("dst version = %d", dst.Version())
	}
	if _, ok := dst.Snapshot().Get(tbl.OID); !ok {
		t.Error("applied object missing")
	}
	// Applying the same record again must fail (stale).
	if err := dst.Apply(rec, nil); !errors.Is(err, ErrStale) {
		t.Errorf("want ErrStale, got %v", err)
	}
}

func TestApplyShardFiltering(t *testing.T) {
	src := New()
	dst := New()
	txn := src.Begin()
	sc1 := &StorageContainer{OID: src.NewOID(), ShardIndex: 0, RowCount: 10}
	sc2 := &StorageContainer{OID: src.NewOID(), ShardIndex: 1, RowCount: 20}
	txn.Put(sc1)
	txn.Put(sc2)
	rec, _ := src.Commit(txn)

	if err := dst.Apply(rec, KeepShards(map[int]bool{0: true})); err != nil {
		t.Fatal(err)
	}
	if _, ok := dst.Snapshot().Get(sc1.OID); !ok {
		t.Error("subscribed shard object missing")
	}
	if _, ok := dst.Snapshot().Get(sc2.OID); ok {
		t.Error("unsubscribed shard object should be filtered")
	}
	if dst.Version() != rec.Version {
		t.Error("version must advance even when filtering")
	}
}

// A transaction can delete an object its base does not hold — an Eon
// initiator dropping a container of a shard it does not subscribe to.
// The record still carries the delete, with the object's kind and shard,
// and a subscriber that holds the object removes it on Apply.
func TestDeleteOfUnheldObjectReplicates(t *testing.T) {
	init, sub := New(), New()
	setup := sub.Begin()
	sc := &StorageContainer{OID: sub.NewOID(), ShardIndex: 1, RowCount: 10}
	setup.Put(sc)
	rec, err := sub.Commit(setup)
	if err != nil {
		t.Fatal(err)
	}
	if err := init.Apply(rec, KeepShards(map[int]bool{0: true})); err != nil {
		t.Fatal(err)
	}
	if _, ok := init.Snapshot().Get(sc.OID); ok {
		t.Fatal("the initiator holds a container of a shard it does not keep")
	}

	del := init.Begin()
	del.Delete(sc)
	rec, err = init.Commit(del)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Ops) != 1 || !rec.Ops[0].Delete || rec.Ops[0].OID != sc.OID || rec.Ops[0].Kind != KindStorageContainer {
		t.Fatalf("record ops = %+v, want the container's delete", rec.Ops)
	}
	if len(rec.Shards) != 1 || rec.Shards[0] != 1 {
		t.Errorf("record shards = %v, want [1]", rec.Shards)
	}
	if err := sub.Apply(rec, KeepShards(map[int]bool{1: true})); err != nil {
		t.Fatal(err)
	}
	if _, ok := sub.Snapshot().Get(sc.OID); ok {
		t.Error("the subscriber still holds the deleted container")
	}
}

func TestRecordShardList(t *testing.T) {
	c := New()
	txn := c.Begin()
	txn.Put(newTable(c, "t"))
	txn.Put(&StorageContainer{OID: c.NewOID(), ShardIndex: 2})
	rec, _ := c.Commit(txn)
	want := map[int]bool{GlobalShard: true, 2: true}
	if len(rec.Shards) != 2 {
		t.Fatalf("shards = %v", rec.Shards)
	}
	for _, s := range rec.Shards {
		if !want[s] {
			t.Errorf("unexpected shard %d", s)
		}
	}
}

func TestFilterShards(t *testing.T) {
	c := New()
	txn := c.Begin()
	tbl := newTable(c, "t")
	txn.Put(tbl)
	txn.Put(&StorageContainer{OID: c.NewOID(), ShardIndex: 0})
	txn.Put(&StorageContainer{OID: c.NewOID(), ShardIndex: 1})
	c.Commit(txn)

	f := c.Snapshot().FilterShards(map[int]bool{1: true})
	if f.Len() != 2 { // table (global) + shard-1 container
		t.Errorf("filtered len = %d", f.Len())
	}
	if _, ok := f.TableByName("t"); !ok {
		t.Error("global object must survive filtering")
	}
}

func TestSnapshotQueries(t *testing.T) {
	c := New()
	txn := c.Begin()
	tbl := newTable(c, "t")
	txn.Put(tbl)
	proj := &Projection{OID: c.NewOID(), TableOID: tbl.OID, Name: "t_p1", Columns: []string{"id", "val"}, SortKey: []string{"id"}, SegmentCols: []string{"id"}}
	buddy := &Projection{OID: c.NewOID(), TableOID: tbl.OID, Name: "t_p1_b1", Columns: []string{"id", "val"}, SortKey: []string{"id"}, SegmentCols: []string{"id"}, BuddyOffset: 1, BaseOID: proj.OID}
	txn.Put(buddy)
	txn.Put(proj)
	txn.Put(&Shard{OID: c.NewOID(), Index: 0, Lo: 0, Hi: 1 << 31})
	txn.Put(&Shard{OID: c.NewOID(), Index: 1, Lo: 1 << 31, Hi: 1 << 32})
	txn.Put(&Node{OID: c.NewOID(), Name: "node1"})
	txn.Put(&Subscription{OID: c.NewOID(), Node: "node1", ShardIndex: 0, State: SubActive})
	txn.Put(&Subscription{OID: c.NewOID(), Node: "node1", ShardIndex: 1, State: SubPending})
	sc := &StorageContainer{OID: c.NewOID(), ProjOID: proj.OID, ShardIndex: 0}
	txn.Put(sc)
	txn.Put(&DeleteVector{OID: c.NewOID(), ContainerOID: sc.OID, ShardIndex: 0, Count: 3})
	c.Commit(txn)

	snap := c.Snapshot()
	projs := snap.ProjectionsOf(tbl.OID)
	if len(projs) != 2 || projs[0].BuddyOffset != 0 {
		t.Errorf("projections = %v", projs)
	}
	if len(snap.Shards()) != 2 || snap.SegmentShardCount() != 2 {
		t.Error("shard queries")
	}
	if len(snap.Subscriptions("node1")) != 2 {
		t.Error("subscriptions by node")
	}
	if len(snap.SubscribersOf(0, SubActive)) != 1 || len(snap.SubscribersOf(1, SubActive)) != 0 {
		t.Error("subscribers filtered by state")
	}
	if len(snap.ContainersOf(proj.OID, 0)) != 1 || len(snap.ContainersOf(proj.OID, 5)) != 0 {
		t.Error("containers lookup")
	}
	if len(snap.DeleteVectorsOf(sc.OID)) != 1 {
		t.Error("delete vectors lookup")
	}
	if _, ok := snap.NodeByName("node1"); !ok {
		t.Error("node lookup")
	}
	if _, ok := snap.ProjectionByName("t_p1"); !ok {
		t.Error("projection by name")
	}
}

func TestPersistAndLoad(t *testing.T) {
	ctx := context.Background()
	fs := udfs.NewMemFS()
	c := New()
	c.SetPersister(NewPersister(fs, "catalog", 1<<20))

	var tblOID OID
	for i := 0; i < 5; i++ {
		txn := c.Begin()
		tbl := newTable(c, "t")
		tbl.Name = tbl.Name + string(rune('a'+i))
		txn.Put(tbl)
		if i == 0 {
			tblOID = tbl.OID
		}
		if _, err := c.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}

	snap, next, err := Load(ctx, fs, "catalog")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 5 || snap.Len() != 5 {
		t.Fatalf("loaded v%d len=%d", snap.Version(), snap.Len())
	}
	if next <= tblOID {
		t.Errorf("nextOID %d should exceed allocated %d", next, tblOID)
	}
}

func TestLoadFromCheckpointPlusLogs(t *testing.T) {
	ctx := context.Background()
	fs := udfs.NewMemFS()
	c := New()
	p := NewPersister(fs, "cat", 1) // checkpoint after every commit
	c.SetPersister(p)

	for i := 0; i < 4; i++ {
		txn := c.Begin()
		txn.Put(newTable(c, "t"+string(rune('0'+i))))
		c.Commit(txn)
	}
	// Checkpoint retention: at most two checkpoints on disk.
	infos, _ := fs.List(ctx, "cat/")
	ckpts := 0
	for _, in := range infos {
		if kind, _, ok := ParseCatalogFile(in.Path); ok && kind == "ckpt" {
			ckpts++
		}
	}
	if ckpts > 2 {
		t.Errorf("retained %d checkpoints, want <= 2", ckpts)
	}
	snap, _, err := Load(ctx, fs, "cat")
	if err != nil || snap.Version() != 4 {
		t.Fatalf("load v%d err=%v", snap.Version(), err)
	}
}

func TestLoadEmptyDir(t *testing.T) {
	snap, next, err := Load(context.Background(), udfs.NewMemFS(), "nothing")
	if err != nil || snap.Version() != 0 || next != 1 {
		t.Errorf("empty load: v%d next=%d err=%v", snap.Version(), next, err)
	}
}

func TestTruncateTo(t *testing.T) {
	ctx := context.Background()
	fs := udfs.NewMemFS()
	c := New()
	c.SetPersister(NewPersister(fs, "cat", 1<<20))
	var oids []OID
	for i := 0; i < 5; i++ {
		txn := c.Begin()
		tbl := newTable(c, "t"+string(rune('0'+i)))
		txn.Put(tbl)
		oids = append(oids, tbl.OID)
		c.Commit(txn)
	}
	snap, next, err := TruncateTo(ctx, fs, "cat", 3)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 3 || snap.Len() != 3 {
		t.Fatalf("truncated to v%d len=%d", snap.Version(), snap.Len())
	}
	if _, ok := snap.Get(oids[4]); ok {
		t.Error("object from discarded commit should be gone")
	}
	if next <= oids[2] {
		t.Error("nextOID too low after truncation")
	}
	// Reload must see the truncated state, not the discarded commits.
	re, _, err := Load(ctx, fs, "cat")
	if err != nil || re.Version() != 3 {
		t.Fatalf("reload after truncate: v%d err=%v", re.Version(), err)
	}
}

func TestApplyAdvancesNextOID(t *testing.T) {
	src := New()
	dst := New()
	txn := src.Begin()
	for i := 0; i < 10; i++ {
		txn.Put(newTable(src, "t"))
	}
	rec, _ := src.Commit(txn)
	dst.Apply(rec, nil)
	if dst.NewOID() <= 10 {
		t.Error("applied NextOID should advance allocator")
	}
}

func TestCheckpointRoundtripAllKinds(t *testing.T) {
	c := New()
	txn := c.Begin()
	tbl := newTable(c, "t")
	txn.Put(tbl)
	txn.Put(&Projection{OID: c.NewOID(), TableOID: tbl.OID, Name: "p"})
	txn.Put(&Shard{OID: c.NewOID(), Index: 0})
	txn.Put(&Subscription{OID: c.NewOID(), Node: "n", ShardIndex: 0, State: SubActive})
	txn.Put(&Node{OID: c.NewOID(), Name: "n"})
	txn.Put(&StorageContainer{OID: c.NewOID(), ShardIndex: 0, Files: map[string]FileRef{"id": {Path: "x", Size: 1}}, ColStats: map[string]types.ColumnStats{"id": {Min: types.NewInt(1), Max: types.NewInt(2)}}})
	txn.Put(&DeleteVector{OID: c.NewOID(), ShardIndex: 0})
	c.Commit(txn)

	data, err := EncodeCheckpoint(c.Snapshot(), c.NewOID())
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 7 || snap.Version() != 1 {
		t.Errorf("roundtrip len=%d v=%d", snap.Len(), snap.Version())
	}
	// Spot check a nested field survived.
	found := false
	snap.ForEach(KindStorageContainer, func(o Object) bool {
		sc := o.(*StorageContainer)
		if sc.Files["id"].Path == "x" && sc.ColStats["id"].Max.I == 2 {
			found = true
		}
		return true
	})
	if !found {
		t.Error("storage container fields lost in roundtrip")
	}
}

func TestCloneIndependence(t *testing.T) {
	tbl := &Table{OID: 1, Name: "t", Columns: types.Schema{{Name: "a", Type: types.Int64}}}
	c := tbl.Clone().(*Table)
	c.Columns[0].Name = "mutated"
	if tbl.Columns[0].Name != "a" {
		t.Error("clone must deep-copy schema")
	}
	sc := &StorageContainer{OID: 2, Files: map[string]FileRef{"a": {Path: "p"}}, ColStats: map[string]types.ColumnStats{}}
	sc2 := sc.Clone().(*StorageContainer)
	sc2.Files["a"] = FileRef{Path: "q"}
	if sc.Files["a"].Path != "p" {
		t.Error("clone must deep-copy files map")
	}
}

func TestSubStateString(t *testing.T) {
	if SubPending.String() != "PENDING" || SubActive.String() != "ACTIVE" ||
		SubPassive.String() != "PASSIVE" || SubRemoving.String() != "REMOVING" {
		t.Error("state names")
	}
}

func TestParseCatalogFile(t *testing.T) {
	kind, v, ok := ParseCatalogFile("cat/txn_0000000000000042.json")
	if !ok || kind != "txn" || v != 42 {
		t.Errorf("parse txn: %v %v %v", kind, v, ok)
	}
	kind, v, ok = ParseCatalogFile(CkptFileName(7))
	if !ok || kind != "ckpt" || v != 7 {
		t.Errorf("parse ckpt: %v %v %v", kind, v, ok)
	}
	if _, _, ok := ParseCatalogFile("foo.txt"); ok {
		t.Error("foreign file should not parse")
	}
}
