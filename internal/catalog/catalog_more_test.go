package catalog

import (
	"errors"
	"testing"

	"eon/internal/udfs"
)

func TestOnCommitHook(t *testing.T) {
	c := New()
	var seen []uint64
	c.OnCommit(func(rec *LogRecord) { seen = append(seen, rec.Version) })
	for i := 0; i < 3; i++ {
		txn := c.Begin()
		txn.Put(newTable(c, "t"))
		if _, err := c.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 3 || seen[2] != 3 {
		t.Errorf("hook calls = %v", seen)
	}
}

func TestTxnHelpers(t *testing.T) {
	c := New()
	txn := c.Begin()
	if txn.Pending() {
		t.Error("fresh txn pending")
	}
	if txn.Base().Version() != 0 {
		t.Error("base version")
	}
	tbl := newTable(c, "t")
	txn.Put(tbl)
	txn.TrackRead(999) // nonexistent: modVersion 0
	if !txn.Pending() {
		t.Error("not pending after put")
	}
	if oids := txn.StagedOIDs(); len(oids) != 1 || oids[0] != tbl.OID {
		t.Errorf("staged = %v", oids)
	}
	// Put then Delete keeps one staged entry.
	txn.Delete(tbl)
	if got, ok := txn.Get(tbl.OID); ok {
		t.Errorf("deleted object visible: %v", got)
	}
	if len(txn.StagedOIDs()) != 1 {
		t.Errorf("staged after delete = %v", txn.StagedOIDs())
	}
}

func TestTrackReadConflicts(t *testing.T) {
	c := New()
	setup := c.Begin()
	tbl := newTable(c, "t")
	setup.Put(tbl)
	c.Commit(setup)

	reader := c.Begin()
	reader.TrackRead(tbl.OID)
	reader.Put(newTable(c, "other"))

	w := c.Begin()
	o, _ := w.Get(tbl.OID)
	m := o.Clone().(*Table)
	m.Name = "renamed"
	w.Put(m)
	c.Commit(w)

	if _, err := c.Commit(reader); err == nil {
		t.Error("tracked read should conflict")
	}
}

// commitObjects commits objs to c in one transaction.
func commitObjects(t *testing.T, c *Catalog, objs ...Object) {
	t.Helper()
	txn := c.Begin()
	for _, o := range objs {
		txn.Put(o)
	}
	if _, err := c.Commit(txn); err != nil {
		t.Fatal(err)
	}
}

// TestInstallObjects checks the metadata transfer of subscription,
// ReplaceShard with a source: the shard's objects become exactly the
// source's, at the source's mod-versions, only from a source at the same
// version, and the version does not advance.
func TestInstallObjects(t *testing.T) {
	// The source holds two containers of shard 1, written at v1; v2
	// touches only a global object.
	src := New()
	a := &StorageContainer{OID: 10, ShardIndex: 1, RowCount: 5}
	b := &StorageContainer{OID: 11, ShardIndex: 1, RowCount: 7}
	commitObjects(t, src, &Table{OID: 1, Name: "t"}, a, b, &StorageContainer{OID: 12, ShardIndex: 2})
	commitObjects(t, src, &Table{OID: 2, Name: "later"})

	// The subscriber holds a stale container of shard 1 that the source
	// does not, plus a global object and another shard's container.
	c := New()
	tbl := &Table{OID: 1, Name: "t"}
	stale := &StorageContainer{OID: 20, ShardIndex: 1, RowCount: 3}
	other := &StorageContainer{OID: 21, ShardIndex: 2}
	commitObjects(t, c, tbl, stale, other)
	if _, err := c.ReplaceShard(1, src.Snapshot()); !errors.Is(err, ErrStale) {
		t.Fatalf("source at v2, catalog at v1: err = %v, want ErrStale", err)
	}
	if _, ok := c.Snapshot().Get(a.OID); ok {
		t.Fatal("a refused transfer changed the catalog")
	}

	commitObjects(t, c, &Table{OID: 2, Name: "later"})
	removed, err := c.ReplaceShard(1, src.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if c.Version() != 2 {
		t.Errorf("version = %d; ReplaceShard must not advance it", c.Version())
	}
	if len(removed) != 1 || removed[0].GetOID() != stale.OID {
		t.Errorf("removed %v, want the stale container", removed)
	}
	snap := c.Snapshot()
	if _, ok := snap.Get(stale.OID); ok {
		t.Error("stale object absent from the source survived: merged, not replaced")
	}
	for _, want := range []*StorageContainer{a, b} {
		got, ok := snap.Get(want.OID)
		if !ok || got.(*StorageContainer).RowCount != want.RowCount {
			t.Errorf("object %d = %v, want the source's", want.OID, got)
		}
		if mv := snap.ModVersion(want.OID); mv != 1 {
			t.Errorf("object %d at mod-version %d, want the source's 1", want.OID, mv)
		}
	}
	for _, oid := range []OID{tbl.OID, other.OID} {
		if _, ok := snap.Get(oid); !ok {
			t.Errorf("object %d of another shard lost", oid)
		}
	}
}

// TestDropShardObjects checks the metadata drop of unsubscription,
// ReplaceShard with a nil source: it removes the shard's objects, returns
// them, keeps global objects and other shards', and does not advance the
// version.
func TestDropShardObjects(t *testing.T) {
	c := New()
	tbl := &Table{OID: 1, Name: "t"}
	a := &StorageContainer{OID: 10, ShardIndex: 1}
	b := &StorageContainer{OID: 11, ShardIndex: 1}
	other := &StorageContainer{OID: 12, ShardIndex: 2}
	commitObjects(t, c, tbl, a, b, other)
	v := c.Version()

	dropped, err := c.ReplaceShard(1, nil)
	if err != nil || len(dropped) != 2 {
		t.Fatalf("drop = %v, %v; want the 2 shard-1 containers", dropped, err)
	}
	if c.Version() != v {
		t.Error("drop must not advance the version")
	}
	for _, o := range dropped {
		if _, ok := c.Snapshot().Get(o.GetOID()); ok {
			t.Error("dropped object visible")
		}
	}
	for _, oid := range []OID{tbl.OID, other.OID} {
		if _, ok := c.Snapshot().Get(oid); !ok {
			t.Errorf("object %d of another shard lost on drop", oid)
		}
	}
}

func TestInstallSnapshot(t *testing.T) {
	src := New()
	txn := src.Begin()
	txn.Put(newTable(src, "t"))
	c, _ := src.Commit(txn)
	_ = c

	dst := New()
	dst.Install(src.Snapshot(), MaxOID(src.Snapshot()))
	if dst.Version() != 1 || dst.Snapshot().Len() != 1 {
		t.Errorf("installed v%d len=%d", dst.Version(), dst.Snapshot().Len())
	}
	if dst.NewOID() <= 1 {
		t.Error("allocator not advanced")
	}
}

func TestObjectMisc(t *testing.T) {
	kinds := []Kind{KindTable, KindProjection, KindShard, KindSubscription, KindNode, KindStorageContainer, KindDeleteVector}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind name")
	}
	p := &Projection{OID: 1, SegmentCols: []string{"a"}}
	if p.Replicated() {
		t.Error("segmented projection is not replicated")
	}
	if p.IsLiveAggregate() {
		t.Error("plain projection is not live")
	}
	p2 := &Projection{OID: 2}
	if !p2.Replicated() {
		t.Error("no segment cols = replicated")
	}
	lap := &Projection{OID: 3, LiveAggs: []LiveAgg{{Op: "sum", Col: "x", Name: "s"}}}
	if !lap.IsLiveAggregate() {
		t.Error("live aggregate not detected")
	}
	cl := lap.Clone().(*Projection)
	cl.LiveAggs[0].Name = "mutated"
	if lap.LiveAggs[0].Name != "s" {
		t.Error("clone aliases LiveAggs")
	}
	// Shard / Subscription / Node clones.
	sh := &Shard{OID: 4, Index: 1}
	if sh.Clone().(*Shard).Index != 1 || sh.Shard() != GlobalShard {
		t.Error("shard clone")
	}
	sub := &Subscription{OID: 5, Node: "n", State: SubActive}
	if sub.Clone().(*Subscription).Node != "n" {
		t.Error("subscription clone")
	}
	nd := &Node{OID: 6, Name: "n"}
	if nd.Clone().(*Node).Name != "n" {
		t.Error("node clone")
	}
	dv := &DeleteVector{OID: 7, ShardIndex: 3}
	if dv.Clone().(*DeleteVector).ShardIndex != 3 || dv.Shard() != 3 {
		t.Error("dv clone")
	}
	tbl := &Table{OID: 8, Flattened: []FlattenedCol{{Column: "c"}}}
	tc := tbl.Clone().(*Table)
	tc.Flattened[0].Column = "mut"
	if tbl.Flattened[0].Column != "c" {
		t.Error("table clone aliases Flattened")
	}
}

func TestPersisterAccessors(t *testing.T) {
	fs := udfs.NewMemFS()
	p := NewPersister(fs, "cat", 0)
	if p.Dir() != "cat" || p.FS() != fs {
		t.Error("accessors")
	}
	if p.CheckpointThreshold <= 0 {
		t.Error("zero threshold should default")
	}
	c := New()
	c.SetPersister(p)
	if c.Persister() != p {
		t.Error("persister accessor")
	}
}

func TestDecodedOpsMemoized(t *testing.T) {
	c := New()
	txn := c.Begin()
	txn.Put(newTable(c, "t"))
	rec, _ := c.Commit(txn)
	a, err := rec.DecodedOps()
	if err != nil || len(a) != 1 {
		t.Fatal(err)
	}
	b, _ := rec.DecodedOps()
	if &a[0] != &b[0] {
		t.Error("decode not memoized")
	}
}
