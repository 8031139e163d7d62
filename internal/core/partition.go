package core

import (
	"fmt"
	"strings"

	"eon/internal/catalog"
)

// fileReferenceCount counts catalog references to each storage file
// across containers and delete vectors — the reference counter of §6.5.
// Operations like CopyTable make several containers share one file, so a
// container drop may not free its files.
func fileReferenceCount(snap *catalog.Snapshot) map[string]int {
	refs := map[string]int{}
	snap.ForEach(catalog.KindStorageContainer, func(o catalog.Object) bool {
		for _, f := range o.(*catalog.StorageContainer).AllFiles() {
			refs[f.Path]++
		}
		return true
	})
	snap.ForEach(catalog.KindDeleteVector, func(o catalog.Object) bool {
		refs[o.(*catalog.DeleteVector).File.Path]++
		return true
	})
	return refs
}

// droppedContainer is a container a transaction deletes, with its
// delete vectors.
type droppedContainer struct {
	sc  *catalog.StorageContainer
	dvs []*catalog.DeleteVector
}

// stageDrop deletes sc and its delete vectors in txn and returns what
// queueDropped needs once the transaction has committed.
func stageDrop(txn *catalog.Txn, sc *catalog.StorageContainer) droppedContainer {
	d := droppedContainer{sc: sc, dvs: txn.Base().DeleteVectorsOf(sc.OID)}
	for _, dv := range d.dvs {
		txn.Delete(dv.OID)
	}
	txn.Delete(sc.OID)
	return d
}

// queueDropped queues dropped containers' files for deletion, each only
// when the post-drop snapshot holds no remaining reference to it (the
// file may be shared with a copied table or another partition's clone).
func (db *DB) queueDropped(after *catalog.Snapshot, dropVersion uint64, dropped ...droppedContainer) {
	ctx := db.Context()
	refs := fileReferenceCount(after)
	for _, d := range dropped {
		for _, f := range d.sc.AllFiles() {
			if refs[f.Path] == 0 {
				db.deleteDataFile(ctx, f.Path, dropVersion)
			}
		}
		for _, dv := range d.dvs {
			if refs[dv.File.Path] == 0 {
				db.deleteDataFile(ctx, dv.File.Path, dropVersion)
			}
		}
	}
}

// CopyTable creates dst as a snapshot copy of src. The new table's
// containers reference the same immutable storage files — no data is
// read or written (§5.1: "Vertica supports operations like copy_table
// ... which can reference the same storage in multiple tables, so
// storage is not tied to a specific table"). Globally unique storage
// identifiers make this safe without persistent name mappings.
func (db *DB) CopyTable(src, dst string) error {
	init, err := db.anyUpNode()
	if err != nil {
		return err
	}
	txn := init.catalog.Begin()
	snap := txn.Base()
	srcTbl, ok := snap.TableByName(src)
	if !ok {
		return fmt.Errorf("core: unknown table %q", src)
	}
	if _, exists := snap.TableByName(dst); exists {
		return fmt.Errorf("core: table %q already exists", dst)
	}
	dstTbl := srcTbl.Clone().(*catalog.Table)
	dstTbl.OID = init.catalog.NewOID()
	dstTbl.Name = dst
	txn.Put(dstTbl)

	for _, p := range snap.ProjectionsOf(srcTbl.OID) {
		dp := p.Clone().(*catalog.Projection)
		dp.OID = init.catalog.NewOID()
		dp.TableOID = dstTbl.OID
		dp.Name = dst + "_" + p.Name
		if p.BaseOID != 0 {
			// Buddy links are re-established below only when the base
			// was already copied; keep ordering simple by copying bases
			// first (ProjectionsOf returns them first).
			dp.BaseOID = 0
		}
		txn.Put(dp)
		for _, sc := range snap.ContainersOf(p.OID, catalog.GlobalShard) {
			dc := sc.Clone().(*catalog.StorageContainer)
			dc.OID = init.catalog.NewOID()
			dc.ProjOID = dp.OID
			dc.TableOID = dstTbl.OID
			dc.CreateVersion = snap.Version() + 1
			// Files are shared by reference; nothing is copied.
			txn.Put(dc)
			for _, dv := range snap.DeleteVectorsOf(sc.OID) {
				ddv := dv.Clone().(*catalog.DeleteVector)
				ddv.OID = init.catalog.NewOID()
				ddv.ContainerOID = dc.OID
				ddv.ProjOID = dp.OID
				txn.Put(ddv)
			}
		}
	}
	_, err = db.commit(init, txn, nil)
	return err
}

// DropPartition removes every container of a table whose partition key
// matches (§2.1's quick file pruning makes this a metadata-only
// operation; files free when unreferenced).
func (db *DB) DropPartition(table, partitionKey string) (int, error) {
	init, err := db.anyUpNode()
	if err != nil {
		return 0, err
	}
	txn := init.catalog.Begin()
	snap := txn.Base()
	tbl, ok := snap.TableByName(table)
	if !ok {
		return 0, fmt.Errorf("core: unknown table %q", table)
	}
	var dropped []droppedContainer
	for _, p := range snap.ProjectionsOf(tbl.OID) {
		for _, sc := range snap.ContainersOf(p.OID, catalog.GlobalShard) {
			if sc.PartitionKey == partitionKey {
				dropped = append(dropped, stageDrop(txn, sc))
			}
		}
	}
	if len(dropped) == 0 {
		return 0, nil
	}
	rec, err := db.commit(init, txn, nil)
	if err != nil {
		return 0, err
	}
	db.queueDropped(init.catalog.Snapshot(), rec.Version, dropped...)
	return len(dropped), nil
}

// MovePartition moves a partition's containers from src to dst — a
// metadata-only retagging, legal when both tables have structurally
// identical projections (same columns, sort keys and segmentation).
func (db *DB) MovePartition(src, dst, partitionKey string) (int, error) {
	init, err := db.anyUpNode()
	if err != nil {
		return 0, err
	}
	txn := init.catalog.Begin()
	snap := txn.Base()
	srcTbl, ok := snap.TableByName(src)
	if !ok {
		return 0, fmt.Errorf("core: unknown table %q", src)
	}
	dstTbl, ok := snap.TableByName(dst)
	if !ok {
		return 0, fmt.Errorf("core: unknown table %q", dst)
	}
	srcProjs := snap.ProjectionsOf(srcTbl.OID)
	dstProjs := snap.ProjectionsOf(dstTbl.OID)

	// Pair src projections with structurally identical dst projections.
	match := map[catalog.OID]*catalog.Projection{}
	for _, sp := range srcProjs {
		var found *catalog.Projection
		for _, dp := range dstProjs {
			if projStructEqual(sp, dp) && match[sp.OID] == nil {
				used := false
				for _, m := range match {
					if m.OID == dp.OID {
						used = true
						break
					}
				}
				if !used {
					found = dp
					break
				}
			}
		}
		if found == nil {
			return 0, fmt.Errorf("core: no projection of %q matches %q structurally", dst, sp.Name)
		}
		match[sp.OID] = found
	}

	moved := 0
	for _, sp := range srcProjs {
		dp := match[sp.OID]
		for _, sc := range snap.ContainersOf(sp.OID, catalog.GlobalShard) {
			if sc.PartitionKey != partitionKey {
				continue
			}
			mc := sc.Clone().(*catalog.StorageContainer)
			mc.ProjOID = dp.OID
			mc.TableOID = dstTbl.OID
			txn.Put(mc)
			for _, dv := range snap.DeleteVectorsOf(sc.OID) {
				mdv := dv.Clone().(*catalog.DeleteVector)
				mdv.ProjOID = dp.OID
				txn.Put(mdv)
			}
			moved++
		}
	}
	if moved == 0 {
		return 0, nil
	}
	_, err = db.commit(init, txn, nil)
	return moved, err
}

// projStructEqual compares projection structure (columns, sort,
// segmentation) ignoring names.
func projStructEqual(a, b *catalog.Projection) bool {
	if len(a.Columns) != len(b.Columns) || len(a.SortKey) != len(b.SortKey) || len(a.SegmentCols) != len(b.SegmentCols) {
		return false
	}
	if a.BuddyOffset != b.BuddyOffset {
		return false
	}
	for i := range a.Columns {
		if !strings.EqualFold(a.Columns[i], b.Columns[i]) {
			return false
		}
	}
	for i := range a.SortKey {
		if !strings.EqualFold(a.SortKey[i], b.SortKey[i]) {
			return false
		}
	}
	for i := range a.SegmentCols {
		if !strings.EqualFold(a.SegmentCols[i], b.SegmentCols[i]) {
			return false
		}
	}
	return true
}
