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

// whole is sc as a statement that takes it whole — drops, moves or
// copies it — lists it: with n, the node that listed it
// (eachContainer), and the delete vectors n's snapshot in the cut holds
// for it.
func (env *queryEnv) whole(n *Node, sc *catalog.StorageContainer) readFrom {
	return readFrom{sc: sc, node: n, dvs: env.snapshots[n.name].DeleteVectorsOf(sc.OID)}
}

// stageDrop deletes d's container and its delete vectors in txn and
// returns d, which the commit check (validateWritten) and queueDropped
// take.
func stageDrop(txn *catalog.Txn, d readFrom) readFrom {
	for _, dv := range d.dvs {
		txn.Delete(dv)
	}
	txn.Delete(d.sc)
	return d
}

// queueDropped queues dropped containers' files for deletion, each only
// when no container or delete vector left in the catalog of the node
// that listed it references the file: a copied table or another
// partition's clone may share it, and shares its shard (or its owner).
func (db *DB) queueDropped(dropVersion uint64, dropped ...readFrom) {
	ctx := db.Context()
	refs := map[*Node]map[string]int{}
	for _, d := range dropped {
		if refs[d.node] == nil {
			refs[d.node] = fileReferenceCount(d.node.catalog.Snapshot())
		}
		for _, f := range d.sc.AllFiles() {
			if refs[d.node][f.Path] == 0 {
				db.deleteDataFile(ctx, f.Path, dropVersion)
			}
		}
		for _, dv := range d.dvs {
			if refs[d.node][dv.File.Path] == 0 {
				db.deleteDataFile(ctx, dv.File.Path, dropVersion)
			}
		}
	}
}

// beginStorageWrite starts a statement that writes storage: it applies
// the Enterprise rule (needEveryNode), then chooses the participants
// whose catalog cut lists the statement's containers (eachContainer) and
// begins a transaction on the initiator.
func (db *DB) beginStorageWrite(what string) (*queryEnv, *catalog.Txn, error) {
	init, err := db.anyUpNode()
	if err != nil {
		return nil, nil, err
	}
	if err := db.needEveryNode(what); err != nil {
		return nil, nil, err
	}
	env, err := (&Session{db: db}).selectParticipants(init)
	if err != nil {
		return nil, nil, err
	}
	return env, init.catalog.Begin(), nil
}

// commitDrop commits a transaction that drops containers, checked by
// validateWritten and the checks also, and queues their files.
func (db *DB) commitDrop(init *Node, txn *catalog.Txn, dropped []readFrom, also ...func(*catalog.Snapshot) error) error {
	rec, err := db.commit(init, txn, append(also, validateWritten(nil, dropped))...)
	if err != nil {
		return err
	}
	db.queueDropped(rec.Version, dropped...)
	return nil
}

// CopyTable creates dst as a snapshot copy of src. The new table's
// containers reference the same immutable storage files — no data is
// read or written (§5.1: "Vertica supports operations like copy_table
// ... which can reference the same storage in multiple tables, so
// storage is not tied to a specific table"). Globally unique storage
// identifiers make this safe without persistent name mappings.
func (db *DB) CopyTable(src, dst string) error {
	env, txn, err := db.beginStorageWrite("copy_table")
	if err != nil {
		return err
	}
	init, snap := env.initiator, txn.Base()
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

	// Each copied projection keeps its buddy link, to its base's copy.
	projs := snap.ProjectionsOf(srcTbl.OID)
	copyOID := map[catalog.OID]catalog.OID{}
	for _, p := range projs {
		copyOID[p.OID] = init.catalog.NewOID()
	}
	var copied []readFrom
	for _, p := range projs {
		dp := p.Clone().(*catalog.Projection)
		dp.OID = copyOID[p.OID]
		dp.TableOID = dstTbl.OID
		dp.Name = dst + "_" + p.Name
		dp.BaseOID = copyOID[p.BaseOID]
		txn.Put(dp)
		err := env.eachContainer(p, func(n *Node, sc *catalog.StorageContainer) error {
			d := env.whole(n, sc)
			copied = append(copied, d)
			dc := sc.Clone().(*catalog.StorageContainer)
			dc.OID = init.catalog.NewOID()
			dc.ProjOID = dp.OID
			dc.TableOID = dstTbl.OID
			dc.CreateVersion = snap.Version() + 1
			// Files are shared by reference; nothing is copied.
			txn.Put(dc)
			for _, dv := range d.dvs {
				ddv := dv.Clone().(*catalog.DeleteVector)
				ddv.OID = init.catalog.NewOID()
				ddv.ContainerOID = dc.OID
				ddv.ProjOID = dp.OID
				txn.Put(ddv)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	_, err = db.commit(init, txn, validateWritten(nil, copied))
	return err
}

// DropPartition removes every container of a table whose partition key
// matches (§2.1's quick file pruning makes this a metadata-only
// operation; files free when unreferenced).
func (db *DB) DropPartition(table, partitionKey string) (int, error) {
	env, txn, err := db.beginStorageWrite("DROP_PARTITION")
	if err != nil {
		return 0, err
	}
	snap := txn.Base()
	tbl, ok := snap.TableByName(table)
	if !ok {
		return 0, fmt.Errorf("core: unknown table %q", table)
	}
	var dropped []readFrom
	for _, p := range snap.ProjectionsOf(tbl.OID) {
		err := env.eachContainer(p, func(n *Node, sc *catalog.StorageContainer) error {
			if sc.PartitionKey == partitionKey {
				dropped = append(dropped, stageDrop(txn, env.whole(n, sc)))
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	if len(dropped) == 0 {
		return 0, nil
	}
	if err := db.commitDrop(env.initiator, txn, dropped); err != nil {
		return 0, err
	}
	return len(dropped), nil
}

// MovePartition moves a partition's containers from src to dst — a
// metadata-only retagging, legal when both tables have structurally
// identical projections (same columns, sort keys and segmentation).
func (db *DB) MovePartition(src, dst, partitionKey string) (int, error) {
	env, txn, err := db.beginStorageWrite("MOVE_PARTITIONS_TO_TABLE")
	if err != nil {
		return 0, err
	}
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

	var moved []readFrom
	for _, sp := range srcProjs {
		dp := match[sp.OID]
		err := env.eachContainer(sp, func(n *Node, sc *catalog.StorageContainer) error {
			if sc.PartitionKey != partitionKey {
				return nil
			}
			d := env.whole(n, sc)
			moved = append(moved, d)
			mc := sc.Clone().(*catalog.StorageContainer)
			mc.ProjOID = dp.OID
			mc.TableOID = dstTbl.OID
			txn.Put(mc)
			for _, dv := range d.dvs {
				mdv := dv.Clone().(*catalog.DeleteVector)
				mdv.ProjOID = dp.OID
				txn.Put(mdv)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	if len(moved) == 0 {
		return 0, nil
	}
	_, err = db.commit(env.initiator, txn, validateWritten(nil, moved))
	return len(moved), err
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
