package core

import (
	"fmt"
	"strings"

	"eon/internal/catalog"
	"eon/internal/storage"
	"eon/internal/types"
)

// validateFlattened checks a table's SET USING specs at creation.
func (db *DB) validateFlattened(snap *catalog.Snapshot, schema types.Schema, flattened []catalog.FlattenedCol) error {
	for _, f := range flattened {
		col := schema.ColumnIndex(f.Column)
		if col < 0 {
			return fmt.Errorf("core: flattened column %q missing", f.Column)
		}
		factKey := schema.ColumnIndex(f.FactKey)
		if factKey < 0 {
			return fmt.Errorf("core: SET USING fact key %q missing", f.FactKey)
		}
		dim, ok := snap.TableByName(f.DimTable)
		if !ok {
			return fmt.Errorf("core: SET USING dimension table %q does not exist", f.DimTable)
		}
		dimKey := dim.Columns.ColumnIndex(f.DimKey)
		if dimKey < 0 {
			return fmt.Errorf("core: dimension %q has no column %q", f.DimTable, f.DimKey)
		}
		dimValue := dim.Columns.ColumnIndex(f.DimValue)
		if dimValue < 0 {
			return fmt.Errorf("core: dimension %q has no column %q", f.DimTable, f.DimValue)
		}
		if dim.Columns[dimKey].Type.Physical() != schema[factKey].Type.Physical() {
			return fmt.Errorf("core: SET USING key types differ: %s vs %s",
				schema[factKey].Type, dim.Columns[dimKey].Type)
		}
		if dim.Columns[dimValue].Type.Physical() != schema[col].Type.Physical() {
			return fmt.Errorf("core: SET USING value type %s does not match column %q (%s)",
				dim.Columns[dimValue].Type, f.Column, schema[col].Type)
		}
	}
	return nil
}

// readTableRows materializes a whole table (first full projection, delete
// vectors applied) in table column order.
// Intended for small dimension tables.
func (db *DB) readTableRows(snap *catalog.Snapshot, tbl *catalog.Table) (*types.Batch, error) {
	ctx := db.Context()
	var full *catalog.Projection
	for _, p := range snap.ProjectionsOf(tbl.OID) {
		if !p.IsLiveAggregate() && p.BuddyOffset == 0 && len(p.Columns) == len(tbl.Columns) {
			full = p
			break
		}
	}
	if full == nil {
		return nil, fmt.Errorf("core: table %q has no full projection", tbl.Name)
	}
	projSchema := projectionSchema(tbl, full.Columns)
	out := types.NewBatch(tbl.Columns, 0)
	for _, sc := range snap.ContainersOf(full.OID, catalog.GlobalShard) {
		node := db.nodeForStorage(sc)
		if node == nil {
			return nil, fmt.Errorf("core: no node can read container %d", sc.OID)
		}
		rows, deletes, err := db.readContainer(ctx, node, sc, snap.DeleteVectorsOf(sc.OID), projSchema)
		if err != nil {
			return nil, err
		}
		if deletes.Len() > 0 {
			live := deletes.LivePositions(0, rows.NumRows())
			if len(live) == 0 {
				continue
			}
			rows = rows.Gather(live)
		}
		// Reorder projection columns into table order.
		reordered := &types.Batch{Cols: make([]*types.Vector, len(tbl.Columns))}
		for ti, c := range tbl.Columns {
			reordered.Cols[ti] = rows.Cols[projSchema.ColumnIndex(c.Name)]
		}
		out.AppendBatch(reordered)
	}
	return out, nil
}

// dimLookup builds the key→value map for one flattened column.
func (db *DB) dimLookup(snap *catalog.Snapshot, f catalog.FlattenedCol) (map[string]types.Datum, error) {
	dim, ok := snap.TableByName(f.DimTable)
	if !ok {
		return nil, fmt.Errorf("core: dimension table %q dropped", f.DimTable)
	}
	rows, err := db.readTableRows(snap, dim)
	if err != nil {
		return nil, err
	}
	keyIdx := dim.Columns.ColumnIndex(f.DimKey)
	valIdx := dim.Columns.ColumnIndex(f.DimValue)
	lookup := make(map[string]types.Datum, rows.NumRows())
	for i := 0; i < rows.NumRows(); i++ {
		k := rows.Cols[keyIdx].Datum(i)
		if k.Null {
			continue
		}
		key := k.String()
		if _, dup := lookup[key]; !dup {
			lookup[key] = rows.Cols[valIdx].Datum(i)
		}
	}
	return lookup, nil
}

// applyFlattened fills the table's denormalized columns from their
// dimension tables ("arbitrary denormalization using joins at load
// time", §2.1). Loaded values for flattened columns are ignored; a fact
// key with no dimension match yields NULL.
func (db *DB) applyFlattened(snap *catalog.Snapshot, tbl *catalog.Table, batch *types.Batch) (*types.Batch, error) {
	if len(tbl.Flattened) == 0 {
		return batch, nil
	}
	out := &types.Batch{Cols: append([]*types.Vector{}, batch.Cols...)}
	for _, f := range tbl.Flattened {
		lookup, err := db.dimLookup(snap, f)
		if err != nil {
			return nil, err
		}
		colIdx := tbl.Columns.ColumnIndex(f.Column)
		keyIdx := tbl.Columns.ColumnIndex(f.FactKey)
		colType := tbl.Columns[colIdx].Type
		filled := types.NewVector(colType, batch.NumRows())
		for i := 0; i < batch.NumRows(); i++ {
			k := out.Cols[keyIdx].Datum(i)
			if k.Null {
				filled.Append(types.NullDatum(colType))
				continue
			}
			if v, ok := lookup[k.String()]; ok {
				v.K = colType
				filled.Append(v)
			} else {
				filled.Append(types.NullDatum(colType))
			}
		}
		out.Cols[colIdx] = filled
	}
	return out, nil
}

// RefreshColumns recomputes a table's flattened columns from the current
// dimension contents — the refresh mechanism of §2.1 "for updating the
// denormalized table columns when the joined dimension table changes".
// Each container holding a flattened column is rewritten (old files free
// through the usual GC path). It returns the number of containers
// rewritten.
func (db *DB) RefreshColumns(tableName string) (int, error) {
	init, err := db.anyUpNode()
	if err != nil {
		return 0, err
	}
	ctx := db.Context()
	txn := init.catalog.Begin()
	snap := txn.Base()
	tbl, ok := snap.TableByName(tableName)
	if !ok {
		return 0, fmt.Errorf("core: unknown table %q", tableName)
	}
	if len(tbl.Flattened) == 0 {
		return 0, nil
	}
	lookups := map[string]map[string]types.Datum{}
	for _, f := range tbl.Flattened {
		l, err := db.dimLookup(snap, f)
		if err != nil {
			return 0, err
		}
		lookups[strings.ToLower(f.Column)] = l
	}

	recomputeProj := func(projSchema types.Schema, rows *types.Batch) error {
		for _, f := range tbl.Flattened {
			colIdx := projSchema.ColumnIndex(f.Column)
			keyIdx := projSchema.ColumnIndex(f.FactKey)
			if colIdx < 0 {
				continue
			}
			if keyIdx < 0 {
				return fmt.Errorf("core: projection lacks fact key %q needed for refresh", f.FactKey)
			}
			lookup := lookups[strings.ToLower(f.Column)]
			colType := projSchema[colIdx].Type
			filled := types.NewVector(colType, rows.NumRows())
			for i := 0; i < rows.NumRows(); i++ {
				k := rows.Cols[keyIdx].Datum(i)
				if v, ok := lookup[k.String()]; ok && !k.Null {
					v.K = colType
					filled.Append(v)
				} else {
					filled.Append(types.NullDatum(colType))
				}
			}
			rows.Cols[colIdx] = filled
		}
		return nil
	}

	var dropped []droppedContainer
	rewritten := 0
	for _, p := range snap.ProjectionsOf(tbl.OID) {
		if p.IsLiveAggregate() {
			continue
		}
		// Does this projection carry any flattened column?
		touches := false
		for _, f := range tbl.Flattened {
			for _, c := range p.Columns {
				if strings.EqualFold(c, f.Column) {
					touches = true
				}
			}
		}
		if !touches {
			continue
		}
		projSchema := projectionSchema(tbl, p.Columns)
		for _, sc := range snap.ContainersOf(p.OID, catalog.GlobalShard) {
			node := db.nodeForStorage(sc)
			if node == nil {
				return rewritten, fmt.Errorf("core: no node can read container %d", sc.OID)
			}
			d := droppedContainer{sc: sc, dvs: snap.DeleteVectorsOf(sc.OID)}
			rows, deletes, err := db.readContainer(ctx, node, sc, d.dvs, projSchema)
			if err != nil {
				return rewritten, err
			}
			for _, dv := range d.dvs {
				txn.Delete(dv.OID)
			}
			if deletes.Len() > 0 {
				live := deletes.LivePositions(0, rows.NumRows())
				rows = rows.Gather(live)
			}
			// Recompute flattened columns present in this projection.
			if err := recomputeProj(projSchema, rows); err != nil {
				return rewritten, err
			}
			owner := ""
			if db.mode == ModeEnterprise {
				owner = sc.OwnerNode
			}
			built, err := storage.BuildContainer(init.catalog, node.InstanceID(), storage.WriteSpec{
				Projection: p, Schema: projSchema,
				ShardIndex: sc.ShardIndex, PartitionKey: sc.PartitionKey,
				OwnerNode: owner, BundleThreshold: db.cfg.BundleThreshold,
				CreateVersion: snap.Version() + 1,
			}, rows)
			if err != nil {
				return rewritten, err
			}
			txn.Delete(sc.OID)
			dropped = append(dropped, d)
			if built != nil {
				if err := db.persistFiles(ctx, node, built.Files, sc.ShardIndex, db.neverCacheTable(tbl.Name)); err != nil {
					return rewritten, err
				}
				txn.Put(built.Meta)
			}
			rewritten++
		}
	}
	// Live aggregate projections whose group or aggregate columns include
	// a flattened column are rebuilt from the refreshed rows: their
	// partial groups were keyed by the stale values.
	for _, p := range snap.ProjectionsOf(tbl.OID) {
		if !p.IsLiveAggregate() {
			continue
		}
		affected := false
		for _, f := range tbl.Flattened {
			for _, c := range p.LiveSchema {
				if strings.EqualFold(c.Name, f.Column) {
					affected = true
				}
			}
			for _, c := range p.Columns {
				if strings.EqualFold(c, f.Column) {
					affected = true
				}
			}
		}
		if !affected {
			continue
		}
		// Drop the stale partial containers.
		for _, sc := range snap.ContainersOf(p.OID, catalog.GlobalShard) {
			dropped = append(dropped, stageDrop(txn, sc))
			rewritten++
		}
		// Rebuild from the refreshed base rows. The base containers are
		// staged in this transaction but not yet committed, so read the
		// pre-refresh rows and recompute the flattened columns on them.
		baseRows, err := db.readTableRows(snap, tbl)
		if err != nil {
			return rewritten, err
		}
		if err := recomputeProj(tbl.Columns, baseRows); err != nil {
			return rewritten, err
		}
		partitions, err := splitByPartition(tbl, tbl.Columns, baseRows)
		if err != nil {
			return rewritten, err
		}
		writers, err := db.writerAssignment(snap)
		if err != nil {
			return rewritten, err
		}
		ships, _, err := db.buildProjectionContainers(init, txn, tbl, p, partitions, writers, snap.Version()+1)
		if err != nil {
			return rewritten, err
		}
		if err := db.persistShips(ctx, ships, db.neverCacheTable(tbl.Name)); err != nil {
			return rewritten, err
		}
	}

	if !txn.Pending() {
		return rewritten, nil
	}
	rec, err := db.commit(init, txn, nil)
	if err != nil {
		return 0, err
	}
	db.queueDropped(init.catalog.Snapshot(), rec.Version, dropped...)
	return rewritten, nil
}
