package core

import (
	"fmt"
	"strings"
	"time"

	"eon/internal/catalog"
	"eon/internal/planner"
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

// fullProjection returns a table's first full projection: every column,
// not a live aggregate, not a buddy.
func fullProjection(snap *catalog.Snapshot, tbl *catalog.Table) (*catalog.Projection, error) {
	for _, p := range snap.ProjectionsOf(tbl.OID) {
		if !p.IsLiveAggregate() && p.BuddyOffset == 0 && len(p.Columns) == len(tbl.Columns) {
			return p, nil
		}
	}
	return nil, fmt.Errorf("core: table %q has no full projection", tbl.Name)
}

// dimLookups builds, per flattened column of tbl (lower-cased), the
// key→value map of its dimension. The dimensions are read the way a
// query reads them: scans over the query's participants, each serving
// its shards from its own catalog, at one catalog cut.
func (db *DB) dimLookups(tbl *catalog.Table) (map[string]map[string]types.Datum, error) {
	init, err := db.anyUpNode()
	if err != nil {
		return nil, err
	}
	env, err := (&Session{db: db}).selectParticipants(init)
	if err != nil {
		return nil, err
	}
	cut := env.snapshots[init.name]
	scans := make([]planner.Node, len(tbl.Flattened))
	for i, f := range tbl.Flattened {
		dim, ok := cut.TableByName(f.DimTable)
		if !ok {
			return nil, fmt.Errorf("core: dimension table %q dropped", f.DimTable)
		}
		full, err := fullProjection(cut, dim)
		if err != nil {
			return nil, err
		}
		cols := types.Schema{dim.Columns[dim.Columns.ColumnIndex(f.DimKey)], dim.Columns[dim.Columns.ColumnIndex(f.DimValue)]}
		scans[i] = &planner.Scan{Table: dim, Proj: full, Cols: cols.Names(), OutSchema: cols, Replicated: full.Replicated()}
	}
	env.start = time.Now()
	found, err := env.run(nil, scans...)
	if err != nil {
		return nil, err
	}
	lookups := map[string]map[string]types.Datum{}
	for i, f := range tbl.Flattened {
		rows := found[i]
		lookup := make(map[string]types.Datum, rows.NumRows())
		for r := 0; r < rows.NumRows(); r++ {
			if k := rows.Cols[0].Datum(r); !k.Null {
				if _, dup := lookup[k.String()]; !dup {
					lookup[k.String()] = rows.Cols[1].Datum(r)
				}
			}
		}
		lookups[strings.ToLower(f.Column)] = lookup
	}
	return lookups, nil
}

// fillFlattened sets each of tbl's flattened columns that schema holds,
// in rows, from its lookup by the row's fact key; a NULL key or a key
// with no dimension match yields NULL.
func fillFlattened(tbl *catalog.Table, lookups map[string]map[string]types.Datum, schema types.Schema, rows *types.Batch) error {
	for _, f := range tbl.Flattened {
		colIdx := schema.ColumnIndex(f.Column)
		keyIdx := schema.ColumnIndex(f.FactKey)
		if colIdx < 0 {
			continue
		}
		if keyIdx < 0 {
			return fmt.Errorf("core: projection lacks fact key %q needed for refresh", f.FactKey)
		}
		lookup := lookups[strings.ToLower(f.Column)]
		colType := schema[colIdx].Type
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

// applyFlattened fills the table's denormalized columns from their
// dimension tables ("arbitrary denormalization using joins at load
// time", §2.1). Loaded values for flattened columns are ignored.
func (db *DB) applyFlattened(tbl *catalog.Table, batch *types.Batch) (*types.Batch, error) {
	if len(tbl.Flattened) == 0 {
		return batch, nil
	}
	lookups, err := db.dimLookups(tbl)
	if err != nil {
		return nil, err
	}
	out := &types.Batch{Cols: append([]*types.Vector{}, batch.Cols...)}
	return out, fillFlattened(tbl, lookups, tbl.Columns, out)
}

// RefreshColumns recomputes a table's flattened columns from the current
// dimension contents — the refresh mechanism of §2.1 "for updating the
// denormalized table columns when the joined dimension table changes".
// Each container holding a flattened column is rewritten (old files free
// through the usual GC path). It returns the number of containers
// rewritten. What it rewrites and the delete vectors it drops are listed
// from the initiator's transaction; the rows are read through the
// fragment reader.
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
	lookups, err := db.dimLookups(tbl)
	if err != nil {
		return 0, err
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
			rows, err := db.readLive(ctx, node, snap, tbl, p, projSchema, []*catalog.StorageContainer{sc})
			if err != nil {
				return rewritten, err
			}
			for _, dv := range d.dvs {
				txn.Delete(dv.OID)
			}
			// Recompute flattened columns present in this projection.
			if err := fillFlattened(tbl, lookups, projSchema, rows); err != nil {
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
		full, err := fullProjection(snap, tbl)
		if err != nil {
			return rewritten, err
		}
		baseRows := types.NewBatch(tbl.Columns, 0)
		for _, sc := range snap.ContainersOf(full.OID, catalog.GlobalShard) {
			node := db.nodeForStorage(sc)
			if node == nil {
				return rewritten, fmt.Errorf("core: no node can read container %d", sc.OID)
			}
			rows, err := db.readLive(ctx, node, snap, tbl, full, tbl.Columns, []*catalog.StorageContainer{sc})
			if err != nil {
				return rewritten, err
			}
			baseRows.AppendBatch(rows)
		}
		if err := fillFlattened(tbl, lookups, tbl.Columns, baseRows); err != nil {
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
