package core

import (
	"fmt"
	"time"

	"eon/internal/catalog"
	"eon/internal/expr"
	"eon/internal/planner"
	"eon/internal/sql"
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

// dimLookups builds, per flattened column of tbl, the key→value map of
// its dimension. The dimensions are read the way a query reads them:
// scans over the query's participants, each serving its shards from its
// own catalog, at one catalog cut.
func (db *DB) dimLookups(tbl *catalog.Table) ([]map[string]types.Datum, error) {
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
	lookups := make([]map[string]types.Datum, len(found))
	for i, rows := range found {
		lookups[i] = make(map[string]types.Datum, rows.NumRows())
		for r := 0; r < rows.NumRows(); r++ {
			if k := rows.Cols[0].Datum(r); !k.Null {
				if _, dup := lookups[i][k.String()]; !dup {
					lookups[i][k.String()] = rows.Cols[1].Datum(r)
				}
			}
		}
	}
	return lookups, nil
}

// applyFlattened fills the table's denormalized columns from their
// dimension tables ("arbitrary denormalization using joins at load
// time", §2.1), each from its lookup by the row's fact key; a NULL key or
// a key with no dimension match yields NULL. Loaded values for flattened
// columns are ignored.
func (db *DB) applyFlattened(tbl *catalog.Table, batch *types.Batch) (*types.Batch, error) {
	if len(tbl.Flattened) == 0 {
		return batch, nil
	}
	lookups, err := db.dimLookups(tbl)
	if err != nil {
		return nil, err
	}
	out := &types.Batch{Cols: append([]*types.Vector{}, batch.Cols...)}
	for i, f := range tbl.Flattened {
		col, key := tbl.Columns.ColumnIndex(f.Column), out.Cols[tbl.Columns.ColumnIndex(f.FactKey)]
		colType := tbl.Columns[col].Type
		filled := types.NewVector(colType, out.NumRows())
		for r := 0; r < out.NumRows(); r++ {
			k := key.Datum(r)
			if v, ok := lookups[i][k.String()]; ok && !k.Null {
				v.K = colType
				filled.Append(v)
			} else {
				filled.Append(types.NullDatum(colType))
			}
		}
		out.Cols[col] = filled
	}
	return out, nil
}

// RefreshColumns recomputes a table's flattened columns from the current
// dimension contents — the refresh mechanism of §2.1 "for updating the
// denormalized table columns when the joined dimension table changes" —
// as UPDATE t SET f = f for its flattened columns f: the re-insert fills
// each from its dimension (applyFlattened) and rebuilds the live
// aggregates, and every old container is dropped. It returns the number
// of rows refreshed.
func (db *DB) RefreshColumns(tableName string) (int, error) {
	init, err := db.anyUpNode()
	if err != nil {
		return 0, err
	}
	tbl, ok := init.catalog.Snapshot().TableByName(tableName)
	if !ok {
		return 0, fmt.Errorf("core: unknown table %q", tableName)
	}
	if len(tbl.Flattened) == 0 {
		return 0, nil
	}
	set := make([]sql.SetClause, len(tbl.Flattened))
	for i, f := range tbl.Flattened {
		set[i] = sql.SetClause{Column: f.Column, Value: expr.Col(f.Column)}
	}
	n, err := (&Session{db: db}).Update(&sql.Update{Table: tbl.Name, Set: set})
	return int(n), err
}
