package core

import (
	"fmt"
	"strings"

	"eon/internal/catalog"
	"eon/internal/expr"
	"eon/internal/rosfile"
	"eon/internal/sql"
	"eon/internal/storage"
	"eon/internal/types"
)

// CreateTable registers a new table.
func (db *DB) CreateTable(stmt *sql.CreateTable) error {
	init, err := db.anyUpNode()
	if err != nil {
		return err
	}
	txn := init.catalog.Begin()
	if _, exists := txn.Base().TableByName(stmt.Name); exists {
		return fmt.Errorf("core: table %q already exists", stmt.Name)
	}
	schema := make(types.Schema, len(stmt.Cols))
	seen := map[string]bool{}
	for i, c := range stmt.Cols {
		low := strings.ToLower(c.Name)
		if seen[low] {
			return fmt.Errorf("core: duplicate column %q", c.Name)
		}
		seen[low] = true
		schema[i] = types.Column{Name: c.Name, Type: c.Type}
	}
	tbl := &catalog.Table{OID: init.catalog.NewOID(), Name: stmt.Name, Columns: schema}
	// Flattened columns (§2.1): denormalized from dimension tables at
	// load time.
	for _, c := range stmt.Cols {
		if c.SetUsing == nil {
			continue
		}
		tbl.Flattened = append(tbl.Flattened, catalog.FlattenedCol{
			Column:   c.Name,
			DimTable: c.SetUsing.DimTable,
			DimValue: c.SetUsing.DimValue,
			FactKey:  c.SetUsing.FactKey,
			DimKey:   c.SetUsing.DimKey,
		})
	}
	if len(tbl.Flattened) > 0 {
		if err := db.validateFlattened(txn.Base(), schema, tbl.Flattened); err != nil {
			return err
		}
	}
	if stmt.PartitionBy != nil {
		// Validate the partition expression binds against the table.
		probe := stmt.PartitionBy
		if err := expr.Bind(probe, schema); err != nil {
			return fmt.Errorf("core: partition expression: %w", err)
		}
		tbl.PartitionExpr = stmt.PartitionBy.String()
	}
	txn.Put(tbl)
	_, err = db.commit(init, txn, nil)
	return err
}

// CreateProjection registers a projection of a table. In Enterprise mode
// a segmented projection automatically gets a buddy projection (rotated
// ring placement, §2.2) unless KSAFE 0 is specified. The table must be
// empty: this engine does not implement projection refresh.
func (db *DB) CreateProjection(stmt *sql.CreateProjection) error {
	init, err := db.anyUpNode()
	if err != nil {
		return err
	}
	txn := init.catalog.Begin()
	snap := txn.Base()
	tbl, ok := snap.TableByName(stmt.Table)
	if !ok {
		return fmt.Errorf("core: unknown table %q", stmt.Table)
	}
	if _, exists := snap.ProjectionByName(stmt.Name); exists {
		return fmt.Errorf("core: projection %q already exists", stmt.Name)
	}
	// The initiator's catalog lists only its own shards' containers: list
	// them as a DELETE's scans would.
	env, err := (&Session{db: db}).selectParticipants(init)
	if err != nil {
		return err
	}
	for _, p := range snap.ProjectionsOf(tbl.OID) {
		err := env.eachContainer(p, func(*Node, *catalog.StorageContainer) error {
			return fmt.Errorf("core: table %q already has data; create projections before loading", tbl.Name)
		})
		if err != nil {
			return err
		}
	}
	if len(stmt.Aggs) > 0 {
		return db.createLiveAggProjection(init, txn, tbl, stmt)
	}
	cols := stmt.Cols
	if len(cols) == 0 {
		cols = tbl.Columns.Names()
	}
	for _, c := range cols {
		if tbl.Columns.ColumnIndex(c) < 0 {
			return fmt.Errorf("core: table %q has no column %q", tbl.Name, c)
		}
	}
	sortKey := stmt.OrderBy
	if len(sortKey) == 0 {
		sortKey = []string{cols[0]}
	}
	colSet := map[string]bool{}
	for _, c := range cols {
		colSet[strings.ToLower(c)] = true
	}
	for _, s := range sortKey {
		if !colSet[strings.ToLower(s)] {
			return fmt.Errorf("core: sort column %q not in projection", s)
		}
	}
	var segCols []string
	if !stmt.Replicated {
		segCols = stmt.SegmentBy
		if len(segCols) == 0 {
			segCols = []string{cols[0]}
		}
		for _, s := range segCols {
			if !colSet[strings.ToLower(s)] {
				return fmt.Errorf("core: segmentation column %q not in projection", s)
			}
		}
	}
	proj := &catalog.Projection{
		OID:      init.catalog.NewOID(),
		TableOID: tbl.OID,
		Name:     stmt.Name,
		Columns:  cols, SortKey: sortKey, SegmentCols: segCols,
	}
	txn.Put(proj)
	// Enterprise buddy projection for fault tolerance.
	ksafe := stmt.KSafe
	if ksafe < 0 {
		ksafe = 1
	}
	if db.mode == ModeEnterprise && len(segCols) > 0 && ksafe >= 1 && len(db.order) > 1 {
		buddy := proj.Clone().(*catalog.Projection)
		buddy.OID = init.catalog.NewOID()
		buddy.Name = stmt.Name + "_b1"
		buddy.BuddyOffset = 1
		buddy.BaseOID = proj.OID
		txn.Put(buddy)
	}
	_, err = db.commit(init, txn, nil)
	return err
}

// EnsureDefaultProjection creates a superprojection for a table that has
// none (all columns, sorted and segmented by the first column) — the
// behaviour of loading into a freshly created table.
func (db *DB) EnsureDefaultProjection(tableName string) error {
	init, err := db.anyUpNode()
	if err != nil {
		return err
	}
	snap := init.catalog.Snapshot()
	tbl, ok := snap.TableByName(tableName)
	if !ok {
		return fmt.Errorf("core: unknown table %q", tableName)
	}
	if len(snap.ProjectionsOf(tbl.OID)) > 0 {
		return nil
	}
	return db.CreateProjection(&sql.CreateProjection{
		Name:  tbl.Name + "_super",
		Table: tbl.Name,
		KSafe: -1,
	})
}

// DropTable removes a table, its projections, storage and files.
func (db *DB) DropTable(name string) error {
	env, txn, err := db.beginStorageWrite("DROP TABLE")
	if err != nil {
		return err
	}
	snap := txn.Base()
	tbl, ok := snap.TableByName(name)
	if !ok {
		return fmt.Errorf("core: unknown table %q", name)
	}
	var dropped []readFrom
	projs := snap.ProjectionsOf(tbl.OID)
	for _, p := range projs {
		err := env.eachContainer(p, func(n *Node, sc *catalog.StorageContainer) error {
			dropped = append(dropped, stageDrop(txn, env.whole(n, sc)))
			return nil
		})
		if err != nil {
			return err
		}
		txn.Delete(p)
	}
	txn.Delete(tbl)
	// Files free only when no surviving container references them — a
	// copied table may share them (§5.1, §6.5).
	return db.commitDrop(env.initiator, txn, dropped, db.noneAddedSince(env.version, projs))
}

// noneAddedSince is the check of a statement that lists every container
// of projs in its cut, at version, and drops or rewrites them all: a
// container of one of them committed since, on any up node — a load's,
// which the listing missed — fails it with catalog.ErrConflict. (The
// load's own commit conflicts when the statement commits first: it
// tracks the table and projections it writes.)
func (db *DB) noneAddedSince(version uint64, projs []*catalog.Projection) func(*catalog.Snapshot) error {
	return func(*catalog.Snapshot) error {
		for _, n := range db.Nodes() {
			if !n.Up() {
				continue
			}
			snap := n.catalog.Snapshot()
			for _, p := range projs {
				for _, sc := range snap.ContainersOf(p.OID, catalog.GlobalShard) {
					if snap.ModVersion(sc.OID) > version {
						return fmt.Errorf("%w: container %d of %s committed during the statement", catalog.ErrConflict, sc.OID, p.Name)
					}
				}
			}
		}
		return nil
	}
}

// AlterAddColumn adds a column to a table using optimistic concurrency
// control (§6.3): ROS containers for the new column are generated and
// published up front without holding the global catalog lock; the write
// set is validated at commit and the transaction rolls back on conflict.
func (db *DB) AlterAddColumn(stmt *sql.AlterAddColumn) error {
	env, txn, err := db.beginStorageWrite("ADD COLUMN")
	if err != nil {
		return err
	}
	ctx, init, snap := db.Context(), env.initiator, txn.Base()
	tblObj, ok := snap.TableByName(stmt.Table)
	if !ok {
		return fmt.Errorf("core: unknown table %q", stmt.Table)
	}
	// Track the read so concurrent schema changes conflict.
	got, _ := txn.Get(tblObj.OID)
	tbl := got.(*catalog.Table).Clone().(*catalog.Table)
	if tbl.Columns.ColumnIndex(stmt.Col.Name) >= 0 {
		return fmt.Errorf("core: column %q already exists", stmt.Col.Name)
	}
	def := stmt.Default
	if def == nil {
		def = expr.Lit(types.NullDatum(stmt.Col.Type))
	}
	if err := expr.Bind(def, tbl.Columns); err != nil {
		return fmt.Errorf("core: default expression: %w", err)
	}

	tbl.Columns = append(tbl.Columns, types.Column{Name: stmt.Col.Name, Type: stmt.Col.Type})
	txn.Put(tbl)

	// Generate the new column's data for every projection and container
	// — offline, before taking the commit lock.
	written := map[catalog.OID]readFrom{}
	var ships []pendingShip // the column files, for a refused commit to free
	for _, p := range snap.ProjectionsOf(tblObj.OID) {
		if p.IsLiveAggregate() {
			continue // live aggregates track only their group/agg columns
		}
		pc := p.Clone().(*catalog.Projection)
		pc.Columns = append(pc.Columns, stmt.Col.Name)
		txn.Put(pc)
		projSchema := projectionSchema(tbl, p.Columns)
		err := env.eachContainer(p, func(node *Node, sc *catalog.StorageContainer) error {
			var colVec *types.Vector
			if len(expr.Columns(def)) == 0 {
				// Constant default: evaluate once.
				v, err := expr.EvalRow(def, nil)
				if err != nil {
					return err
				}
				v.K = stmt.Col.Type
				colVec = types.NewVector(stmt.Col.Type, int(sc.RowCount))
				for i := int64(0); i < sc.RowCount; i++ {
					colVec.Append(v)
				}
			} else {
				// Derived default: evaluate against the container rows.
				rows, err := storage.ReadColumns(ctx, sc, projSchema, db.trackedFetch(node, false, nil), db.ioConc())
				if err != nil {
					return err
				}
				// Default binds to table schema order; build rows.
				colVec = types.NewVector(stmt.Col.Type, rows.NumRows())
				for i := 0; i < rows.NumRows(); i++ {
					full := make(types.Row, len(tbl.Columns))
					for j := range full {
						full[j] = types.NullDatum(tbl.Columns[j].Type)
					}
					for pj, cname := range p.Columns {
						ti := tbl.Columns.ColumnIndex(cname)
						if ti >= 0 {
							full[ti] = rows.Cols[pj].Datum(i)
						}
					}
					v, err := expr.EvalRow(def, full)
					if err != nil {
						return err
					}
					v.K = stmt.Col.Type
					colVec.Append(v)
				}
			}
			img, stats := rosfile.WriteColumn(colVec, rosfile.WriteOptions{})
			// A fresh name per attempt: an attempt that conflicted left its
			// file behind, and a shared-storage file is written once.
			sid := storage.SID(init.InstanceID(), init.catalog.NewOID())
			path := storage.DataPath(sid, stmt.Col.Name)

			updated := sc.Clone().(*catalog.StorageContainer)
			if updated.Bundle.Path != "" {
				// Bundled containers gain a side file for the new column.
				if updated.Files == nil {
					updated.Files = map[string]catalog.FileRef{}
				}
			}
			updated.Files[stmt.Col.Name] = catalog.FileRef{Path: path, Size: int64(len(img))}
			updated.SizeBytes += int64(len(img))
			updated.ColStats[stmt.Col.Name] = stats
			txn.Put(updated)
			written[sc.OID] = readFrom{sc: sc, node: node}
			// Persist the new column file before commit.
			ships = append(ships, pendingShip{writer: node, files: map[string][]byte{path: img}, shard: sc.ShardIndex})
			return db.persistFiles(ctx, node, ships[len(ships)-1].files, sc.ShardIndex, db.neverCacheTable(tbl.Name))
		})
		if err != nil {
			return err
		}
	}
	_, err = db.commitWritten(init, txn, ships, validateWritten(written, nil), db.noneAddedSince(env.version, snap.ProjectionsOf(tblObj.OID)))
	return err
}

// physicalSchema returns the column schema a projection's containers
// store: the resolved table columns, or the live aggregate schema.
func physicalSchema(tbl *catalog.Table, p *catalog.Projection) types.Schema {
	if p.IsLiveAggregate() {
		return p.LiveSchema
	}
	return projectionSchema(tbl, p.Columns)
}

// projectionSchema resolves a projection's column list against its table.
func projectionSchema(tbl *catalog.Table, cols []string) types.Schema {
	out := make(types.Schema, 0, len(cols))
	for _, c := range cols {
		idx := tbl.Columns.ColumnIndex(c)
		if idx >= 0 {
			out = append(out, tbl.Columns[idx])
		}
	}
	return out
}
