package core

import (
	"fmt"
	"sort"

	"eon/internal/catalog"
	"eon/internal/expr"
	"eon/internal/sql"
	"eon/internal/storage"
	"eon/internal/types"
)

// Delete removes rows matching the predicate by writing delete vectors —
// tombstones stored in the column-file format; the underlying files are
// never modified (§2.3, §4.5). It returns the number of deleted rows.
func (db *DB) Delete(stmt *sql.Delete) (int64, error) {
	return db.deleteWhere(stmt.Table, stmt.Where, nil)
}

// Update models UPDATE as a delete followed by an insert of the modified
// rows (§2.3).
func (db *DB) Update(stmt *sql.Update) (int64, error) {
	init, err := db.anyUpNode()
	if err != nil {
		return 0, err
	}
	snap := init.catalog.Snapshot()
	tbl, ok := snap.TableByName(stmt.Table)
	if !ok {
		return 0, fmt.Errorf("core: unknown table %q", stmt.Table)
	}
	// Bind SET expressions against the table schema.
	setIdx := make([]int, len(stmt.Set))
	for i, sc := range stmt.Set {
		idx := tbl.Columns.ColumnIndex(sc.Column)
		if idx < 0 {
			return 0, fmt.Errorf("core: unknown column %q", sc.Column)
		}
		setIdx[i] = idx
		if err := expr.Bind(sc.Value, tbl.Columns); err != nil {
			return 0, err
		}
	}
	reinsert := types.NewBatch(tbl.Columns, 0)
	n, err := db.deleteWhere(stmt.Table, stmt.Where, func(row types.Row) error {
		updated := row.Clone()
		for i, sc := range stmt.Set {
			v, err := expr.EvalRow(sc.Value, row)
			if err != nil {
				return err
			}
			cv, err := coerceDatum(v, tbl.Columns[setIdx[i]].Type)
			if err != nil {
				return err
			}
			updated[setIdx[i]] = cv
		}
		reinsert.AppendRow(updated)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if reinsert.NumRows() > 0 {
		if err := db.LoadRows(tbl.Name, reinsert); err != nil {
			return n, err
		}
	}
	return n, nil
}

// deleteWhere finds matching rows in every projection of the table and
// commits delete vectors for them. onRow, when set, receives each
// deleted row in table-column order (for UPDATE re-insertion) exactly
// once.
func (db *DB) deleteWhere(tableName string, where expr.Expr, onRow func(types.Row) error) (int64, error) {
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
	projs := snap.ProjectionsOf(tbl.OID)
	if tableHasLiveAggregate(projs) {
		// The paper's trade-off (§2.1): live aggregates restrict how the
		// base table can be updated.
		return 0, fmt.Errorf("core: table %q has a live aggregate projection; DELETE/UPDATE are not supported", tbl.Name)
	}
	containersOf, err := db.everyContainer()
	if err != nil {
		return 0, err
	}
	var deletedTotal, wosDeleted int64
	rowsCaptured := false

	for _, p := range projs {
		projSchema := projectionSchema(tbl, p.Columns)
		// Bind the predicate against this projection's schema.
		var pred expr.Expr
		if where != nil {
			pred = clonePredicate(where)
			if err := expr.Bind(pred, projSchema); err != nil {
				return 0, fmt.Errorf("core: DELETE predicate: %w", err)
			}
		}
		captureHere := !rowsCaptured && onRow != nil && len(p.Columns) == len(tbl.Columns) && p.BuddyOffset == 0

		// Enterprise: matching rows buffered in a node's WOS are removed
		// in place (the WOS is volatile memory; §2.3).
		if db.mode == ModeEnterprise {
			for _, n := range db.Nodes() {
				if !n.Up() || n.wos == nil {
					continue
				}
				removed, err := n.wos.RemoveWhere(p.OID, func(row types.Row) (bool, error) {
					if pred == nil {
						return true, nil
					}
					v, err := expr.EvalRow(pred, row)
					if err != nil {
						return false, err
					}
					return !v.Null && v.B, nil
				})
				if err != nil {
					return 0, err
				}
				if removed == nil {
					continue
				}
				if captureHere {
					deletedTotal += int64(removed.NumRows())
					for i := 0; i < removed.NumRows(); i++ {
						full := make(types.Row, len(tbl.Columns))
						for pj, cname := range p.Columns {
							ti := tbl.Columns.ColumnIndex(cname)
							full[ti] = removed.Cols[pj].Datum(i)
						}
						if err := onRow(full); err != nil {
							return 0, err
						}
					}
				} else if onRow == nil && p.BuddyOffset == 0 {
					wosDeleted += int64(removed.NumRows())
				}
			}
		}

		for _, h := range containersOf(p.OID) {
			sc := h.sc
			node := db.nodeForStorage(sc)
			if node == nil {
				return 0, fmt.Errorf("core: no node can read container %d", sc.OID)
			}
			// Existing deletes must not be double-deleted.
			rows, existing, err := db.readContainer(ctx, node, sc, h.snap.DeleteVectorsOf(sc.OID), projSchema)
			if err != nil {
				return 0, err
			}

			var positions []int64
			for i := 0; i < rows.NumRows(); i++ {
				if existing.Contains(int64(i)) {
					continue
				}
				if pred != nil {
					v, err := expr.EvalRow(pred, rows.Row(i))
					if err != nil {
						return 0, err
					}
					if v.Null || !v.B {
						continue
					}
				}
				positions = append(positions, int64(i))
				if captureHere {
					full := make(types.Row, len(tbl.Columns))
					for pj, cname := range p.Columns {
						ti := tbl.Columns.ColumnIndex(cname)
						full[ti] = rows.Cols[pj].Datum(i)
					}
					if err := onRow(full); err != nil {
						return 0, err
					}
				}
			}
			if len(positions) == 0 {
				continue
			}
			owner := ""
			if db.mode == ModeEnterprise {
				owner = sc.OwnerNode
			}
			dv, data := storage.NewDeleteVectorMeta(init.catalog, node.inst, sc, positions, owner)
			if err := db.persistFiles(ctx, node, map[string][]byte{dv.File.Path: data}, sc.ShardIndex, db.neverCacheTable(tbl.Name)); err != nil {
				return 0, err
			}
			txn.Put(dv)
			if captureHere {
				deletedTotal += int64(len(positions))
			}
		}
		if captureHere {
			rowsCaptured = true
		}
	}
	if onRow != nil && !rowsCaptured {
		return 0, fmt.Errorf("core: UPDATE requires a projection containing every column of %q", tbl.Name)
	}
	// When not capturing rows, count deletions from the first base
	// projection's delete vectors staged in this transaction plus rows
	// removed from WOS buffers.
	if onRow == nil {
		deletedTotal = countStagedDeletes(txn, projs) + wosDeleted
	}
	if !txn.Pending() {
		return deletedTotal, nil
	}
	_, err = db.commit(init, txn, nil)
	if err != nil {
		return 0, err
	}
	return deletedTotal, nil
}

// heldContainer is a container and the snapshot of the catalog cut it
// was listed from.
type heldContainer struct {
	sc   *catalog.StorageContainer
	snap *catalog.Snapshot
	kept bool // snap's node keeps the container's shard
}

// everyContainer captures one catalog cut of every up node and returns a
// lister of a projection's containers across it, each once. No single
// catalog lists them all: an Eon node keeps the shards it subscribes to,
// plus objects it committed itself, and of those it never receives
// another node's later delete vectors or rewrites. So a container comes
// from the snapshot of a node that keeps its shard whenever one lists it.
func (db *DB) everyContainer() (func(proj catalog.OID) []heldContainer, error) {
	var names []string
	for name := range db.UpNodes() {
		names = append(names, name)
	}
	sort.Strings(names)
	cut, err := db.captureCut(names)
	if err != nil {
		return nil, err
	}
	keeps := make([]catalog.KeepFunc, len(names))
	for i, name := range names {
		n, _ := db.Node(name)
		keeps[i] = db.keepFuncFor(n)
	}
	return func(proj catalog.OID) []heldContainer {
		at := map[catalog.OID]int{}
		var out []heldContainer
		for i, name := range names {
			for _, sc := range cut[name].ContainersOf(proj, catalog.GlobalShard) {
				h := heldContainer{sc: sc, snap: cut[name], kept: keeps[i](sc)}
				if j, ok := at[sc.OID]; !ok {
					at[sc.OID] = len(out)
					out = append(out, h)
				} else if h.kept && !out[j].kept {
					out[j] = h
				}
			}
		}
		return out
	}, nil
}

// countStagedDeletes sums the staged delete-vector counts of the first
// base projection.
func countStagedDeletes(txn *catalog.Txn, projs []*catalog.Projection) int64 {
	var base *catalog.Projection
	for _, p := range projs {
		if p.BuddyOffset == 0 {
			base = p
			break
		}
	}
	if base == nil {
		return 0
	}
	var n int64
	for _, oid := range txn.StagedOIDs() {
		o, ok := txn.Get(oid)
		if !ok {
			continue
		}
		if dv, ok := o.(*catalog.DeleteVector); ok && dv.ProjOID == base.OID {
			n += dv.Count
		}
	}
	return n
}

// clonePredicate deep-copies a predicate AST (Bind mutates nodes).
func clonePredicate(e expr.Expr) expr.Expr {
	return expr.Clone(e)
}
