package core

import (
	"fmt"

	"eon/internal/catalog"
	"eon/internal/exec"
	"eon/internal/obs"
	"eon/internal/planner"
	"eon/internal/sql"
	"eon/internal/storage"
	"eon/internal/types"
)

// Delete removes the rows matching the statement's predicate by writing
// delete vectors — tombstones stored in the column-file format; the
// underlying files are never modified (§2.3, §4.5). It returns the number
// of deleted rows.
func (s *Session) Delete(stmt *sql.Delete) (int64, error) { return s.modify(stmt) }

// Update models UPDATE as a delete followed by an insert of the modified
// rows (§2.3). It returns the number of updated rows.
func (s *Session) Update(stmt *sql.Update) (int64, error) { return s.modify(stmt) }

// modify runs a DML statement and returns its row count.
func (s *Session) modify(stmt sql.Statement) (int64, error) {
	res, err := s.run(&queryRequest{dml: stmt})
	if err != nil {
		return 0, err
	}
	return res.Batch.Cols[0].Ints[0], nil
}

// runDML executes a DELETE or UPDATE as a query (tryQuery): one scan per
// projection (planner.PlanDML), run like a SELECT's under one cut, finds
// where the matching rows are stored, and the initiator writes one delete
// vector per container into one transaction. Without WHERE every row
// goes, so the statement instead drops every container of every
// projection, as eachContainer lists them, and scans only for its rows.
// An UPDATE stages its rows, with the SET expressions applied, into the
// same transaction as new containers; the delete vectors and the
// containers are persisted together and committed once, so no reader
// sees the old rows gone without the new ones. Nothing is written
// outside that transaction, so a failed statement has nothing to undo.
func (s *Session) runDML(stmt sql.Statement, env *queryEnv, root *obs.Span) (*Result, error) {
	db, init := s.db, env.initiator
	planSp := root.StartSpan("plan")
	plan, err := planner.PlanDML(env.snapshots[init.name], stmt)
	planSp.End()
	if err != nil {
		return nil, err
	}
	if err := db.needEveryNode("DML"); err != nil {
		return nil, err
	}
	trees := make([]planner.Node, len(plan.Scans))
	for i, scan := range plan.Scans {
		trees[i] = scan
	}
	env.read = map[catalog.OID]readFrom{}
	found, err := s.admitAndRun(env, root, trees...)
	if err != nil {
		return nil, err
	}

	writeSp := root.StartSpan("write")
	defer writeSp.End()
	txn := init.catalog.Begin()
	var ships []pendingShip
	var dropped []readFrom
	written := map[catalog.OID]readFrom{}
	var n int64
	var rows *types.Batch // UPDATE: the statement's rows, in projection order
	for i, b := range found {
		data := len(b.Cols) - len(planner.PositionSchema)
		byContainer := map[catalog.OID][]int64{}
		var keep []int
		for r, oid := range b.Cols[data].Ints {
			c := catalog.OID(oid)
			if !plan.Drop {
				byContainer[c] = append(byContainer[c], b.Cols[data+1].Ints[r])
			}
			if i == plan.Rows && env.oneCopy(env.read[c].sc) {
				keep = append(keep, r)
			}
		}
		for oid, positions := range byContainer {
			h := env.read[oid]
			written[oid] = h
			dv, file := storage.NewDeleteVectorMeta(init.catalog, h.node.InstanceID(), h.sc, positions, h.sc.OwnerNode)
			txn.Put(dv)
			ships = append(ships, pendingShip{writer: h.node, files: map[string][]byte{dv.File.Path: file}, shard: h.sc.ShardIndex})
		}
		if i == plan.Rows {
			n = int64(len(keep))
			if plan.Set != nil {
				rows = (&types.Batch{Cols: b.Cols[:data]}).Gather(keep)
			}
		}
	}
	if plan.Drop {
		for _, p := range env.snapshots[init.name].ProjectionsOf(plan.Table.OID) {
			err := env.eachContainer(p, func(n *Node, sc *catalog.StorageContainer) error {
				dropped = append(dropped, stageDrop(txn, env.whole(n, sc)))
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	writeSp.AddAttr("delete_vectors", int64(len(ships)))
	writeSp.AddAttr("containers_dropped", int64(len(dropped)))
	var writers []writerShard
	if rows != nil && rows.NumRows() > 0 {
		load, err := db.stageUpdate(env, txn, plan, rows)
		if err != nil {
			return nil, fmt.Errorf("core: UPDATE re-insert: %v", err)
		}
		defer load.release()
		ships = append(ships, load.ships...)
		writers = load.writers
	}
	if len(ships) > 0 || len(dropped) > 0 {
		if err := db.persistShips(db.Context(), ships, db.neverCacheTable(plan.Table.Name)); err != nil {
			return nil, err
		}
		rec, err := db.commitWritten(init, txn, ships, validateWritten(written, dropped), db.validateWriters(writers))
		if err != nil {
			return nil, err
		}
		db.queueDropped(rec.Version, dropped...)
	}
	if plan.Set == nil {
		return countResult("deleted", n), nil
	}
	return countResult("updated", n), nil
}

// readFrom is a container a statement read or listed, and the node that
// did, which keeps the container's shard (or owns it, in Enterprise);
// for a container the statement takes whole (queryEnv.whole), also the
// delete vectors that node held for it.
type readFrom struct {
	sc   *catalog.StorageContainer
	node *Node
	dvs  []*catalog.DeleteVector
}

// oneCopy reports whether sc's rows count toward the statement's rows:
// every container does, except that an Enterprise replicated projection
// keeps a full copy on each node, and only the initiator's counts.
func (env *queryEnv) oneCopy(sc *catalog.StorageContainer) bool {
	return env.db.mode != ModeEnterprise || sc.ShardIndex != catalog.ReplicaShard || sc.OwnerNode == env.initiator.name
}

// needEveryNode is the Enterprise rule for every statement that writes
// storage, checked before it writes anything: every node must be up. A
// down node's own copy of the table is neither listed nor rewritten, and
// recovery copies it back unchanged, so a DELETE would lose its rows
// there, and a dropped, moved or copied container or an added column
// would be missing from it.
func (db *DB) needEveryNode(what string) error {
	if db.mode == ModeEnterprise && len(db.UpNodes()) < len(db.order) {
		return fmt.Errorf("core: %s needs every node up in Enterprise mode", what)
	}
	return nil
}

// validateWritten is the commit check of every statement that writes
// storage, run under commitMu against the catalog of the node that listed
// each container. A container the statement writes to (a delete vector,
// a column) still exists, and one it takes whole (drops, moves or
// copies) is unchanged and carries exactly the delete vectors listed with
// it: no write lands on a container a mergeout replaced meanwhile, and
// no row deleted meanwhile comes back. Containers a DML scan read without
// a match are not checked.
func validateWritten(written map[catalog.OID]readFrom, whole []readFrom) func(*catalog.Snapshot) error {
	return func(*catalog.Snapshot) error {
		for oid, h := range written {
			if !h.node.Up() {
				return fmt.Errorf("%w: %s", errNodeDown, h.node.name)
			}
			if _, ok := h.node.catalog.Snapshot().Get(oid); !ok {
				return fmt.Errorf("%w: container %d was replaced during the statement", catalog.ErrConflict, oid)
			}
		}
		for _, d := range whole {
			if !d.node.Up() {
				return fmt.Errorf("%w: %s", errNodeDown, d.node.name)
			}
			snap := d.node.catalog.Snapshot()
			if cur, _ := snap.Get(d.sc.OID); cur != catalog.Object(d.sc) {
				return fmt.Errorf("%w: container %d changed during the statement", catalog.ErrConflict, d.sc.OID)
			}
			if len(snap.DeleteVectorsOf(d.sc.OID)) != len(d.dvs) {
				return fmt.Errorf("%w: container %d gained a delete vector during the statement", catalog.ErrConflict, d.sc.OID)
			}
		}
		return nil
	}
}

// stageUpdate stages an UPDATE's rows, with the SET expressions applied,
// evaluated by the query's engine and coerced to the column types as a
// load coerces, into txn as new containers (stageLoad).
func (db *DB) stageUpdate(env *queryEnv, txn *catalog.Txn, plan *planner.DML, rows *types.Batch) (stagedLoad, error) {
	tbl := plan.Table
	schema := plan.Scans[plan.Rows].OutSchema[:len(rows.Cols)]
	p := exec.NewProject(exec.NewSource(schema, rows), plan.Set, tbl.Columns.Names())
	p.Eng = env.eng()
	out, err := exec.Collect(p)
	if err != nil {
		return stagedLoad{}, err
	}
	for i, c := range tbl.Columns {
		v := out.Cols[i]
		if v.Typ == c.Type {
			continue
		}
		coerced := types.NewVector(c.Type, v.Len())
		for r := 0; r < v.Len(); r++ {
			d, err := coerceDatum(v.Datum(r), c.Type)
			if err != nil {
				return stagedLoad{}, fmt.Errorf("column %q: %w", c.Name, err)
			}
			coerced.Append(d)
		}
		out.Cols[i] = coerced
	}
	return db.stageLoad(env.initiator, txn, tbl, out)
}
