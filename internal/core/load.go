package core

import (
	"fmt"
	"time"

	"eon/internal/catalog"
	"eon/internal/exec"
	"eon/internal/expr"
	"eon/internal/flowassign"
	"eon/internal/sql"
	"eon/internal/storage"
	"eon/internal/types"
)

// LoadRows bulk-loads a batch (columns in table order) into a table —
// the COPY path of Figure 8: split the data by projection and shard,
// write files to the cache, flush to shared storage and peers, then
// commit. The commit point is after upload completes (§4.5).
func (db *DB) LoadRows(tableName string, batch *types.Batch) error {
	if batch == nil || batch.NumRows() == 0 {
		return nil
	}
	if err := db.EnsureDefaultProjection(tableName); err != nil {
		return err
	}
	init, err := db.anyUpNode()
	if err != nil {
		return err
	}
	txn := init.catalog.Begin()
	tbl, ok := txn.Base().TableByName(tableName)
	if !ok {
		return fmt.Errorf("core: unknown table %q", tableName)
	}
	if batch.NumCols() != len(tbl.Columns) {
		return fmt.Errorf("core: batch arity %d != table arity %d", batch.NumCols(), len(tbl.Columns))
	}
	load, err := db.stageLoad(init, txn, tbl, batch)
	if err != nil {
		return err
	}
	defer load.release()
	// Persist all files before commit — "for a committed transaction all
	// the data has been successfully uploaded to shared storage" (§4.5).
	if err := db.persistShips(db.Context(), load.ships, db.neverCacheTable(tbl.Name)); err != nil {
		return err
	}
	// Commit with the subscription-stability check: if a participating
	// node is no longer subscribed to the shard it wrote, roll back
	// (§4.5).
	_, err = db.commitWritten(init, txn, load.ships, db.validateWriters(load.writers))
	return err
}

// stagedLoad is a load built into a transaction but not yet persisted:
// its containers' files, the nodes that wrote them and for which shard,
// and the release of the load slots it holds.
type stagedLoad struct {
	ships   []pendingShip
	writers []writerShard
	release func()
}

// stageLoad builds batch (columns in table order) into txn as ROS
// containers. It fills the flattened columns from their dimension tables
// ("denormalization using joins at load time", §2.1), splits the rows by
// table partition, then per projection by segment shard, and chooses the
// writers, holding their load slots. Nothing is persisted: the caller
// persists load.ships, commits txn with validateWriters(load.writers),
// and releases the slots. LoadRows and an UPDATE's re-insert share it.
func (db *DB) stageLoad(init *Node, txn *catalog.Txn, tbl *catalog.Table, batch *types.Batch) (stagedLoad, error) {
	snap := txn.Base()
	// The load writes containers of tbl's projections as its base has
	// them: a DROP TABLE or ADD COLUMN committing meanwhile fails the
	// commit with catalog.ErrConflict.
	txn.TrackRead(tbl.OID)
	batch, err := db.applyFlattened(tbl, batch)
	if err != nil {
		return stagedLoad{}, err
	}
	// Split by table partition, then per projection by segment shard.
	partitions, err := splitByPartition(tbl, tbl.Columns, batch)
	if err != nil {
		return stagedLoad{}, err
	}
	// Choose writers per shard (Eon): an ACTIVE subscriber per shard.
	writers, err := db.writerAssignment(snap)
	if err != nil {
		return stagedLoad{}, err
	}
	// Ingest occupies one execution slot per written shard on its writer
	// node, so load throughput scales with cluster size the same way
	// query throughput does (§4.2, Figure 11b).
	load := stagedLoad{release: db.acquireLoadSlots(writers)}
	// Simulated per-node ingest time, spent while slots are held (see
	// Config.LoadCost).
	if db.cfg.LoadCost > 0 {
		time.Sleep(db.cfg.LoadCost)
	}
	for _, p := range snap.ProjectionsOf(tbl.OID) {
		txn.TrackRead(p.OID)
		ps, pw, err := db.buildProjectionContainers(init, txn, tbl, p, partitions, writers, snap.Version()+1)
		if err != nil {
			load.release()
			return stagedLoad{}, err
		}
		load.ships = append(load.ships, ps...)
		load.writers = append(load.writers, pw...)
	}
	return load, nil
}

// pendingShip is a built container's files awaiting persistence.
type pendingShip struct {
	writer *Node
	files  map[string][]byte
	shard  int
}

// buildProjectionContainers splits (already partitioned) table rows into
// one projection's containers: live aggregates are computed, replicated
// projections stored whole, segmented projections split by the shard
// ring, with writers chosen per mode (stageLoad, for each projection).
func (db *DB) buildProjectionContainers(init *Node, txn *catalog.Txn, tbl *catalog.Table, p *catalog.Projection, partitions map[string]*types.Batch, writers map[int]string, createVersion uint64) ([]pendingShip, []writerShard, error) {
	var ships []pendingShip
	var participating []writerShard
	projSchema := physicalSchema(tbl, p)
	for partKey, partBatch := range partitions {
		var projBatch *types.Batch
		var err error
		if p.IsLiveAggregate() {
			// Maintain the pre-computed partial aggregates (§2.1):
			// aggregate this load's rows by the group columns.
			projBatch, err = aggregateForLiveProjection(p, tbl.Columns, partBatch, false)
		} else {
			projBatch, err = projectBatch(tbl, p.Columns, partBatch)
		}
		if err != nil {
			return nil, nil, err
		}
		if p.Replicated() {
			if db.mode == ModeEnterprise {
				// Every node stores a full copy.
				for _, name := range db.order {
					n := db.nodes[name]
					built, err := storage.BuildContainer(init.catalog, n.InstanceID(), storage.WriteSpec{
						Projection: p, Schema: projSchema,
						ShardIndex: catalog.ReplicaShard, PartitionKey: partKey,
						OwnerNode: n.name, BundleThreshold: db.cfg.BundleThreshold,
						CreateVersion: createVersion,
					}, projBatch)
					if err != nil {
						return nil, nil, err
					}
					if built == nil {
						continue
					}
					txn.Put(built.Meta)
					ships = append(ships, pendingShip{writer: n, files: built.Files, shard: catalog.ReplicaShard})
				}
			} else {
				built, err := storage.BuildContainer(init.catalog, init.InstanceID(), storage.WriteSpec{
					Projection: p, Schema: projSchema,
					ShardIndex: catalog.ReplicaShard, PartitionKey: partKey,
					BundleThreshold: db.cfg.BundleThreshold,
					CreateVersion:   createVersion,
				}, projBatch)
				if err != nil {
					return nil, nil, err
				}
				if built == nil {
					continue
				}
				txn.Put(built.Meta)
				ships = append(ships, pendingShip{writer: init, files: built.Files, shard: catalog.ReplicaShard})
				participating = append(participating, writerShard{node: init.name, shard: catalog.ReplicaShard})
			}
			continue
		}
		// Segmented: split rows by the shard ring on the projection's
		// segmentation columns.
		segIdx, err := columnPositions(projSchema, p.SegmentCols)
		if err != nil {
			return nil, nil, err
		}
		parts := exec.Partition(projBatch, segIdx, db.ring.Count(), db.ring.SegmentFor)
		for shardIdx, part := range parts {
			if part == nil || part.NumRows() == 0 {
				continue
			}
			var writer *Node
			ownerName := ""
			if db.mode == ModeEnterprise {
				nNodes := len(db.order)
				ownerName = db.order[(shardIdx+p.BuddyOffset)%nNodes]
				w, ok := db.Node(ownerName)
				if !ok || !w.Up() {
					return nil, nil, fmt.Errorf("core: owner node %s for segment %d is down", ownerName, shardIdx)
				}
				writer = w
			} else {
				w, ok := db.Node(writers[shardIdx])
				if !ok || !w.Up() {
					return nil, nil, fmt.Errorf("core: writer for shard %d unavailable", shardIdx)
				}
				writer = w
				participating = append(participating, writerShard{node: writer.name, shard: shardIdx})
			}
			built, err := storage.BuildContainer(init.catalog, writer.InstanceID(), storage.WriteSpec{
				Projection: p, Schema: projSchema,
				ShardIndex: shardIdx, PartitionKey: partKey,
				OwnerNode: ownerName, BundleThreshold: db.cfg.BundleThreshold,
				CreateVersion: createVersion,
			}, part)
			if err != nil {
				return nil, nil, err
			}
			if built == nil {
				continue
			}
			txn.Put(built.Meta)
			ships = append(ships, pendingShip{writer: writer, files: built.Files, shard: shardIdx})
		}
	}
	return ships, participating, nil
}

type writerShard struct {
	node  string
	shard int
}

// acquireLoadSlots reserves one slot per (writer, shard) pair atomically;
// Enterprise loads (nil assignment) take one slot per up node since
// every node ingests its segments.
func (db *DB) acquireLoadSlots(writers map[int]string) func() {
	req := map[string]int{}
	if writers == nil {
		for _, n := range db.Nodes() {
			if n.Up() {
				req[n.name] = 1
			}
		}
	} else {
		for _, node := range writers {
			req[node]++
		}
	}
	// Drop requests on nodes that are already down; the load itself will
	// fail cleanly when it reaches them.
	for name := range req {
		if n, ok := db.Node(name); !ok || !n.Up() {
			delete(req, name)
		}
	}
	if !db.slots.acquire(req, func() bool { return !db.shutdown.Load() }) {
		return func() {}
	}
	return func() { db.slots.release(req) }
}

// validateWriters builds the commit-time validation that every writing
// node still subscribes to its shard (an Enterprise load names none); it
// fails with catalog.ErrConflict.
func (db *DB) validateWriters(ws []writerShard) func(*catalog.Snapshot) error {
	return func(latest *catalog.Snapshot) error {
		for _, w := range ws {
			ok := false
			for _, s := range latest.SubscribersOf(w.shard) {
				if s.Node == w.node && s.State != catalog.SubRemoving {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("%w: node %s unsubscribed from shard %d", catalog.ErrConflict, w.node, w.shard)
			}
		}
		return nil
	}
}

// writerAssignment maps each segment shard to an ACTIVE up subscriber
// for the load (Eon).
func (db *DB) writerAssignment(snap *catalog.Snapshot) (map[int]string, error) {
	if db.mode == ModeEnterprise {
		return nil, nil
	}
	up := db.UpNodes()
	var shards []int
	for i := 0; i < db.cfg.ShardCount; i++ {
		shards = append(shards, i)
	}
	var nodes []string
	for _, n := range snap.Nodes() {
		if up[n.Name] {
			nodes = append(nodes, n.Name)
		}
	}
	canServe := func(node string, shard int) bool {
		for _, s := range snap.SubscribersOf(shard, catalog.SubActive) {
			if s.Node == node {
				return true
			}
		}
		return false
	}
	return flowassign.Assign(flowassign.Input{
		Shards: shards, Nodes: nodes, CanServe: canServe,
		Seed: db.cfg.Seed + db.seedCtr.Add(1),
	})
}

// splitByPartition groups a batch's rows by the table's partition
// expression (paper §2.1: any given file contains data from only one
// partition), keyed by the value's text. The expression is bound against
// schema, the batch's own column order, and evaluated once over the
// whole batch; a schema without the partition columns — a projection
// that leaves them out — keeps its rows unpartitioned.
func splitByPartition(tbl *catalog.Table, schema types.Schema, batch *types.Batch) (map[string]*types.Batch, error) {
	if tbl.PartitionExpr == "" {
		return map[string]*types.Batch{"": batch}, nil
	}
	pe, err := sql.ParseExpr(tbl.PartitionExpr)
	if err != nil {
		return nil, fmt.Errorf("core: partition expression: %w", err)
	}
	if err := expr.Bind(pe, schema); err != nil {
		return map[string]*types.Batch{"": batch}, nil
	}
	vals, err := expr.EvalVec(pe, batch, nil, nil)
	if err != nil {
		return nil, err
	}
	groups := map[string][]int{}
	for i := 0; i < vals.Len(); i++ {
		key := vals.Datum(i).String()
		groups[key] = append(groups[key], i)
	}
	out := make(map[string]*types.Batch, len(groups))
	for key, idx := range groups {
		out[key] = batch.Gather(idx)
	}
	return out, nil
}

// projectBatch reorders table-ordered columns into projection order.
func projectBatch(tbl *catalog.Table, cols []string, batch *types.Batch) (*types.Batch, error) {
	out := &types.Batch{Cols: make([]*types.Vector, len(cols))}
	for i, c := range cols {
		idx := tbl.Columns.ColumnIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("core: projection column %q missing from table", c)
		}
		out.Cols[i] = batch.Cols[idx]
	}
	return out, nil
}

// columnPositions maps column names to schema positions.
func columnPositions(schema types.Schema, cols []string) ([]int, error) {
	out := make([]int, len(cols))
	for i, c := range cols {
		idx := schema.ColumnIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("core: column %q not in schema [%s]", c, schema)
		}
		out[i] = idx
	}
	return out, nil
}

// Insert executes INSERT INTO ... VALUES: literal rows are evaluated and
// loaded through the normal load path.
func (db *DB) Insert(stmt *sql.Insert) error {
	init, err := db.anyUpNode()
	if err != nil {
		return err
	}
	snap := init.catalog.Snapshot()
	tbl, ok := snap.TableByName(stmt.Table)
	if !ok {
		return fmt.Errorf("core: unknown table %q", stmt.Table)
	}
	batch := types.NewBatch(tbl.Columns, len(stmt.Rows))
	for _, exprs := range stmt.Rows {
		if len(exprs) != len(tbl.Columns) {
			return fmt.Errorf("core: INSERT arity %d != table arity %d", len(exprs), len(tbl.Columns))
		}
		row := make(types.Row, len(exprs))
		for i, e := range exprs {
			if err := expr.Bind(e, nil); err != nil {
				return fmt.Errorf("core: INSERT values must be constant: %w", err)
			}
			v, err := expr.EvalRow(e, nil)
			if err != nil {
				return err
			}
			coerced, err := coerceDatum(v, tbl.Columns[i].Type)
			if err != nil {
				return fmt.Errorf("core: column %q: %w", tbl.Columns[i].Name, err)
			}
			row[i] = coerced
		}
		batch.AppendRow(row)
	}
	return db.LoadRows(tbl.Name, batch)
}

// coerceDatum converts a literal to the column type where lossless.
func coerceDatum(d types.Datum, want types.Type) (types.Datum, error) {
	if d.Null {
		return types.NullDatum(want), nil
	}
	if d.K == want {
		return d, nil
	}
	switch {
	case d.K.Physical() == types.Int64 && want.Physical() == types.Int64:
		d.K = want
		return d, nil
	case d.K == types.Int64 && want == types.Float64:
		return types.NewFloat(float64(d.I)), nil
	case d.K == types.Float64 && want == types.Int64 && d.F == float64(int64(d.F)):
		return types.NewInt(int64(d.F)), nil
	case d.K == types.Varchar && want == types.Varchar:
		return d, nil
	}
	return d, fmt.Errorf("cannot coerce %s to %s", d.K, want)
}
