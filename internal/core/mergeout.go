package core

import (
	"errors"
	"fmt"
	"time"

	"eon/internal/catalog"
	"eon/internal/obs"
	"eon/internal/planner"
	"eon/internal/shard"
	"eon/internal/storage"
	"eon/internal/tuplemover"
)

// MergeoutStats reports one mergeout pass.
type MergeoutStats struct {
	Jobs             int
	ContainersMerged int
	RowsPurged       int64
}

// RunMergeout runs one tuple-mover mergeout pass over every projection.
// In Eon mode a coordinator per shard selects jobs — "a single
// coordinator is selected to ensure that conflicting mergeout jobs are
// not executed concurrently" — and the job's commit informs the other
// subscribers (§6.2). In Enterprise mode each node compacts its own
// storage independently. Either way a job is listed, read, built and
// committed on the node that runs it, from its own catalog (§4). A job
// whose commit conflicts (catalog.ErrConflict) is left to the next pass.
func (db *DB) RunMergeout() (MergeoutStats, error) {
	var stats MergeoutStats
	init, err := db.anyUpNode()
	if err != nil {
		return stats, err
	}
	// Who runs which jobs: in Eon each segment shard's coordinator and the
	// replica shard's first up ACTIVE subscriber, in Enterprise every up
	// node over the containers it owns.
	tasks := map[string][]scanTask{}
	snap, up := init.catalog.Snapshot(), db.UpNodes()
	if db.mode == ModeEnterprise {
		for name := range up {
			tasks[name] = []scanTask{{Shard: catalog.GlobalShard, Of: 1}}
		}
	} else {
		coordinators := shard.MergeoutCoordinators(snap, up, "")
		for _, s := range snap.SubscribersOf(catalog.ReplicaShard, catalog.SubActive) {
			if up[s.Node] {
				coordinators[catalog.ReplicaShard] = s.Node
				break
			}
		}
		for sh, name := range coordinators {
			tasks[name] = append(tasks[name], scanTask{Shard: sh, Of: 1})
		}
	}
	for _, n := range db.Nodes() {
		if len(tasks[n.name]) == 0 || !n.Up() {
			continue
		}
		snap := n.catalog.Snapshot()
		env := &queryEnv{db: db, session: &Session{db: db}, snapshots: map[string]*catalog.Snapshot{n.name: snap}}
		for _, tbl := range snap.Tables() {
			for _, proj := range snap.ProjectionsOf(tbl.OID) {
				// fragmentScan.list is the one listing rule: the node's
				// shards, from its own snapshot (in Enterprise, the
				// containers it owns).
				fs := &fragmentScan{env: env, node: n, scan: &planner.Scan{Proj: proj}, tasks: tasks[n.name]}
				if err := fs.list(); err != nil {
					return stats, err
				}
				// Partition separation survives compaction: containers of
				// different partition keys never merge (§2.1).
				type group struct {
					shard int
					key   string
				}
				var order []group
				groups := map[group][]*catalog.StorageContainer{}
				dvCounts := map[catalog.OID]int64{}
				for _, w := range fs.work {
					g := group{w.sc.ShardIndex, w.sc.PartitionKey}
					if groups[g] == nil {
						order = append(order, g)
					}
					groups[g] = append(groups[g], w.sc)
					for _, dv := range snap.DeleteVectorsOf(w.sc.OID) {
						dvCounts[w.sc.OID] += dv.Count
					}
				}
				for _, g := range order {
					for _, job := range tuplemover.SelectJobs(groups[g], dvCounts, db.cfg.Mergeout) {
						jobStart := time.Now()
						purged, err := db.executeMergeJob(n, tbl, proj, job)
						db.mergeoutNS.ObserveDuration(time.Since(jobStart))
						db.mergeoutJobs.Inc()
						db.dcMergeouts.Emit(obs.DCEvent{
							Node: n.name, A: tbl.Name, B: proj.Name,
							V1: int64(len(job.Containers)), V2: purged,
							V3: int64(time.Since(jobStart)),
						})
						if errors.Is(err, catalog.ErrConflict) {
							continue
						}
						if err != nil {
							return stats, err
						}
						stats.Jobs++
						stats.ContainersMerged += len(job.Containers)
						stats.RowsPurged += purged
					}
				}
			}
		}
	}
	return stats, nil
}

// executeMergeJob reads the input containers through the runner's
// fragment reader (dropping deleted rows), writes one merged container,
// and commits the swap on the runner. Input containers and their delete
// vectors are dropped in the same transaction; their files become
// deletion candidates (§6.5). The commit fails with catalog.ErrConflict
// if the runner no longer subscribes to the shard, or if an input gained
// a delete vector after the job read it: the merged container would bring
// those rows back.
func (db *DB) executeMergeJob(runner *Node, tbl *catalog.Table, proj *catalog.Projection, job tuplemover.Job) (int64, error) {
	ctx := db.Context()
	txn := runner.catalog.Begin()
	snap := txn.Base()
	projSchema := physicalSchema(tbl, proj)
	shardIdx := job.Containers[0].ShardIndex
	inputs := make([]*catalog.StorageContainer, len(job.Containers))
	dropped := make([]readFrom, len(job.Containers))
	var rows int64
	for i, sc := range job.Containers {
		// Re-read through the transaction so a concurrent drop conflicts.
		cur, ok := txn.Get(sc.OID)
		if !ok {
			return 0, fmt.Errorf("%w: container %d vanished before mergeout", catalog.ErrConflict, sc.OID)
		}
		inputs[i] = cur.(*catalog.StorageContainer)
		dropped[i] = stageDrop(txn, readFrom{sc: inputs[i], node: runner, dvs: snap.DeleteVectorsOf(sc.OID)})
		rows += inputs[i].RowCount
	}
	merged, err := db.readLive(ctx, runner, snap, tbl, proj, projSchema, inputs)
	if err != nil {
		return 0, err
	}
	purged := rows - int64(merged.NumRows())

	// Live aggregate projections re-aggregate on compaction: partial
	// groups from separate loads fold into one row per group.
	if proj.IsLiveAggregate() {
		merged, err = aggregateForLiveProjection(proj, projSchema, merged, true)
		if err != nil {
			return 0, err
		}
	}

	owner := ""
	if db.mode == ModeEnterprise {
		owner = runner.name
	}
	built, err := storage.BuildContainer(runner.catalog, runner.InstanceID(), storage.WriteSpec{
		Projection: proj, Schema: projSchema,
		ShardIndex: shardIdx, PartitionKey: job.Containers[0].PartitionKey,
		OwnerNode: owner, BundleThreshold: db.cfg.BundleThreshold,
		CreateVersion: snap.Version() + 1,
	}, merged)
	if err != nil {
		return 0, err
	}
	if built != nil {
		// Mergeout output goes into the cache and shared storage (§5.2).
		if err := db.persistFiles(ctx, runner, built.Files, shardIdx, db.neverCacheTable(tbl.Name)); err != nil {
			return 0, err
		}
		txn.Put(built.Meta)
	}
	var writers []writerShard // an Enterprise runner owns its inputs
	if db.mode == ModeEon {
		writers = []writerShard{{runner.name, shardIdx}}
	}
	// The transaction deletes the delete vectors it applied, so none of
	// them can have gone; an input holding more gained one.
	var ships []pendingShip
	if built != nil {
		ships = []pendingShip{{files: built.Files}}
	}
	rec, err := db.commitWritten(runner, txn, ships, db.validateWriters(writers), validateWritten(nil, dropped))
	if err != nil {
		return 0, err
	}
	// Dropped inputs free their files only when unreferenced (copied
	// tables share files, §6.5).
	db.queueDropped(rec.Version, dropped...)
	return purged, nil
}
