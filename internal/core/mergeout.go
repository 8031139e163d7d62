package core

import (
	"fmt"
	"time"

	"eon/internal/catalog"
	"eon/internal/obs"
	"eon/internal/shard"
	"eon/internal/storage"
	"eon/internal/tuplemover"
	"eon/internal/types"
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
// storage independently.
func (db *DB) RunMergeout() (MergeoutStats, error) {
	var stats MergeoutStats
	init, err := db.anyUpNode()
	if err != nil {
		return stats, err
	}
	snap := init.catalog.Snapshot()

	var coordinators map[int]string
	if db.mode == ModeEon {
		coordinators = shard.MergeoutCoordinators(snap, db.UpNodes(), "")
	}

	for _, tbl := range snap.Tables() {
		for _, proj := range snap.ProjectionsOf(tbl.OID) {
			// Group containers per shard (Eon) or per (owner, shard)
			// (Enterprise), mirroring who may run the job.
			groups := map[string][]*catalog.StorageContainer{}
			groupNode := map[string]*Node{}
			for _, sc := range snap.ContainersOf(proj.OID, catalog.GlobalShard) {
				var key string
				var runner *Node
				// Partition separation survives compaction: containers of
				// different partition keys never merge (§2.1).
				if db.mode == ModeEnterprise {
					key = fmt.Sprintf("%s/%d/%s", sc.OwnerNode, sc.ShardIndex, sc.PartitionKey)
					if n, ok := db.Node(sc.OwnerNode); ok && n.Up() {
						runner = n
					}
				} else {
					key = fmt.Sprintf("%d/%s", sc.ShardIndex, sc.PartitionKey)
					coordName := coordinators[sc.ShardIndex]
					if sc.ShardIndex == catalog.ReplicaShard {
						coordName = init.name
					}
					if n, ok := db.Node(coordName); ok && n.Up() {
						runner = n
					}
				}
				if runner == nil {
					continue
				}
				groups[key] = append(groups[key], sc)
				groupNode[key] = runner
			}
			for key, containers := range groups {
				dvCounts := map[catalog.OID]int64{}
				for _, sc := range containers {
					for _, dv := range snap.DeleteVectorsOf(sc.OID) {
						dvCounts[sc.OID] += dv.Count
					}
				}
				jobs := tuplemover.SelectJobs(containers, dvCounts, db.cfg.Mergeout)
				for _, job := range jobs {
					jobStart := time.Now()
					purged, err := db.executeMergeJob(groupNode[key], tbl, proj, job)
					db.mergeoutNS.ObserveDuration(time.Since(jobStart))
					db.mergeoutJobs.Inc()
					db.dcMergeouts.Emit(obs.DCEvent{
						Node: groupNode[key].name, A: tbl.Name, B: proj.Name,
						V1: int64(len(job.Containers)), V2: purged,
						V3: int64(time.Since(jobStart)),
					})
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
	return stats, nil
}

// executeMergeJob reads the input containers (dropping deleted rows),
// writes one merged container, and commits the swap. Input containers
// and their delete vectors are dropped in the same transaction; their
// files become deletion candidates (§6.5).
func (db *DB) executeMergeJob(runner *Node, tbl *catalog.Table, proj *catalog.Projection, job tuplemover.Job) (int64, error) {
	ctx := db.Context()
	init, err := db.anyUpNode()
	if err != nil {
		return 0, err
	}
	txn := init.catalog.Begin()
	snap := txn.Base()
	projSchema := physicalSchema(tbl, proj)

	merged := types.NewBatch(projSchema, 0)
	var purged int64
	shardIdx := job.Containers[0].ShardIndex
	partKey := job.Containers[0].PartitionKey
	for _, sc := range job.Containers {
		// Re-read through the transaction so a concurrent drop conflicts.
		cur, ok := txn.Get(sc.OID)
		if !ok {
			return 0, fmt.Errorf("core: container %d vanished before mergeout", sc.OID)
		}
		sc = cur.(*catalog.StorageContainer)
		dvs := snap.DeleteVectorsOf(sc.OID)
		rows, deletes, err := db.readContainer(ctx, runner, sc, dvs, projSchema)
		if err != nil {
			return 0, err
		}
		for _, dv := range dvs {
			txn.Delete(dv.OID)
		}
		live := deletes.LivePositions(0, rows.NumRows())
		purged += int64(rows.NumRows() - len(live))
		if len(live) < rows.NumRows() {
			rows = rows.Gather(live)
		}
		merged.AppendBatch(rows)
		txn.Delete(sc.OID)
	}

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
	built, err := storage.BuildContainer(init.catalog, runner.InstanceID(), storage.WriteSpec{
		Projection: proj, Schema: projSchema,
		ShardIndex: shardIdx, PartitionKey: partKey,
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
	rec, err := db.commit(init, txn, nil)
	if err != nil {
		return 0, err
	}
	// Dropped inputs free their files only when unreferenced (copied
	// tables share files, §6.5).
	after := init.catalog.Snapshot()
	dropped := make([]droppedContainer, len(job.Containers))
	for i, sc := range job.Containers {
		dropped[i] = droppedContainer{sc, snap.DeleteVectorsOf(sc.OID)}
	}
	db.queueDropped(after, rec.Version, dropped...)
	return purged, nil
}
