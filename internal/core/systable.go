package core

import (
	"fmt"
	"sort"
	"time"

	"eon/internal/catalog"
	"eon/internal/exec"
	"eon/internal/obs"
	"eon/internal/planner"
	"eon/internal/systable"
	"eon/internal/types"
)

// This file wires the v_monitor virtual schema into the engine: the
// Data Collector rings hot paths emit into, the system-table registry
// the planner resolves v_monitor.* names against, and the scan-time
// materialization of both. Fill functions follow the scan discipline:
// each takes its own snapshot cut (registry snapshot, ring snapshot,
// catalog snapshot, bounded-ring copy) and never holds a hot-path lock
// while building rows, so monitoring queries cannot block or deadlock
// against concurrent loads, mergeouts or reconciler ticks.

// Data Collector ring definitions. Emit sites resolve these rings once
// at database creation and hold the pointer (a nil ring drops emits, so
// a database with the collector disabled pays only a nil check).
var (
	dcDepotFetchesDef = obs.DCRingDef{Name: "depot_fetches",
		ACol: "path", BCol: "outcome", VCols: []string{"bytes", "wait_ns"}}
	dcDepotEvictionsDef = obs.DCRingDef{Name: "depot_evictions",
		ACol: "path", VCols: []string{"bytes"}}
	dcMergeoutsDef = obs.DCRingDef{Name: "mergeouts",
		ACol: "table_name", BCol: "projection", VCols: []string{"containers", "purged_rows", "wall_ns"}}
	dcSpillsDef = obs.DCRingDef{Name: "spills",
		VCols: []string{"peak_mem_bytes", "spill_count", "spill_bytes"}}
	// admission_waits carries the full admission lifecycle: "queued",
	// "admitted", "finished" and "timeout" transitions from the admission
	// controller (wait_ns, mem_bytes, queue_depth populated) plus "slots"
	// events from slot acquisition (wait_ns, slots populated).
	dcAdmissionWaitsDef = obs.DCRingDef{Name: "admission_waits",
		ACol: "subcluster", BCol: "state",
		VCols: []string{"wait_ns", "slots", "mem_bytes", "queue_depth"}}
	dcSlowQueriesDef = obs.DCRingDef{Name: "slow_queries",
		ACol: "sql", BCol: "error", VCols: []string{"wall_ns", "peak_mem_bytes", "spill_bytes"}}
	dcReconcileActionsDef = obs.DCRingDef{Name: "reconcile_actions",
		ACol: "action", BCol: "detail", VCols: []string{"round", "ok", "wall_ns"}}
)

// sessionLogSize bounds the recent-session ring behind
// v_monitor.sessions and v_monitor.query_profiles; slowQueryLogSize bounds
// the slow-query log (DB.SlowQueries).
const (
	sessionLogSize   = 128
	slowQueryLogSize = 64
)

// dcSQLLimit truncates slow-query SQL text in Data Collector events so
// one giant statement cannot crowd a ring's byte budget.
const dcSQLLimit = 512

// installDataCollector builds the collector and resolves every ring the
// engine emits into, then hooks each node cache's eviction callback.
func (db *DB) installDataCollector() {
	if db.cfg.DisableDataCollector {
		return
	}
	db.dc = obs.NewDataCollector(db.cfg.DataCollectorPolicy)
	db.dcDepotFetches = db.dc.Ring(dcDepotFetchesDef)
	db.dcDepotEvictions = db.dc.Ring(dcDepotEvictionsDef)
	db.dcMergeouts = db.dc.Ring(dcMergeoutsDef)
	db.dcSpills = db.dc.Ring(dcSpillsDef)
	db.dcAdmissionWaits = db.dc.Ring(dcAdmissionWaitsDef)
	db.admission.ring = db.dcAdmissionWaits
	db.dcSlowQueries = db.dc.Ring(dcSlowQueriesDef)
	db.dcReconcileActions = db.dc.Ring(dcReconcileActionsDef)
	for _, name := range db.order {
		db.hookCacheEvictions(db.nodes[name])
	}
}

// hookCacheEvictions points a node cache's eviction callback at the
// depot_evictions ring.
func (db *DB) hookCacheEvictions(n *Node) {
	if n == nil || n.cache == nil || db.dcDepotEvictions == nil {
		return
	}
	node := n.name
	ring := db.dcDepotEvictions
	n.cache.SetEvictHook(func(path string, size int64) {
		ring.Emit(obs.DCEvent{Node: node, A: path, V1: size})
	})
}

// DataCollector returns the database's Data Collector (nil when
// disabled). Callers may resolve additional rings from it.
func (db *DB) DataCollector() *obs.DataCollector { return db.dc }

// SystemTables returns the v_monitor virtual-table registry.
func (db *DB) SystemTables() *systable.Registry { return db.sysTables }

// EmitReconcileAction records one reconciler action into the
// dc_reconcile_actions ring (called by the reconcile package; core
// cannot import it).
func (db *DB) EmitReconcileAction(node, action, detail string, round int64, ok bool, wall time.Duration) {
	okv := int64(0)
	if ok {
		okv = 1
	}
	db.dcReconcileActions.Emit(obs.DCEvent{
		Node: node, A: action, B: detail,
		V1: round, V2: okv, V3: int64(wall),
	})
}

// ReconcileStatus is one reconciler's current state as surfaced through
// v_monitor.reconcile_status. The reconcile package installs a provider
// per reconciler (core cannot import it, so the dependency inverts).
type ReconcileStatus struct {
	Code       string
	Round      int64
	Pending    int64
	QueueDepth int64
	P95        time.Duration
	Reasons    []string
}

// SetReconcileStatusProvider installs (or, with a nil fn, removes) a
// named reconcile-status source for v_monitor.reconcile_status.
func (db *DB) SetReconcileStatusProvider(name string, fn func() ReconcileStatus) {
	db.rsMu.Lock()
	defer db.rsMu.Unlock()
	if db.rsProviders == nil {
		db.rsProviders = map[string]func() ReconcileStatus{}
	}
	if fn == nil {
		delete(db.rsProviders, name)
		return
	}
	db.rsProviders[name] = fn
}

// reconcileStatuses snapshots every registered provider, sorted by name.
func (db *DB) reconcileStatuses() []struct {
	Name   string
	Status ReconcileStatus
} {
	db.rsMu.Lock()
	names := make([]string, 0, len(db.rsProviders))
	fns := make([]func() ReconcileStatus, 0, len(db.rsProviders))
	for n := range db.rsProviders {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fns = append(fns, db.rsProviders[n])
	}
	db.rsMu.Unlock()
	out := make([]struct {
		Name   string
		Status ReconcileStatus
	}, len(names))
	for i := range names {
		// Call outside db.rsMu: providers take the reconciler's own lock.
		out[i].Name, out[i].Status = names[i], fns[i]()
	}
	return out
}

// installSystemTables registers every v_monitor table. Runs in newDB
// after the metrics registry and Data Collector are installed.
func (db *DB) installSystemTables() error {
	reg := systable.NewRegistry()
	db.sysTables = reg
	defs := []*systable.Def{
		systable.MetricsDef(func() obs.Snapshot { return db.reg.Snapshot() }),
		db.queryProfilesDef(),
		db.depotStorageDef(),
		db.depotFetchesDef(),
		db.storageContainersDef(),
		db.shardSubscriptionsDef(),
		db.reconcileStatusDef(),
		db.sessionsDef(),
		db.planCacheDef(),
		db.resultCacheDef(),
		db.admissionQueueDef(),
	}
	for _, d := range defs {
		if err := reg.Register(d); err != nil {
			return err
		}
	}
	if db.dc != nil {
		if err := systable.RegisterDC(reg, db.dc); err != nil {
			return err
		}
	}
	return nil
}

// queryProfilesDef flattens the span trees of recent sessions' last
// profiles and the slow-query log. A monitoring query sees its session's
// previous profile: the in-flight trace is not finished until the query
// ends.
func (db *DB) queryProfilesDef() *systable.Def {
	cols := systable.ProfileSchema()
	return &systable.Def{
		Name:    systable.SchemaName + ".query_profiles",
		Columns: cols,
		Fill: func() (*types.Batch, error) {
			b := types.NewBatch(cols, 0)
			for _, s := range db.sessions.items() {
				if p := s.LastProfile(); p != nil {
					systable.ProfileRows(b, fmt.Sprintf("session:%d", s.id), s.queries.Load(), p)
				}
			}
			for i, sq := range db.SlowQueries() {
				systable.ProfileRows(b, "slow", int64(i), sq.Profile)
			}
			return b, nil
		},
	}
}

// depotStorageDef lists every node cache's current contents (§5.2), most
// recently used first per node.
func (db *DB) depotStorageDef() *systable.Def {
	cols := types.Schema{
		{Name: "node", Type: types.Varchar},
		{Name: "path", Type: types.Varchar},
		{Name: "bytes", Type: types.Int64},
		{Name: "pinned", Type: types.Bool},
		{Name: "lru_rank", Type: types.Int64},
	}
	return &systable.Def{
		Name:    systable.SchemaName + ".depot_storage",
		Columns: cols,
		Fill: func() (*types.Batch, error) {
			b := types.NewBatch(cols, 0)
			for _, n := range db.Nodes() {
				if n.cache == nil {
					continue
				}
				for rank, e := range n.cache.Entries() {
					b.AppendRow(types.Row{
						types.NewString(n.name), types.NewString(e.Path),
						types.NewInt(e.Size), types.NewBool(e.Pinned),
						types.NewInt(int64(rank)),
					})
				}
			}
			return b, nil
		},
	}
}

// depotFetchesDef summarizes each node cache's cumulative traffic:
// hits, misses, coalesced fetches, evictions and occupancy. Per-event
// history lives in v_monitor.dc_depot_fetches.
func (db *DB) depotFetchesDef() *systable.Def {
	cols := types.Schema{
		{Name: "node", Type: types.Varchar},
		{Name: "hits", Type: types.Int64},
		{Name: "misses", Type: types.Int64},
		{Name: "coalesced_fetches", Type: types.Int64},
		{Name: "evictions", Type: types.Int64},
		{Name: "bytes_cached", Type: types.Int64},
		{Name: "files", Type: types.Int64},
		{Name: "capacity_bytes", Type: types.Int64},
	}
	return &systable.Def{
		Name:    systable.SchemaName + ".depot_fetches",
		Columns: cols,
		Fill: func() (*types.Batch, error) {
			b := types.NewBatch(cols, 0)
			for _, n := range db.Nodes() {
				if n.cache == nil {
					continue
				}
				st := n.cache.Stats()
				b.AppendRow(types.Row{
					types.NewString(n.name),
					types.NewInt(st.Hits), types.NewInt(st.Misses),
					types.NewInt(st.CoalescedFetches), types.NewInt(st.Evictions),
					types.NewInt(st.BytesCached), types.NewInt(int64(st.Files)),
					types.NewInt(n.cache.Capacity()),
				})
			}
			return b, nil
		},
	}
}

// storageContainersDef lists the committed storage containers from a
// current catalog cut.
func (db *DB) storageContainersDef() *systable.Def {
	cols := types.Schema{
		{Name: "oid", Type: types.Int64},
		{Name: "table_name", Type: types.Varchar},
		{Name: "projection", Type: types.Varchar},
		{Name: "shard_index", Type: types.Int64},
		{Name: "row_count", Type: types.Int64},
		{Name: "size_bytes", Type: types.Int64},
		{Name: "partition_key", Type: types.Varchar},
		{Name: "owner_node", Type: types.Varchar},
		{Name: "create_version", Type: types.Int64},
	}
	return &systable.Def{
		Name:    systable.SchemaName + ".storage_containers",
		Columns: cols,
		Fill: func() (*types.Batch, error) {
			init, err := db.anyUpNode()
			if err != nil {
				return nil, err
			}
			snap := init.catalog.Snapshot()
			tblName := map[catalog.OID]string{}
			projName := map[catalog.OID]string{}
			for _, t := range snap.Tables() {
				tblName[t.OID] = t.Name
				for _, p := range snap.ProjectionsOf(t.OID) {
					projName[p.OID] = p.Name
				}
			}
			var scs []*catalog.StorageContainer
			snap.ForEach(catalog.KindStorageContainer, func(o catalog.Object) bool {
				scs = append(scs, o.(*catalog.StorageContainer))
				return true
			})
			sort.Slice(scs, func(i, j int) bool { return scs[i].OID < scs[j].OID })
			b := types.NewBatch(cols, len(scs))
			for _, sc := range scs {
				b.AppendRow(types.Row{
					types.NewInt(int64(sc.OID)),
					types.NewString(tblName[sc.TableOID]),
					types.NewString(projName[sc.ProjOID]),
					types.NewInt(int64(sc.ShardIndex)),
					types.NewInt(sc.RowCount), types.NewInt(sc.SizeBytes),
					types.NewString(sc.PartitionKey), types.NewString(sc.OwnerNode),
					types.NewInt(int64(sc.CreateVersion)),
				})
			}
			return b, nil
		},
	}
}

// shardSubscriptionsDef lists every shard subscription with its
// lifecycle state (§3.3).
func (db *DB) shardSubscriptionsDef() *systable.Def {
	cols := types.Schema{
		{Name: "node", Type: types.Varchar},
		{Name: "shard_index", Type: types.Int64},
		{Name: "state", Type: types.Varchar},
		{Name: "node_up", Type: types.Bool},
	}
	return &systable.Def{
		Name:    systable.SchemaName + ".shard_subscriptions",
		Columns: cols,
		Fill: func() (*types.Batch, error) {
			init, err := db.anyUpNode()
			if err != nil {
				return nil, err
			}
			snap := init.catalog.Snapshot()
			up := db.UpNodes()
			var subs []*catalog.Subscription
			snap.ForEach(catalog.KindSubscription, func(o catalog.Object) bool {
				subs = append(subs, o.(*catalog.Subscription))
				return true
			})
			sort.Slice(subs, func(i, j int) bool {
				if subs[i].Node != subs[j].Node {
					return subs[i].Node < subs[j].Node
				}
				return subs[i].ShardIndex < subs[j].ShardIndex
			})
			b := types.NewBatch(cols, len(subs))
			for _, s := range subs {
				b.AppendRow(types.Row{
					types.NewString(s.Node), types.NewInt(int64(s.ShardIndex)),
					types.NewString(s.State.String()), types.NewBool(up[s.Node]),
				})
			}
			return b, nil
		},
	}
}

// reconcileStatusDef surfaces every registered reconciler's last tick.
func (db *DB) reconcileStatusDef() *systable.Def {
	cols := types.Schema{
		{Name: "name", Type: types.Varchar},
		{Name: "code", Type: types.Varchar},
		{Name: "round", Type: types.Int64},
		{Name: "pending", Type: types.Int64},
		{Name: "queue_depth", Type: types.Int64},
		{Name: "p95_ns", Type: types.Int64},
		{Name: "reasons", Type: types.Varchar},
	}
	return &systable.Def{
		Name:    systable.SchemaName + ".reconcile_status",
		Columns: cols,
		Fill: func() (*types.Batch, error) {
			sts := db.reconcileStatuses()
			b := types.NewBatch(cols, len(sts))
			for _, st := range sts {
				reasons := ""
				for i, r := range st.Status.Reasons {
					if i > 0 {
						reasons += "; "
					}
					reasons += r
				}
				b.AppendRow(types.Row{
					types.NewString(st.Name), types.NewString(st.Status.Code),
					types.NewInt(st.Status.Round), types.NewInt(st.Status.Pending),
					types.NewInt(st.Status.QueueDepth), types.NewInt(int64(st.Status.P95)),
					types.NewString(reasons),
				})
			}
			return b, nil
		},
	}
}

// sessionsDef lists the recent sessions ring.
func (db *DB) sessionsDef() *systable.Def {
	cols := types.Schema{
		{Name: "session_id", Type: types.Int64},
		{Name: "subcluster", Type: types.Varchar},
		{Name: "start", Type: types.Timestamp},
		{Name: "queries", Type: types.Int64},
		{Name: "memory_budget", Type: types.Int64},
	}
	return &systable.Def{
		Name:    systable.SchemaName + ".sessions",
		Columns: cols,
		Fill: func() (*types.Batch, error) {
			sess := db.sessions.items()
			b := types.NewBatch(cols, len(sess))
			for _, s := range sess {
				b.AppendRow(types.Row{
					types.NewInt(s.id), types.NewString(s.Subcluster),
					types.NewTimestamp(s.start.UnixMicro()),
					types.NewInt(s.queries.Load()),
					types.NewInt(s.MemoryBudget),
				})
			}
			return b, nil
		},
	}
}

// admissionQueueDef surfaces per-subcluster admission state: running and
// queued query counts and the aggregate admitted memory budget.
func (db *DB) admissionQueueDef() *systable.Def {
	cols := types.Schema{
		{Name: "subcluster", Type: types.Varchar},
		{Name: "running", Type: types.Int64},
		{Name: "queued", Type: types.Int64},
		{Name: "mem_bytes", Type: types.Int64},
		{Name: "concurrency_limit", Type: types.Int64},
		{Name: "mem_limit_bytes", Type: types.Int64},
	}
	return &systable.Def{
		Name:    systable.SchemaName + ".admission_queue",
		Columns: cols,
		Fill: func() (*types.Batch, error) {
			rows := db.admission.snapshotRows()
			b := types.NewBatch(cols, len(rows))
			for _, r := range rows {
				b.AppendRow(types.Row{
					types.NewString(r.Subcluster),
					types.NewInt(r.Running), types.NewInt(r.Queued),
					types.NewInt(r.MemBytes),
					types.NewInt(int64(db.cfg.SubclusterConcurrency)),
					types.NewInt(db.cfg.AdmissionMemoryLimit),
				})
			}
			return b, nil
		},
	}
}

// materializeVirtual fills a virtual table on the initiator and applies
// the scan's column projection and pushed-down predicate. Never returns
// nil: an empty cut yields an empty batch over the scan schema.
func (db *DB) materializeVirtual(scan *planner.Scan, eng exec.Engine) (*types.Batch, error) {
	full, err := db.sysTables.Fill(scan.Table.Name)
	if err != nil {
		return nil, err
	}
	b, err := selectScanRows(eng, scan, scan.Table.Columns.Names(), full, "virtual table "+scan.Table.Name)
	if b == nil && err == nil {
		b = types.NewBatch(scan.OutSchema, 0)
	}
	return b, err
}

// truncateSQL bounds SQL text recorded in Data Collector events.
func truncateSQL(s string) string {
	if len(s) > dcSQLLimit {
		return s[:dcSQLLimit]
	}
	return s
}
