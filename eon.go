// Package eon is a from-scratch reproduction of "Eon Mode: Bringing the
// Vertica Columnar Database to the Cloud" (Vandiver et al., SIGMOD 2018):
// a distributed columnar SQL analytics engine that runs in either the
// classic shared-nothing Enterprise mode or in Eon mode, where data and
// metadata live on a shared object store and compute nodes subscribe to
// segment shards of a hash space.
//
// The library simulates a multi-node cluster in process: nodes have
// their own catalogs, caches and local disks; shared storage, network
// latency and node failures are modeled. The same SQL front end,
// optimizer and vectorized execution engine serve both modes.
//
// Quick start:
//
//	db, _ := eon.Create(eon.Config{
//	    Mode:       eon.ModeEon,
//	    Nodes:      []eon.NodeSpec{{Name: "n1"}, {Name: "n2"}, {Name: "n3"}},
//	    ShardCount: 3,
//	})
//	s := db.NewSession()
//	s.Execute(`CREATE TABLE sales (id INTEGER, region VARCHAR, price FLOAT)`)
//	s.Execute(`INSERT INTO sales VALUES (1, 'east', 9.99)`)
//	res, _ := s.Query(`SELECT region, COUNT(*) FROM sales GROUP BY region`)
package eon

import (
	"eon/internal/core"
	"eon/internal/netsim"
	"eon/internal/objstore"
	"eon/internal/obs"
	"eon/internal/reconcile"
	"eon/internal/resilience"
	"eon/internal/systable"
	"eon/internal/types"
)

// ResilienceStats is a snapshot of the resilient shared-storage layer's
// counters.
type ResilienceStats = resilience.Stats

// ResilienceConfig tunes the shared-storage retry/hedge/breaker layer
// (set Config.Resilience).
type ResilienceConfig = resilience.Config

// RetryPolicy tunes the shared-storage retry loop (attempts, capped
// full-jitter backoff, per-attempt deadline budget).
type RetryPolicy = resilience.Policy

// BreakerConfig tunes a circuit breaker (window, trip ratio, cooldown,
// probabilistic half-open probes).
type BreakerConfig = resilience.BreakerConfig

// FaultSchedule is a deterministic, seedable schedule of injected
// shared-storage faults for chaos testing (set SimConfig.Faults).
type FaultSchedule = objstore.FaultSchedule

// Fault-schedule building blocks.
type (
	// OpRange is a half-open interval [From, To) of store op indices.
	OpRange = objstore.OpRange
	// FaultWindow fails requests at a rate within an op range.
	FaultWindow = objstore.FaultWindow
	// LatencySpike adds service time to requests in an op range.
	LatencySpike = objstore.LatencySpike
)

// Mode selects the architecture: ModeEnterprise (shared-nothing, buddy
// projections on node-local storage) or ModeEon (shared storage, shards,
// caches). Neither has a WOS: every load writes ROS (§5.1).
type Mode = core.Mode

// The two modes.
const (
	ModeEnterprise = core.ModeEnterprise
	ModeEon        = core.ModeEon
)

// Config configures a database cluster. Zero values get sensible
// defaults; only Nodes is required.
type Config = core.Config

// NodeSpec describes one cluster member.
type NodeSpec = core.NodeSpec

// Session is a client connection; safe to create per goroutine.
type Session = core.Session

// Result is a query result set.
type Result = core.Result

// PreparedStatement is a SELECT parsed and validated once and executable
// many times with bind-parameter values ("?" or $N placeholders); see
// Session.Prepare.
type PreparedStatement = core.PreparedStatement

// ErrQueuedTooLong marks a query that spent its whole Session.Timeout
// parked in an admission or execution-slot queue without ever starting
// to execute — "the cluster was saturated", distinct from a
// mid-execution timeout.
var ErrQueuedTooLong = core.ErrQueuedTooLong

// CrunchMode selects the §4.4 crunch-scaling mechanism.
type CrunchMode = core.CrunchMode

// Crunch scaling modes.
const (
	CrunchOff            = core.CrunchOff
	CrunchHashFilter     = core.CrunchHashFilter
	CrunchContainerSplit = core.CrunchContainerSplit
)

// MergeoutStats reports one tuple-mover pass.
type MergeoutStats = core.MergeoutStats

// ScanStats is scan-path instrumentation: pruning effectiveness, bytes
// fetched, cache behaviour and the I/O/decode/filter time split. Per
// query via Session.LastScanStats (the most recent query, failed or
// not), cumulative via DB.ScanStats (every query that executed, failed
// ones included).
type ScanStats = core.ScanStats

// ExecStats summarizes the execution engine's resource behaviour for a
// session's most recent query, failed or not: the peak bytes pipeline
// breakers held on the busiest node, and spill activity under
// Config.QueryMemoryBudget. Per query via Session.LastExecStats.
type ExecStats = core.ExecStats

// MetricsSnapshot is a point-in-time view of every registered metric:
// monotonic counters, gauges and latency histograms across the object
// store, caches, resilience layer, network, scans and the tuple mover.
// Render with its JSON() or Text() methods.
type MetricsSnapshot = obs.Snapshot

// QueryProfile is the hierarchical execution profile of one query —
// operator spans (scan/join/aggregate/...) down through per-node scan
// fragments to fetch/decode/filter leaves, with wall times, row counts,
// bytes and counter attributes. Retrieve via Session.LastProfile after
// enabling Session.Trace (or a slow-query threshold).
type QueryProfile = obs.Profile

// SlowQuery is one slow-query log entry: the statement, when it started,
// its wall time, the error (if it failed), its executor stats and its
// full execution profile.
type SlowQuery = core.SlowQuery

// DataCollector is the event-log half of the observability layer: named,
// retention-bounded ring buffers that hot paths emit typed events into
// (depot fetches and evictions, mergeouts, spills, admission waits, slow
// queries, reconcile actions). Every ring is queryable in SQL as
// v_monitor.dc_<ring>.
type DataCollector = obs.DataCollector

// DCRing is one named Data Collector event ring.
type DCRing = obs.DCRing

// DCEvent is one Data Collector event: timestamp, emitting node, up to
// two strings and four integers, named per ring by its DCRingDef.
type DCEvent = obs.DCEvent

// DCRingDef names a ring and the event fields it uses.
type DCRingDef = obs.DCRingDef

// DCRingStats summarizes one ring: retained/emitted/dropped events and
// retained bytes.
type DCRingStats = obs.DCRingStats

// DCPolicy bounds each Data Collector ring by rows and bytes (set
// Config.DataCollectorPolicy; zero fields default to 1024 rows, 1 MiB).
type DCPolicy = obs.DCPolicy

// SystemTables is the registry of v_monitor virtual tables. Every
// registered table is queryable with ordinary SQL through any session.
type SystemTables = systable.Registry

// ReconcileStatusRow is one reconciler's state as surfaced through
// v_monitor.reconcile_status.
type ReconcileStatusRow = core.ReconcileStatus

// DB is a database cluster.
type DB struct {
	inner *core.DB
}

// Create initializes a new cluster.
func Create(cfg Config) (*DB, error) {
	inner, err := core.Create(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner}, nil
}

// Revive starts an Eon cluster from the contents of shared storage after
// a shutdown or catastrophic instance loss (paper §3.5). cfg.Shared must
// point at the storage; the node set defaults to the previous cluster's.
func Revive(cfg Config) (*DB, error) {
	inner, err := core.Revive(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner}, nil
}

// Internal exposes the underlying engine for benchmarks and tests that
// need sub-system access (caches, catalogs, the simulated network).
func (db *DB) Internal() *core.DB { return db.inner }

// Mode returns the cluster's architecture.
func (db *DB) Mode() Mode { return db.inner.Mode() }

// ScanStats returns the cumulative scan instrumentation across every
// query the database has executed.
func (db *DB) ScanStats() ScanStats { return db.inner.ScanStats() }

// Metrics snapshots every metric the cluster has registered (counters,
// gauges, histograms) for export as JSON or text.
func (db *DB) Metrics() MetricsSnapshot { return db.inner.Metrics() }

// SlowQueries returns the slow-query log, oldest first. Entries are
// recorded when Config.SlowQueryThreshold > 0 and a query's wall time
// reaches it; each carries a complete execution profile.
func (db *DB) SlowQueries() []SlowQuery { return db.inner.SlowQueries() }

// DataCollector returns the cluster's Data Collector, or nil when
// Config.DisableDataCollector is set. Its rings back the
// v_monitor.dc_* system tables.
func (db *DB) DataCollector() *DataCollector { return db.inner.DataCollector() }

// SystemTables returns the v_monitor virtual-table registry: every name
// it lists is queryable with ordinary SQL (e.g.
// `SELECT m.name, m.value FROM v_monitor.metrics m WHERE m.kind = 'counter'`).
func (db *DB) SystemTables() *SystemTables { return db.inner.SystemTables() }

// NewSession opens a session.
func (db *DB) NewSession() *Session { return db.inner.NewSession() }

// NewSessionOn opens a session pinned to a subcluster: queries run only
// on its nodes while they can cover all shards (paper §4.3).
func (db *DB) NewSessionOn(subcluster string) *Session {
	return db.inner.NewSessionOn(subcluster)
}

// Execute runs one SQL statement on a fresh session.
func (db *DB) Execute(sql string) (*Result, error) {
	return db.NewSession().Execute(sql)
}

// LoadRows bulk-loads a batch of rows (columns in table order) — the
// COPY path of paper §4.5 / Figure 8.
func (db *DB) LoadRows(table string, batch *Batch) error {
	return db.inner.LoadRows(table, batch)
}

// KillNode simulates a node process failure.
func (db *DB) KillNode(name string) error { return db.inner.KillNode(name) }

// RecoverNode restarts a failed node: catalog catch-up, re-subscription
// and peer cache warming (paper §6.1).
func (db *DB) RecoverNode(name string) error { return db.inner.RecoverNode(name) }

// AddNode grows the cluster elastically; only the new node's cache needs
// filling — no data redistribution (paper §6.4).
func (db *DB) AddNode(spec NodeSpec) error { return db.inner.AddNode(spec) }

// RemoveNode drains and removes a node.
func (db *DB) RemoveNode(name string) error { return db.inner.RemoveNode(name) }

// Rebalance re-plans shard subscriptions for fault tolerance and
// subcluster coverage.
func (db *DB) Rebalance() error { return db.inner.Rebalance() }

// WipeNode simulates catastrophic instance loss: the node process dies
// and its depot is gone with it (the spot-instance case of paper §6.1).
func (db *DB) WipeNode(name string) error { return db.inner.WipeNode(name) }

// AddSpare provisions a warm standby: the node subscribes PASSIVE to
// every shard and pre-warms its depot from peers, so a later promotion
// is a subscription flip rather than a cold revive (paper §3.3, §6.1).
func (db *DB) AddSpare(spec NodeSpec) error { return db.inner.AddSpare(spec) }

// PromoteSpare flips a warm spare's PASSIVE subscriptions ACTIVE and
// seats it in the given subcluster, replacing lost capacity without
// moving data.
func (db *DB) PromoteSpare(name, subcluster string) error {
	return db.inner.PromoteSpare(name, subcluster)
}

// WarmSpare re-warms a spare's depot from its peers' MRU lists,
// returning the number of files warmed.
func (db *DB) WarmSpare(name string) (int, error) { return db.inner.WarmSpare(name) }

// RunTupleMover performs one mergeout pass (paper §6.2). There is no
// moveout: loads write ROS directly, so there is no WOS to drain.
func (db *DB) RunTupleMover() (MergeoutStats, error) {
	return db.inner.RunMergeout()
}

// SyncMetadata uploads catalog logs to shared storage and advances the
// truncation version (paper §3.5). The paper runs this on a timer; call
// it explicitly here.
func (db *DB) SyncMetadata() error { return db.inner.SyncMetadata() }

// RunGC deletes unreferenced storage files that are safe to drop (paper
// §6.5).
func (db *DB) RunGC() (int, error) { return db.inner.RunGC() }

// ScrubLeakedFiles removes orphan files left by crashes (paper §6.5).
func (db *DB) ScrubLeakedFiles() ([]string, error) { return db.inner.ScrubLeakedFiles() }

// CopyTable snapshots src as a new table dst whose containers reference
// the same immutable storage files — no data moves (paper §5.1).
func (db *DB) CopyTable(src, dst string) error { return db.inner.CopyTable(src, dst) }

// DropPartition removes a table partition as a metadata-only operation;
// files free once unreferenced.
func (db *DB) DropPartition(table, partitionKey string) (int, error) {
	return db.inner.DropPartition(table, partitionKey)
}

// MovePartition retags a partition's containers from src to a
// structurally identical dst table (paper §4.5 partition management).
func (db *DB) MovePartition(src, dst, partitionKey string) (int, error) {
	return db.inner.MovePartition(src, dst, partitionKey)
}

// RefreshColumns recomputes a flattened table's denormalized columns
// after its dimension tables change (paper §2.1), as an UPDATE that sets
// each flattened column to itself, and returns the rows refreshed.
func (db *DB) RefreshColumns(table string) (int, error) {
	return db.inner.RefreshColumns(table)
}

// SetNeverCacheTable installs the "never cache table T" shaping policy
// (paper §5.2).
func (db *DB) SetNeverCacheTable(table string, never bool) {
	db.inner.SetNeverCacheTable(table, never)
}

// Shutdown stops the cluster cleanly, uploading remaining metadata and
// releasing the shared-storage lease so Revive can start immediately.
func (db *DB) Shutdown() error { return db.inner.Shutdown() }

// IsShutdown reports whether the cluster is down (explicitly or from an
// invariant violation, paper §3.4).
func (db *DB) IsShutdown() bool { return db.inner.IsShutdown() }

// TruncationVersion returns the catalog version up to which shared
// storage holds a complete, revivable record.
func (db *DB) TruncationVersion() uint64 { return db.inner.TruncationVersion() }

// ResilienceStats snapshots the shared-storage resilience counters:
// attempts, retries, hedged reads fired/won, circuit-breaker opens,
// shed requests and degradation fallbacks (paper §5.3).
func (db *DB) ResilienceStats() ResilienceStats { return db.inner.ResilienceStats() }

// --- elastic reconciliation ---

// ClusterSpec declares the cluster shape the reconciler maintains:
// subclusters and their sizes, the warm-spare pool size, the
// replication factor, and optional autoscale policies.
type ClusterSpec = reconcile.ClusterSpec

// SubclusterSpec declares one subcluster's desired size.
type SubclusterSpec = reconcile.SubclusterSpec

// AutoscalePolicy lets the reconciler resize a subcluster between Min
// and Max from observed query pressure (queue depth, p95 latency).
type AutoscalePolicy = reconcile.AutoscalePolicy

// ReconcilerConfig tunes the reconcile loop (spec, action budget per
// round, retry policy, failure backoff, tick interval).
type ReconcilerConfig = reconcile.Config

// Reconciler is the level-triggered control loop that diffs the
// declared ClusterSpec against live cluster state each round and
// executes a bounded, prioritized repair plan: promote a warm spare
// over a lost member, revive, add, remove, rebalance.
type Reconciler = reconcile.Reconciler

// ReconcileStatus is one round's outcome: Converged, Progressing (with
// pending actions), or Blocked (with reasons).
type ReconcileStatus = reconcile.Status

// Reconcile status codes.
const (
	ReconcileConverged   = reconcile.Converged
	ReconcileProgressing = reconcile.Progressing
	ReconcileBlocked     = reconcile.Blocked
)

// NewReconciler builds a reconciler for this cluster. Drive it manually
// with Tick or continuously with Run.
func (db *DB) NewReconciler(cfg ReconcilerConfig) *Reconciler {
	return reconcile.New(db.inner, cfg)
}

// NewMemStore returns an in-memory shared object store, optionally
// wrapped in the latency/failure simulator via NewSimStore.
func NewMemStore() objstore.Store { return objstore.NewMem() }

// SimConfig tunes the shared-storage simulator (latency, bandwidth,
// throttling, transient failures).
type SimConfig = objstore.SimConfig

// NewSimStore wraps a backing store with the S3-behaviour simulator.
func NewSimStore(backend objstore.Store, cfg SimConfig) *objstore.Sim {
	return objstore.NewSim(backend, cfg)
}

// LinkCost describes network link latency and bandwidth for the cluster
// interconnect simulation.
type LinkCost = netsim.LinkCost

// NewNetwork builds a simulated interconnect with a default link cost.
func NewNetwork(def LinkCost) *netsim.Network { return netsim.New(def) }

// --- value construction for LoadRows ---

// Type is a SQL scalar type.
type Type = types.Type

// Scalar types.
const (
	Int64     = types.Int64
	Float64   = types.Float64
	Varchar   = types.Varchar
	Bool      = types.Bool
	Date      = types.Date
	Timestamp = types.Timestamp
)

// Schema describes a relation's columns.
type Schema = types.Schema

// Column is one schema entry.
type Column = types.Column

// Batch is a columnar slice of rows.
type Batch = types.Batch

// Row is one tuple.
type Row = types.Row

// Datum is one nullable scalar value.
type Datum = types.Datum

// NewBatch allocates an empty batch for a schema.
func NewBatch(s Schema, capHint int) *Batch { return types.NewBatch(s, capHint) }

// Value constructors.
var (
	Int     = types.NewInt
	Flt     = types.NewFloat
	Str     = types.NewString
	Boolean = types.NewBool
	Day     = types.NewDate
	Null    = types.NullDatum
)
