// Package core integrates the substrates into the database engine: a
// multi-node cluster (simulated in-process) that runs in either
// Enterprise mode (shared-nothing, buddy projections, node-local
// storage) or Eon mode (shared storage, segment shards, subscriptions,
// per-node file cache) — the paper's central contrast. The optimizer and
// execution engine are shared between modes; storage layout, fault
// tolerance and recovery differ (paper §1, §3-§6).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eon/internal/cache"
	"eon/internal/catalog"
	"eon/internal/cluster"
	"eon/internal/exec"
	"eon/internal/hashring"
	"eon/internal/netsim"
	"eon/internal/objstore"
	"eon/internal/obs"
	"eon/internal/resilience"
	"eon/internal/systable"
	"eon/internal/tuplemover"
	"eon/internal/udfs"
)

// Mode selects the architecture.
type Mode uint8

// The two architectures.
const (
	// ModeEnterprise is the original shared-nothing design: node-local
	// storage and buddy projections for fault tolerance. Like Eon it has
	// no WOS: every load writes ROS containers and commits them.
	ModeEnterprise Mode = iota
	// ModeEon places data and metadata on shared storage with segment
	// shards, subscriptions and per-node caches.
	ModeEon
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeEon {
		return "eon"
	}
	return "enterprise"
}

// NodeSpec describes one cluster member at creation.
type NodeSpec struct {
	Name       string
	Subcluster string
	Rack       string
}

// Config configures a database.
type Config struct {
	Mode Mode
	Name string
	// Nodes are the initial cluster members.
	Nodes []NodeSpec
	// ShardCount fixes the number of segment shards at database creation
	// (Eon; §3.1). Enterprise uses one segment per initial node.
	ShardCount int
	// ReplicationFactor is the minimum subscribers per shard in Eon
	// (default 2, tolerating one node loss — the analog of K-safety 1).
	ReplicationFactor int
	// ExecSlots is the per-node concurrent query slot count E (§4.2).
	ExecSlots int
	// ScanConcurrency is the number of decode/filter workers (CPU-bound)
	// of one scan fragment: containers scanned in parallel. <= 0 derives
	// the default from runtime.GOMAXPROCS. Shared-storage reads and
	// uploads wait rather than compute and fan out ioWidth wide instead —
	// except that 1 reproduces the fully serial pipeline, I/O included.
	ScanConcurrency int
	// CacheBytes is the per-node cache capacity (Eon).
	CacheBytes int64
	// Shared is the shared storage (Eon). Defaults to an in-memory
	// store.
	Shared objstore.Store
	// Net models the interconnect. Defaults to a zero-cost network.
	Net *netsim.Network
	// BundleThreshold controls small-container bundling (§2.3); 0 uses
	// the storage default, <0 disables.
	BundleThreshold int64
	// BroadcastRowLimit is the planner's small-table broadcast cutoff.
	BroadcastRowLimit int64
	// Mergeout tunes the tuple mover.
	Mergeout tuplemover.Policy
	// CheckpointThreshold is the catalog checkpoint trigger in log
	// bytes.
	CheckpointThreshold int64
	// LeaseDuration is the revive lease written to cluster_info.json.
	LeaseDuration time.Duration
	// QueryCost simulates the per-node execution time of one query: it
	// is slept while the query's execution slots are held, so throughput
	// scales with total cluster slots (§4.2) rather than with the host
	// machine running the simulation. 0 disables.
	QueryCost time.Duration
	// LoadCost is the analogous simulated ingest time per COPY.
	LoadCost time.Duration
	// Seed makes participating-subscription selection deterministic.
	Seed int64
	// Now overrides the wall clock (lease tests).
	Now func() time.Time
	// Resilience tunes the shared-storage retry/hedge/breaker layer
	// (§5.3). nil uses resilience.DefaultConfig.
	Resilience *resilience.Config
	// SlowQueryThreshold enables the slow-query log: queries whose wall
	// time reaches the threshold (including failed queries) are recorded
	// with their full execution profile. A non-zero threshold forces
	// per-query tracing on for every session. 0 disables.
	SlowQueryThreshold time.Duration
	// QueryMemoryBudget bounds, per query and per node, the bytes the
	// pipeline-breaker operators (hash aggregate, hash join build, sort)
	// may hold; when the budget is finite those operators spill sorted
	// runs to the node's local disk instead of exceeding it. 0 (the
	// default) never spills: sorts and join builds still report usage,
	// while the in-memory aggregate skips the accounting entirely.
	// Sessions inherit the value into Session.MemoryBudget and may
	// override it per connection.
	QueryMemoryBudget int64
	// PlanCacheSize bounds the plan cache (entries of normalized SQL ->
	// bound physical plan). 0 uses the default (256); negative disables
	// plan caching entirely. Warm hits skip lexing, parsing and planning.
	PlanCacheSize int
	// ResultCacheBytes bounds the result-set cache for parameterized hot
	// queries. 0 (the default) disables it. Entries are invalidated by
	// the shard-level catalog object versions the plan reads — never by
	// wall time — so a cached result is served only while every table,
	// projection, storage container and delete vector it touched is
	// unchanged.
	ResultCacheBytes int64
	// SubclusterConcurrency caps concurrently admitted queries per
	// subcluster; excess queries park in a per-subcluster FIFO admission
	// queue bounded by the session timeout. 0 disables the cap.
	SubclusterConcurrency int
	// AdmissionMemoryLimit caps the aggregate Session.MemoryBudget of
	// concurrently admitted queries, cluster-wide; a query that would
	// push the aggregate past the limit queues until running queries
	// finish (a query whose own budget exceeds the limit is admitted
	// alone). 0 disables the throttle.
	AdmissionMemoryLimit int64
	// DataCollectorPolicy bounds each Data Collector event ring (rows
	// and bytes); zero fields take the obs defaults (1024 rows, 1 MiB).
	DataCollectorPolicy obs.DCPolicy
	// DisableDataCollector turns the Data Collector off entirely: hot
	// paths pay only a nil-ring check and the v_monitor.dc_* tables are
	// absent. The overhead benchmark's baseline.
	DisableDataCollector bool
}

// resilienceConfig resolves the shared-storage resilience configuration,
// installing the objstore error classifier and the cluster seed.
func (c *Config) resilienceConfig() resilience.Config {
	var rc resilience.Config
	if c.Resilience != nil {
		rc = *c.Resilience
	} else {
		rc = resilience.DefaultConfig(objstore.IsRetryable)
	}
	if rc.Policy.Retryable == nil {
		rc.Policy.Retryable = objstore.IsRetryable
	}
	if rc.Seed == 0 {
		rc.Seed = c.Seed + 1
	}
	return rc
}

func (c *Config) fillDefaults() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("core: at least one node required")
	}
	if c.Name == "" {
		c.Name = "db"
	}
	if c.ShardCount <= 0 {
		c.ShardCount = len(c.Nodes)
	}
	if c.Mode == ModeEnterprise {
		// Enterprise segmentation is tied to the node ring.
		c.ShardCount = len(c.Nodes)
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 2
	}
	if c.ReplicationFactor > len(c.Nodes) {
		c.ReplicationFactor = len(c.Nodes)
	}
	if c.ExecSlots <= 0 {
		c.ExecSlots = 4
	}
	if c.ScanConcurrency <= 0 {
		c.ScanConcurrency = runtime.GOMAXPROCS(0)
		if c.ScanConcurrency < 2 {
			c.ScanConcurrency = 2
		}
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.Shared == nil {
		c.Shared = objstore.NewMem()
	}
	if c.Net == nil {
		c.Net = netsim.New(netsim.LinkCost{})
	}
	if c.Mergeout.FanIn == 0 {
		c.Mergeout = tuplemover.DefaultPolicy()
	}
	if c.CheckpointThreshold <= 0 {
		c.CheckpointThreshold = 256 << 10
	}
	if c.LeaseDuration <= 0 {
		c.LeaseDuration = 2 * time.Minute
	}
	return nil
}

// Node is one cluster member.
type Node struct {
	name string
	// scMu guards subcluster and spare, which change when a warm spare is
	// promoted into a subcluster (spare.go).
	scMu       sync.RWMutex
	subcluster string
	spare      bool
	inst       atomic.Value // cluster.InstanceID: a recovery draws a new one
	catalog    *catalog.Catalog
	fs         *udfs.MemFS  // the node's local disk
	cache      *cache.Cache // Eon file cache
	up         atomic.Bool

	// sync interval of uploaded catalog metadata (Eon, §3.5).
	syncMu   sync.Mutex
	syncIv   cluster.SyncInterval
	syncSeen map[string]bool // catalog files already uploaded

	// running-query version tracking for file GC gossip (§6.5).
	queryMu      sync.Mutex
	runningQ     map[uint64]int // snapshot version -> active query count
	minQReported uint64         // monotonically increasing gossip value

	scanFree chan *scanWorker // idle scan workers (scan.go), at most ScanConcurrency
	// free is the node's one free list: the vectors its scans lend and
	// the storage of its hash operators (exec.FreeList). lent counts the
	// vectors lent to a consumer and not yet given back.
	free *exec.FreeList
	lent atomic.Int64
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Subcluster returns the node's current subcluster ("" for the default
// subcluster and for unpromoted spares).
func (n *Node) Subcluster() string {
	n.scMu.RLock()
	defer n.scMu.RUnlock()
	return n.subcluster
}

// Spare reports whether the node is an unpromoted warm spare.
func (n *Node) Spare() bool {
	n.scMu.RLock()
	defer n.scMu.RUnlock()
	return n.spare
}

// setMembership updates the node's subcluster/spare pair (promotion).
func (n *Node) setMembership(subcluster string, spare bool) {
	n.scMu.Lock()
	n.subcluster = subcluster
	n.spare = spare
	n.scMu.Unlock()
}

// Up reports whether the node is running.
func (n *Node) Up() bool { return n.up.Load() }

// Cache returns the node's file cache (nil in Enterprise mode).
func (n *Node) Cache() *cache.Cache { return n.cache }

// Catalog returns the node's catalog.
func (n *Node) Catalog() *catalog.Catalog { return n.catalog }

// InstanceID returns the node's current process instance id.
func (n *Node) InstanceID() cluster.InstanceID { return n.inst.Load().(cluster.InstanceID) }

// beginQuery registers a running query at a snapshot version.
func (n *Node) beginQuery(version uint64) {
	n.queryMu.Lock()
	defer n.queryMu.Unlock()
	n.runningQ[version]++
}

// endQuery deregisters a running query.
func (n *Node) endQuery(version uint64) {
	n.queryMu.Lock()
	defer n.queryMu.Unlock()
	if n.runningQ[version] <= 1 {
		delete(n.runningQ, version)
	} else {
		n.runningQ[version]--
	}
}

// minQueryVersion gossips the minimum catalog version of running
// queries, monotonically increasing (§6.5). current is the node's
// catalog version, reported when no queries run.
func (n *Node) minQueryVersion(current uint64) uint64 {
	n.queryMu.Lock()
	defer n.queryMu.Unlock()
	min := current
	for v := range n.runningQ {
		if v < min {
			min = v
		}
	}
	if min < n.minQReported {
		min = n.minQReported
	}
	n.minQReported = min
	return min
}

// pendingDelete is a storage file awaiting safe deletion (§6.5).
type pendingDelete struct {
	path        string
	dropVersion uint64
}

// DB is one database: a set of nodes plus (in Eon mode) shared storage.
type DB struct {
	cfg  Config
	mode Mode

	// commitMu is the cluster-wide commit serialization (the global
	// catalog lock of §6.3 spans the distributed commit in this
	// simulation).
	commitMu sync.Mutex
	// oids is the one OID counter every node's catalog draws from.
	oids atomic.Uint64

	nodesMu sync.RWMutex
	nodes   map[string]*Node
	order   []string // creation order; the Enterprise logical ring

	// shared is the resilient view of shared storage: every access below
	// retries with jittered backoff, hedges GETs and trips the store
	// breaker on sustained pressure (§5.3).
	shared    objstore.Store
	resilient *resilience.Store[objstore.Info]
	// peerBreakers guard node-to-node interactions (commit-time cache
	// shipping, peer cache warming): a dead or struggling peer is skipped
	// and the read path degrades to shared storage.
	peerBreakers *resilience.Group
	// cacheBreakers guard each node's local cache admission; sustained
	// admission failures bypass the cache rather than failing the load
	// or scan.
	cacheBreakers *resilience.Group
	sharedFS      *udfs.ObjectFS
	net           *netsim.Network
	ring          *hashring.Ring

	// slots allocates per-node execution slots (§4.2).
	slots *slotManager
	// admission gates queries in front of slot acquisition: per-subcluster
	// FIFO queues with a budgeted-memory throttle (admission.go).
	admission *admissionController
	// planCache serves bound plans by normalized SQL text (plancache.go);
	// nil when disabled.
	planCache *planCache
	// resultCache serves whole result sets of hot parameterized queries,
	// invalidated by catalog mod-versions (resultcache.go); nil unless
	// Config.ResultCacheBytes is set.
	resultCache *resultCache

	incarnation cluster.IncarnationID

	// recordLog is the in-memory commit history used for node catch-up.
	logMu     sync.Mutex
	recordLog []*catalog.LogRecord

	// deferred file deletions (§6.5).
	gcMu     sync.Mutex
	deferred []pendingDelete

	truncation atomic.Uint64
	// infoMu orders commit-point writes; infoSeq and infoKey name the
	// newest commit point written or revived from (sync.go).
	infoMu   sync.Mutex
	infoSeq  uint64
	infoKey  string
	seedCtr  atomic.Int64
	shutdown atomic.Bool

	// cache shaping (§5.2): tables whose files bypass node caches, both
	// at load (write-through off) and at scan.
	policyMu   sync.RWMutex
	neverCache map[string]bool

	// reg is the database's metrics registry: every subsystem (objstore,
	// resilience, netsim, caches, scan path, tuple mover) registers into
	// it, and the legacy Stats accessors are derived views over it.
	reg *obs.Registry
	// scanM holds the cumulative scan counters (in reg).
	scanM scanMetrics
	// Query-level metrics (in reg).
	queryWall   *obs.Histogram
	queryCount  *obs.Counter
	queryErrors *obs.Counter
	parseErrors *obs.Counter
	// Streaming-executor metrics (in reg): live governed bytes across
	// all running queries, per-query peak distribution, spill activity.
	execMem        *obs.Gauge
	execPeak       *obs.Histogram
	execSpills     *obs.Counter
	execSpillBytes *obs.Counter
	// queryCtr names per-query spill directories.
	queryCtr atomic.Uint64
	// Tuple-mover metrics (in reg).
	mergeoutNS   *obs.Histogram
	mergeoutJobs *obs.Counter

	// slow-query log: the most recent threshold-crossing queries with
	// their profiles.
	slowLog ring[SlowQuery]

	// Data Collector (systable.go): retention-bounded event rings fed by
	// hot paths, surfaced as v_monitor.dc_* tables. All ring pointers are
	// nil when Config.DisableDataCollector is set; emits then no-op.
	dc                 *obs.DataCollector
	dcDepotFetches     *obs.DCRing
	dcDepotEvictions   *obs.DCRing
	dcMergeouts        *obs.DCRing
	dcSpills           *obs.DCRing
	dcAdmissionWaits   *obs.DCRing
	dcSlowQueries      *obs.DCRing
	dcReconcileActions *obs.DCRing

	// sysTables is the v_monitor virtual-table registry the planner
	// resolves against and the executor materializes from.
	sysTables *systable.Registry

	// recent sessions (v_monitor.sessions, v_monitor.query_profiles).
	sessions ring[*Session]
	sessCtr  atomic.Int64

	// reconcile-status providers (v_monitor.reconcile_status), installed
	// by the reconcile package.
	rsMu        sync.Mutex
	rsProviders map[string]func() ReconcileStatus
}

// SlowQuery is one slow-query log entry: a query whose wall time reached
// Config.SlowQueryThreshold, with its complete execution profile (failed
// queries are logged too; their profiles are force-completed).
type SlowQuery struct {
	SQL     string        `json:"sql,omitempty"`
	Start   time.Time     `json:"start"`
	Wall    time.Duration `json:"wall_ns"`
	Err     string        `json:"err,omitempty"`
	Profile *obs.Profile  `json:"profile,omitempty"`
	// Exec carries the executor's resource stats for the query: peak
	// governed memory and spill activity, from the same record as the
	// session's LastExecStats.
	Exec ExecStats `json:"exec"`
}

// recordSlow appends an entry to the bounded slow-query ring and emits
// a dc_slow_queries event.
func (db *DB) recordSlow(e SlowQuery) {
	db.dcSlowQueries.Emit(obs.DCEvent{
		A: truncateSQL(e.SQL), B: e.Err,
		V1: int64(e.Wall), V2: e.Exec.PeakMemBytes, V3: e.Exec.SpillBytes,
	})
	db.slowLog.add(e)
}

// SlowQueries returns the slow-query log entries, oldest first.
func (db *DB) SlowQueries() []SlowQuery { return db.slowLog.items() }

// Registry returns the database's metrics registry.
func (db *DB) Registry() *obs.Registry { return db.reg }

// Metrics snapshots every metric in the database's registry.
func (db *DB) Metrics() obs.Snapshot { return db.reg.Snapshot() }

// ioWidth is how many shared-storage or peer requests one scan fragment,
// load or maintenance read keeps in flight. Shared storage is high-latency
// and parallel (§5.3): the width hides round trips, so it belongs to the
// store, not to the CPU count or the workload, and is not a knob.
const ioWidth = 32

// ioConc is ioWidth, or 1 under the fully serial ScanConcurrency 1.
func (db *DB) ioConc() int {
	if db.cfg.ScanConcurrency == 1 {
		return 1
	}
	return ioWidth
}

// ScanStats returns the cumulative scan statistics across all queries
// that executed against this database, failed ones included; Wall sums
// their wall times. It is a derived view over the metrics registry's
// "scan." counters, which each query's record is folded into once.
func (db *DB) ScanStats() ScanStats { return db.scanM.snapshot() }

// SetNeverCacheTable installs the "never cache table T" shaping policy
// (§5.2): the table's files are not admitted at load or scan time, so
// large batch/archive tables cannot evict dashboard working sets.
func (db *DB) SetNeverCacheTable(table string, never bool) {
	db.policyMu.Lock()
	defer db.policyMu.Unlock()
	if db.neverCache == nil {
		db.neverCache = map[string]bool{}
	}
	db.neverCache[lowerASCII(table)] = never
}

func (db *DB) neverCacheTable(table string) bool {
	db.policyMu.RLock()
	defer db.policyMu.RUnlock()
	return db.neverCache[lowerASCII(table)]
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// installResilience installs the resilient shared-storage wrapper and
// the per-node breaker groups; all groups aggregate into the wrapper's
// counters so ResilienceStats is one coherent snapshot.
func (db *DB) installResilience(rs *resilience.Store[objstore.Info], cfg resilience.Config) {
	db.resilient = rs
	db.shared = rs
	bc := cfg.Breaker
	bc.Seed = cfg.Seed + 2
	db.peerBreakers = resilience.NewGroup(bc, rs.Counters())
	bc.Seed = cfg.Seed + 3
	db.cacheBreakers = resilience.NewGroup(bc, rs.Counters())
}

// Mode returns the database mode.
func (db *DB) Mode() Mode { return db.mode }

// SharedStore returns the shared object store (Eon), viewed through the
// resilience layer.
func (db *DB) SharedStore() objstore.Store { return db.shared }

// ResilienceStats returns a snapshot of the shared-storage resilience
// counters: retries, hedges, breaker transitions, sheds and
// degradation fallbacks.
func (db *DB) ResilienceStats() resilience.Stats { return db.resilient.Stats() }

// Net returns the simulated network.
func (db *DB) Net() *netsim.Network { return db.net }

// Ring returns the segment-shard hash ring.
func (db *DB) Ring() *hashring.Ring { return db.ring }

// Incarnation returns the cluster's current incarnation id.
func (db *DB) Incarnation() cluster.IncarnationID { return db.incarnation }

// Node returns a node by name.
func (db *DB) Node(name string) (*Node, bool) {
	db.nodesMu.RLock()
	defer db.nodesMu.RUnlock()
	n, ok := db.nodes[name]
	return n, ok
}

// Nodes returns all nodes in creation order.
func (db *DB) Nodes() []*Node {
	db.nodesMu.RLock()
	defer db.nodesMu.RUnlock()
	out := make([]*Node, 0, len(db.order))
	for _, name := range db.order {
		out = append(out, db.nodes[name])
	}
	return out
}

// QueueDepth reports how many queries are parked waiting for execution
// slots — the load signal the reconciler's autoscaler keys off (§4.3).
func (db *DB) QueueDepth() int { return db.slots.waitingCount() }

// SlotsOutstanding reports the execution slots currently held across the
// cluster; it is 0 when the system is quiescent (leak checks).
func (db *DB) SlotsOutstanding() int { return db.slots.outstanding() }

// ReplicationFactor returns the configured minimum subscribers per
// segment shard.
func (db *DB) ReplicationFactor() int { return db.cfg.ReplicationFactor }

// Spares returns the names of unpromoted warm-spare nodes, sorted by
// creation order.
func (db *DB) Spares() []string {
	var out []string
	for _, n := range db.Nodes() {
		if n.Spare() {
			out = append(out, n.name)
		}
	}
	return out
}

// UpNodes returns the names of running nodes.
func (db *DB) UpNodes() map[string]bool {
	out := map[string]bool{}
	for _, n := range db.Nodes() {
		if n.Up() {
			out[n.name] = true
		}
	}
	return out
}

// anyUpNode returns some running node (the lowest-named, making leader
// choice deterministic).
func (db *DB) anyUpNode() (*Node, error) {
	if db.shutdown.Load() {
		return nil, fmt.Errorf("core: cluster is shut down")
	}
	var best *Node
	for _, n := range db.Nodes() {
		if n.Up() && (best == nil || n.name < best.name) {
			best = n
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no nodes up")
	}
	return best, nil
}

// now returns the simulated current time (wall clock or test hook).
func (db *DB) now() time.Time {
	if db.cfg.Now != nil {
		return db.cfg.Now()
	}
	return time.Now()
}

func (db *DB) newNode(spec NodeSpec) *Node {
	cfg := &db.cfg
	n := &Node{
		name:       spec.Name,
		subcluster: spec.Subcluster,
		catalog:    catalog.NewSharing(&db.oids),
		fs:         udfs.NewMemFS(),
		runningQ:   map[uint64]int{},
		syncSeen:   map[string]bool{},
		scanFree:   make(chan *scanWorker, max(cfg.ScanConcurrency, 1)),
		free:       exec.NewFreeList(cfg.ScanConcurrency),
	}
	n.inst.Store(cluster.NewInstanceID())
	n.catalog.SetPersister(catalog.NewPersister(n.fs, "catalog", cfg.CheckpointThreshold))
	if cfg.Mode == ModeEon {
		n.cache = cache.New(n.fs, "cache", cfg.CacheBytes)
	}
	n.up.Store(true)
	return n
}

// newDB builds the parts of a DB that Create and Revive share: the
// resilient view of shared storage, the serving-path controllers, the
// nodes, each with an empty local disk, and the observability surfaces —
// metrics, Data Collector and system tables — so a revived cluster is as
// observable as a created one. cfg has its defaults filled.
func newDB(cfg Config, rs *resilience.Store[objstore.Info], rc resilience.Config) (*DB, error) {
	db := &DB{
		cfg:         cfg,
		mode:        cfg.Mode,
		nodes:       map[string]*Node{},
		net:         cfg.Net,
		incarnation: cluster.NewIncarnationID(), // a new one per create and per revive
		slowLog:     ring[SlowQuery]{size: slowQueryLogSize},
		sessions:    ring[*Session]{size: sessionLogSize},
	}
	db.installResilience(rs, rc)
	db.sharedFS = udfs.NewObjectFS(db.shared)
	db.slots = newSlotManager()
	db.admission = newAdmissionController(cfg.SubclusterConcurrency, cfg.AdmissionMemoryLimit)
	db.planCache = newPlanCache(cfg.PlanCacheSize)
	db.resultCache = newResultCache(cfg.ResultCacheBytes)
	for _, spec := range cfg.Nodes {
		if err := db.attach(db.newNode(spec), spec.Rack); err != nil {
			return nil, err
		}
	}
	db.installMetrics()
	db.installDataCollector()
	if err := db.installSystemTables(); err != nil {
		return nil, err
	}
	return db, nil
}

// attach enters a constructed node into the cluster's tables: the node
// map and creation order, its execution slots and its rack.
func (db *DB) attach(n *Node, rack string) error {
	db.nodesMu.Lock()
	if _, dup := db.nodes[n.name]; dup {
		db.nodesMu.Unlock()
		return fmt.Errorf("core: node %q already exists", n.name)
	}
	db.nodes[n.name] = n
	db.order = append(db.order, n.name)
	if rack != "" {
		db.net.SetRack(n.name, rack)
	}
	db.nodesMu.Unlock()
	// Not under nodesMu: a parked slot waiter holds the slot lock while
	// its validate looks nodes up (acquireCtx → DB.Node), so taking the
	// slot lock here first would deadlock against it.
	db.slots.register(n.name, db.cfg.ExecSlots)
	return nil
}

// Create initializes a new database cluster.
func Create(cfg Config) (*DB, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	rc := cfg.resilienceConfig()
	db, err := newDB(cfg, resilience.Wrap[objstore.Info](cfg.Shared, rc), rc)
	if err != nil {
		return nil, err
	}
	db.ring = hashring.NewRing(cfg.ShardCount)
	if err := db.bootstrapCatalog(); err != nil {
		return nil, err
	}
	return db, nil
}

// installMetrics builds the database's metrics registry and registers
// every subsystem into it: objstore traffic and cost (when shared
// storage is the simulator), resilience counters, interconnect traffic,
// the scan pipeline's cumulative counters, query/mergeout timings, and
// per-node gauges (cache occupancy, catalog version). The
// registry is published process-wide under the database name for export
// endpoints.
func (db *DB) installMetrics() {
	reg := obs.NewRegistry()
	db.reg = reg
	db.scanM.init(reg)
	db.queryWall = reg.Histogram("query.wall_ns")
	db.queryCount = reg.Counter("query.count")
	db.queryErrors = reg.Counter("query.errors")
	db.parseErrors = reg.Counter("query.parse_errors")
	db.planCache.register(reg)
	db.resultCache.register(reg)
	db.admission.register(reg)
	db.execMem = reg.Gauge("exec.mem_bytes")
	for name, of := range map[string]func(*Node) int64{
		"scan.lent_vectors": func(n *Node) int64 { return n.lent.Load() },
		"exec.free_bytes":   func(n *Node) int64 { return n.free.HeldBytes() },
	} {
		reg.GaugeFunc(name, func() (sum int64) {
			for _, n := range db.Nodes() {
				sum += of(n)
			}
			return sum
		})
	}
	db.execPeak = reg.Histogram("exec.query_peak_mem_bytes")
	db.execSpills = reg.Counter("exec.spills")
	db.execSpillBytes = reg.Counter("exec.spill_bytes")
	db.mergeoutNS = reg.Histogram("tuplemover.mergeout_ns")
	db.mergeoutJobs = reg.Counter("tuplemover.jobs")
	reg.GaugeFunc("slots.waiting", func() int64 {
		return int64(db.slots.waitingCount())
	})
	reg.GaugeFunc("slots.held", func() int64 {
		return int64(db.slots.outstanding())
	})
	if sim, ok := db.cfg.Shared.(*objstore.Sim); ok {
		sim.Instrument(reg)
	}
	db.resilient.Counters().Register(reg, "resilience.")
	db.net.Instrument(reg)
	for _, name := range db.order {
		n := db.nodes[name]
		prefix := "node." + name + "."
		if n.cache != nil {
			n.cache.Register(reg, prefix+"cache.")
		}
		reg.GaugeFunc(prefix+"catalog.version", func() int64 {
			return int64(n.catalog.Version()) // revive replays into it after install
		})
		db.ensureSubclusterGauges(n.Subcluster())
	}
	obs.Publish(db.cfg.Name, reg)
}

// ensureSubclusterGauges registers the per-subcluster membership gauges
// ("" registers as "default"): total member nodes and up members, both
// computed on read so they track promotions and failures. Registration
// is idempotent — re-registering a subcluster replaces its gauges with
// equivalent ones — so the helper is called at install time and again
// whenever a node joins or a spare is promoted.
func (db *DB) ensureSubclusterGauges(sc string) {
	label := sc
	if label == "" {
		label = "default"
	}
	count := func(upOnly bool) int64 {
		var n int64
		for _, node := range db.Nodes() {
			if node.Spare() || node.Subcluster() != sc {
				continue
			}
			if upOnly && !node.Up() {
				continue
			}
			n++
		}
		return n
	}
	db.reg.GaugeFunc("subcluster."+label+".nodes", func() int64 { return count(false) })
	db.reg.GaugeFunc("subcluster."+label+".up_nodes", func() int64 { return count(true) })
}

// bootstrapCatalog commits the initial node, shard and subscription
// objects.
func (db *DB) bootstrapCatalog() error {
	init, err := db.anyUpNode()
	if err != nil {
		return err
	}
	txn := init.catalog.Begin()
	for _, name := range db.order {
		n := db.nodes[name]
		txn.Put(&catalog.Node{OID: init.catalog.NewOID(), Name: n.name, Subcluster: n.Subcluster()})
	}
	for i := 0; i < db.cfg.ShardCount; i++ {
		seg := db.ring.Segment(i)
		txn.Put(&catalog.Shard{
			OID: init.catalog.NewOID(), Index: i,
			ShardKind: catalog.SegmentShard, Lo: seg.Start, Hi: seg.End,
		})
	}
	txn.Put(&catalog.Shard{
		OID: init.catalog.NewOID(), Index: catalog.ReplicaShard,
		ShardKind: catalog.ReplicaShardKind, Lo: 0, Hi: hashring.SpaceSize,
	})
	// Initial subscriptions.
	if db.mode == ModeEon {
		k := db.cfg.ReplicationFactor
		nNodes := len(db.order)
		for i := 0; i < db.cfg.ShardCount; i++ {
			for r := 0; r < k; r++ {
				node := db.order[(i+r)%nNodes]
				txn.Put(&catalog.Subscription{
					OID: init.catalog.NewOID(), Node: node,
					ShardIndex: i, State: catalog.SubActive,
				})
			}
		}
	} else {
		// Enterprise: node i serves segment i (base) and its buddy
		// segment — the rotated ring (§2.2).
		nNodes := len(db.order)
		for i := 0; i < db.cfg.ShardCount; i++ {
			base := db.order[i%nNodes]
			buddy := db.order[(i+1)%nNodes]
			txn.Put(&catalog.Subscription{OID: init.catalog.NewOID(), Node: base, ShardIndex: i, State: catalog.SubActive})
			if buddy != base {
				txn.Put(&catalog.Subscription{OID: init.catalog.NewOID(), Node: buddy, ShardIndex: i, State: catalog.SubActive})
			}
		}
	}
	for _, name := range db.order {
		txn.Put(&catalog.Subscription{
			OID: init.catalog.NewOID(), Node: name,
			ShardIndex: catalog.ReplicaShard, State: catalog.SubActive,
		})
	}
	_, err = db.commit(init, txn, nil)
	return err
}

// keepFuncFor builds the metadata filter for one node's catalog.
func (db *DB) keepFuncFor(n *Node) catalog.KeepFunc {
	if db.mode == ModeEnterprise {
		name := n.name
		return func(o catalog.Object) bool {
			switch t := o.(type) {
			case *catalog.StorageContainer:
				return t.OwnerNode == name
			case *catalog.DeleteVector:
				return t.OwnerNode == name
			}
			return true
		}
	}
	// Eon: keep objects of subscribed shards (any state — metadata is
	// eagerly redistributed to PENDING subscribers too, §3.2).
	snap := n.catalog.Snapshot()
	keep := map[int]bool{}
	for _, s := range snap.Subscriptions(n.name) {
		keep[s.ShardIndex] = true
	}
	return func(o catalog.Object) bool { return keep[o.Shard()] }
}

// commit runs the cluster-wide commit protocol: OCC-validate and commit
// on the initiator, with every non-nil check run under the commit lock,
// then replicate the record to every other up node with its metadata
// filter. Down nodes catch up from the record log on recovery.
func (db *DB) commit(initiator *Node, txn *catalog.Txn, checks ...func(*catalog.Snapshot) error) (*catalog.LogRecord, error) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.shutdown.Load() {
		return nil, fmt.Errorf("core: cluster is shut down")
	}
	// A killed initiator's catalog stops at its last applied record: a
	// commit there would not follow the cluster's version, and every
	// other node would fail to apply it.
	if !initiator.Up() {
		return nil, fmt.Errorf("core: initiator %s is down", initiator.name)
	}
	rec, err := initiator.catalog.CommitValidated(txn, func(latest *catalog.Snapshot) error {
		var errs []error
		for _, check := range checks {
			if check != nil {
				errs = append(errs, check(latest))
			}
		}
		return errors.Join(errs...)
	})
	if err != nil {
		return nil, err
	}
	db.logMu.Lock()
	db.recordLog = append(db.recordLog, rec)
	db.logMu.Unlock()
	// Fan the record out to the other nodes in parallel (the paper
	// piggybacks metadata deltas on existing messages, §3.2).
	var wg sync.WaitGroup
	for _, n := range db.Nodes() {
		if n == initiator || !n.Up() {
			continue
		}
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			if err := n.catalog.Apply(rec, db.keepFuncFor(n)); err != nil {
				// A node that cannot apply a committed record is broken;
				// take it down rather than diverge (§3.4).
				n.up.Store(false)
			}
		}(n)
	}
	wg.Wait()
	return rec, nil
}

// commitWritten is commit for a statement that persisted ships' files for
// txn: if it is refused, no catalog references them, so RunGC frees them.
func (db *DB) commitWritten(initiator *Node, txn *catalog.Txn, ships []pendingShip, checks ...func(*catalog.Snapshot) error) (*catalog.LogRecord, error) {
	rec, err := db.commit(initiator, txn, checks...)
	for i := 0; err != nil && i < len(ships); i++ {
		for path := range ships[i].files {
			db.deleteDataFile(db.Context(), path, initiator.catalog.Version())
		}
	}
	return rec, err
}

// recordsAfter returns committed records with version > v.
func (db *DB) recordsAfter(v uint64) []*catalog.LogRecord {
	db.logMu.Lock()
	defer db.logMu.Unlock()
	var out []*catalog.LogRecord
	for _, r := range db.recordLog {
		if r.Version > v {
			out = append(out, r)
		}
	}
	return out
}

// Context returns the context of cluster maintenance work — loads, DML
// writes, DDL, the tuple mover, sync and GC — which runs without a
// deadline. A query's context, DML scans included, carries its
// Session.Timeout instead.
func (db *DB) Context() context.Context { return context.Background() }
