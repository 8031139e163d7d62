package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eon/internal/catalog"
	"eon/internal/exec"
	"eon/internal/expr"
	"eon/internal/flowassign"
	"eon/internal/obs"
	"eon/internal/planner"
	"eon/internal/sql"
	"eon/internal/types"
)

// errNodeDown marks failures caused by a participating node going down;
// the session retries with a fresh assignment (§6.1: another subscriber
// immediately serves the shard).
var errNodeDown = errors.New("core: participating node went down")

// CrunchMode selects the §4.4 mechanism for spreading one shard's work
// over several nodes when node count exceeds shard count.
type CrunchMode uint8

// Crunch scaling modes.
const (
	// CrunchOff runs each shard on exactly one node.
	CrunchOff CrunchMode = iota
	// CrunchHashFilter has every helper read the shard's data and keep
	// only rows whose key hash falls in its sub-range of the shard
	// (hashring.Ring.Locate). Segmentation semantics are preserved, so
	// local joins and aggregates stay legal.
	CrunchHashFilter
	// CrunchContainerSplit physically splits the shard's containers
	// between helpers: each row is read once, but segmentation is lost
	// and the planner must reshuffle joins and two-phase aggregations.
	CrunchContainerSplit
)

// Session is one client connection. Sessions select participating
// subscriptions per query (§4.1) and carry cache-shaping options (§5.2).
type Session struct {
	db *DB
	// Subcluster prioritizes its member nodes for execution (§4.3).
	Subcluster string
	// BypassCache executes queries without populating the cache ("don't
	// use the cache for this query").
	BypassCache bool
	// Crunch enables crunch scaling (§4.4).
	Crunch CrunchMode
	// RowEngine disables the vectorized expression kernels and runs
	// scans and operators row-at-a-time (the reference engine). Both
	// engines produce byte-identical results; the flag exists for
	// differential testing and benchmarking.
	RowEngine bool
	// Timeout bounds each query: the deadline context threads through
	// scans into shared-storage requests, so a query stuck behind a slow
	// or failing store cancels promptly instead of retrying forever
	// (§5.3). 0 means no deadline.
	Timeout time.Duration
	// Trace enables per-query hierarchical span tracing: each query's
	// plan/scan/fragment/operator timeline is captured and exposed via
	// LastProfile (EXPLAIN PROFILE). Tracing is also forced on while the
	// database has a slow-query threshold configured. Off (the default),
	// the instrumented paths run a zero-allocation no-op fast path.
	Trace bool
	// MemoryBudget bounds, per query and per node, the bytes pipeline
	// breakers may hold before spilling to local disk (inherited from
	// Config.QueryMemoryBudget; 0 = never spill, and only sorts and
	// join builds report usage).
	MemoryBudget int64

	// id and start identify the session in v_monitor.sessions; queries
	// counts the queries it has run, DML included (the query_seq of its
	// profile rows).
	id      int64
	start   time.Time
	queries atomic.Int64

	// last is the record of the most recent query, set once when it
	// ends (under statsMu).
	statsMu sync.Mutex
	last    queryRecord
}

// ExecStats summarizes the execution engine's resource behaviour for
// the session's most recent query: the peak bytes pipeline breakers
// held on any one node, and spill activity.
type ExecStats struct {
	// PeakMemBytes is the high-water mark of governed operator memory on
	// the busiest node. With a finite MemoryBudget it stays at or under
	// the budget.
	PeakMemBytes int64
	// SpillCount and SpillBytes total the runs written to local disk by
	// budget-governed sorts and aggregations.
	SpillCount int64
	SpillBytes int64
}

// lastQuery returns the record of the session's most recent query.
func (s *Session) lastQuery() queryRecord {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.last
}

// LastExecStats returns the executor resource stats of the session's
// most recent query, failed or not (zero if it never executed).
func (s *Session) LastExecStats() ExecStats { return s.lastQuery().exec }

// LastScanStats returns the scan instrumentation of the session's most
// recent query, failed or not: containers and blocks pruned vs scanned,
// bytes fetched, cache behaviour, and the I/O / decode / filter time
// split. A query that never reached its scans (a result-cache hit, a
// planning error) reports zero.
func (s *Session) LastScanStats() ScanStats { return s.lastQuery().scan }

// LastProfile returns the hierarchical execution profile of the
// session's most recent query (EXPLAIN PROFILE): per-operator rows
// in/out, wall time, bytes fetched and cache behaviour. Nil unless
// tracing was on (Session.Trace, or a configured slow-query threshold)
// for the query.
func (s *Session) LastProfile() *obs.Profile { return s.lastQuery().profile }

// NewSession opens a session against the cluster.
func (db *DB) NewSession() *Session {
	s := &Session{
		db:           db,
		MemoryBudget: db.cfg.QueryMemoryBudget,
		id:           db.sessCtr.Add(1),
		start:        db.now(),
	}
	db.sessions.add(s)
	return s
}

// NewSessionOn opens a session connected to a subcluster, isolating its
// workload to those nodes when they can cover all shards.
func (db *DB) NewSessionOn(subcluster string) *Session {
	s := db.NewSession()
	s.Subcluster = subcluster
	return s
}

// Result is a query result.
type Result struct {
	Columns []string
	Batch   *types.Batch
}

// Rows materializes the result rows.
func (r *Result) Rows() []types.Row {
	if r.Batch == nil {
		return nil
	}
	return r.Batch.Rows()
}

// NumRows returns the result row count.
func (r *Result) NumRows() int {
	if r.Batch == nil {
		return 0
	}
	return r.Batch.NumRows()
}

// scanTask is one node's share of one shard: sub-partition Part of Of
// (Of == 1 means the whole shard).
type scanTask struct {
	Shard int
	Part  int
	Of    int
}

// queryEnv is the one per-query context. It holds the session's
// decision first — the shard-to-node assignment, crunch groups and a
// consistent catalog cut (§4.1) — and then the executor's state, which
// run creates when execution starts.
type queryEnv struct {
	db         *DB
	session    *Session
	assignment map[int]string // shard -> primary node
	// crunch maps a shard to the ordered node group collectively serving
	// it (§4.4); absent shards run on their primary only.
	crunch    map[int][]string
	nodes     []string // distinct participating nodes, sorted
	initiator *Node
	version   uint64
	// snapshots is the catalog cut, one snapshot per participant. Scans
	// read their node's snapshot from it, never a fresh one (see
	// fragmentScan.plan).
	snapshots map[string]*catalog.Snapshot
	// start is when the query began; vec counts its vectorized and
	// fallback rows, and frags links its scan fragments (under mu).
	// shutdown sums them into rec, the query's one record.
	start   time.Time
	vec     expr.VecStats
	frags   *fragmentScan
	rec     queryRecord
	lending *pipe // the query's lending pipes, for shutdown (under mu)
	// read is a DML statement's read set: each container its scans read,
	// with the node that read it (under mu; nil for a SELECT).
	read map[catalog.OID]readFrom

	// ctx carries the query's span and deadline; run derives a
	// cancellable context from it, which every pipeline edge selects on.
	ctx    context.Context
	cancel context.CancelFunc
	// wg counts the driver goroutines shutdown waits for; root is the
	// query's span and qid names its spill prefix.
	wg   sync.WaitGroup
	root *obs.Span
	qid  uint64
	// mu guards the plan-node spans to close at shutdown and the
	// per-node memory governors and spill stores.
	mu     sync.Mutex
	spans  []*obs.Span
	govs   map[string]*exec.MemGovernor
	spills map[string]*exec.FSSpill
}

// eng is the execution-engine selector handed to every exec operator
// and scan predicate of this query: the session's row/vectorized choice
// plus the query's vectorized-row counters.
func (env *queryEnv) eng() exec.Engine {
	return exec.Engine{Row: env.session.RowEngine, Stats: &env.vec}
}

// engOn is eng for a hash operator on node: it builds in the node's
// free list.
func (env *queryEnv) engOn(node string) exec.Engine {
	e := env.eng()
	if n, ok := env.db.Node(node); ok {
		e.Free = n.free
	}
	return e
}

// nodeTasks returns the scan tasks a node serves, in shard order.
func (env *queryEnv) nodeTasks(node string) []scanTask {
	var out []scanTask
	for shard, n := range env.assignment {
		if group, ok := env.crunch[shard]; ok {
			for i, member := range group {
				if member == node {
					out = append(out, scanTask{Shard: shard, Part: i, Of: len(group)})
				}
			}
			continue
		}
		if n == node {
			out = append(out, scanTask{Shard: shard, Part: 0, Of: 1})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Part < out[j].Part
	})
	return out
}

// route is where a row with key hash h lives in this query: the node
// serving its shard, or, when a crunch group splits the shard, the member
// whose sub-range of the shard holds h — the member whose hash filter
// keeps the row. A reshuffle sends rows here, so its output is
// co-located with every projection segmented on the same keys.
func (env *queryEnv) route(h uint32) string {
	shard := env.db.ring.SegmentFor(h)
	if group, ok := env.crunch[shard]; ok {
		_, part := env.db.ring.Locate(h, len(group))
		return group[part]
	}
	return env.assignment[shard]
}

// queryRequest carries one SELECT through the staged lifecycle (parse ->
// bind/prepare -> plan -> admit -> execute). The normalized text is the
// cache identity.
type queryRequest struct {
	sqlText string
	// norm is the plan/result-cache key ("" bypasses both caches:
	// QuerySelect callers hand pre-parsed ASTs the engine never caches).
	norm string
	// sel is the parsed AST when the caller already parsed; nil until
	// needed (a warm plan-cache hit never parses).
	sel *sql.Select
	// shared marks sel as the caller's to keep (a prepared statement's or
	// a QuerySelect AST): the planner binds a clone of it.
	shared bool
	// args are the bound parameter values ($1..$N / "?").
	args []types.Datum
	// nparams is the statement's parameter count, valid once the request
	// was parsed or a cache entry supplied it.
	nparams int
	// dml, when set, makes the request a DELETE or UPDATE: it is planned
	// by planner.PlanDML instead of the SELECT stages, and never cached.
	dml sql.Statement
}

// Query parses, plans and executes a SELECT, retrying with a fresh node
// assignment when a participant fails mid-query. Parsing and planning
// are served from the database plan cache when the same normalized
// statement was planned before and no table it reads has changed
// definition since.
func (s *Session) Query(sqlText string) (*Result, error) {
	return s.run(&queryRequest{sqlText: sqlText, norm: sql.Normalize(sqlText)})
}

// QueryArgs executes a parameterized SELECT ("?" or $N placeholders),
// binding args by ordinal. The statement text is cached like Query's, so
// a hot parameterized statement is lexed and planned once and then only
// re-bound per execution.
func (s *Session) QueryArgs(sqlText string, args ...types.Datum) (*Result, error) {
	return s.run(&queryRequest{sqlText: sqlText, norm: sql.Normalize(sqlText), args: args})
}

// QuerySelect executes a parsed SELECT. Caller-built ASTs bypass the
// plan and result caches: the engine cannot prove the AST corresponds to
// any normalized text, and the caller may mutate it between calls.
func (s *Session) QuerySelect(sel *sql.Select) (*Result, error) {
	return s.run(&queryRequest{sel: sel, shared: true, nparams: sql.NumParams(sel)})
}

func (s *Session) querySelect(sel *sql.Select, sqlText string) (*Result, error) {
	return s.run(&queryRequest{sqlText: sqlText, norm: sql.Normalize(sqlText), sel: sel, nparams: sql.NumParams(sel)})
}

// run drives the retry loop around tryQuery.
func (s *Session) run(req *queryRequest) (*Result, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		res, err := s.tryQuery(req)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !errors.Is(err, errNodeDown) {
			return nil, err
		}
		// Invariant check before retrying: the cluster may no longer be
		// viable (§3.4).
		if init, err2 := s.db.anyUpNode(); err2 == nil {
			s.db.checkViabilityAndMaybeShutdown(init.catalog.Snapshot())
		}
	}
	return nil, lastErr
}

// stageParse returns an AST for a request that needs planning (cache
// miss or cache bypass). Planning resolves and binds column references in
// place, so the AST must be the planner's: a clone of one the request
// shares with its caller, the request's own (consumed — an attempt that
// misses again parses again), or a fresh parse. Parse failures surface
// inside tryQuery's accounting window, so they count into query.count /
// query.errors / query.parse_errors.
func (s *Session) stageParse(req *queryRequest, root *obs.Span) (*sql.Select, error) {
	if sel := req.sel; sel != nil {
		if req.shared {
			return sql.CloneSelect(sel), nil
		}
		req.sel = nil
		return sel, nil
	}
	sp := root.StartSpan("parse")
	stmt, err := sql.Parse(req.sqlText)
	sp.End()
	if err != nil {
		s.db.parseErrors.Inc()
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("core: Query requires a SELECT; use Execute for %T", stmt)
	}
	req.nparams = sql.NumParams(sel)
	return sel, nil
}

// stagePlan resolves the request to a physical plan: a valid plan-cache
// entry returns the shared cached plan without touching the lexer or
// planner (no "parse"/"plan" span appears in the profile — the
// observable proof of the skip); a stale entry or a cold statement runs
// the front end and (re)populates the cache.
func (s *Session) stagePlan(req *queryRequest, env *queryEnv, root *obs.Span, noSeg bool) (*planner.Plan, error) {
	db := s.db
	snap := env.snapshots[env.initiator.name]
	cached := req.norm != "" && db.planCache != nil
	var stale *planEntry
	if cached {
		e, ok := db.planCache.lookup(req.norm, noSeg, snap)
		if ok {
			req.nparams = e.nparams
			return e.plan, nil
		}
		stale = e
	}
	sel, err := s.stageParse(req, root)
	if err != nil {
		return nil, err
	}
	sp := root.StartSpan("plan")
	plan, err := planner.PlanSelect(sel, planner.Options{
		Snapshot:          snap,
		Virtual:           db.sysTables,
		BroadcastRowLimit: db.cfg.BroadcastRowLimit,
		// Container split loses the segmentation property (§4.4).
		AssumeNoSegmentation: noSeg,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	if cached {
		db.planCache.insert(req.norm, noSeg, snap, req.nparams, plan, stale)
	}
	return plan, nil
}

func (s *Session) tryQuery(req *queryRequest) (result *Result, err error) {
	db := s.db
	sqlText := req.sqlText
	init, err := db.anyUpNode()
	if err != nil {
		return nil, err
	}
	env, err := s.selectParticipants(init)
	if err != nil {
		return nil, err
	}
	s.queries.Add(1)

	// Tracing is on when the session asks for it or the database needs
	// profiles for its slow-query log; otherwise trace stays nil and every
	// span operation below is a zero-allocation no-op.
	var trace *obs.Trace
	if s.Trace || db.cfg.SlowQueryThreshold > 0 {
		trace = obs.NewTrace("query", nil)
	}
	queryStart := time.Now()
	env.start = queryStart
	defer func() {
		// Finalize query-level accounting on every exit path: a failed
		// query still counts, still observes its wall time, and still
		// leaves a complete profile (Finish force-ends dangling spans)
		// and its record (zero if it never executed) on the session.
		wall := time.Since(queryStart)
		db.queryCount.Inc()
		if err != nil {
			db.queryErrors.Inc()
		}
		db.queryWall.ObserveDuration(wall)
		rec := env.rec
		rec.profile = trace.Finish()
		s.statsMu.Lock()
		s.last = rec
		s.statsMu.Unlock()
		if t := db.cfg.SlowQueryThreshold; t > 0 && wall >= t {
			var errStr string
			if err != nil {
				errStr = err.Error()
			}
			db.recordSlow(SlowQuery{
				SQL: sqlText, Start: queryStart, Wall: wall,
				Err: errStr, Profile: rec.profile, Exec: rec.exec,
			})
		}
	}()
	root := trace.Root()
	env.ctx = obs.WithSpan(env.ctx, root)
	if s.Timeout > 0 {
		ctx, cancel := context.WithTimeout(env.ctx, s.Timeout)
		defer cancel()
		env.ctx = ctx
	}
	if req.dml != nil {
		return s.runDML(req.dml, env, root)
	}

	// Stage: plan — served from the plan cache while the tables the
	// statement reads are unchanged (no parse or plan span), otherwise
	// parsed and planned.
	noSeg := s.Crunch == CrunchContainerSplit && len(env.crunch) > 0
	plan, err := s.stagePlan(req, env, root, noSeg)
	if err != nil {
		return nil, err
	}

	// Stage: bind — substitute parameter values into copies of the
	// param-bearing plan nodes (the cached plan itself stays untouched
	// and shareable). Also validates the argument count, param'd or not.
	exePlan := plan
	if req.nparams > 0 || len(req.args) > 0 {
		bindSp := root.StartSpan("bind")
		exePlan, err = planner.BindParams(plan, req.args)
		bindSp.End()
		if err != nil {
			return nil, err
		}
	}

	// Stage: result cache — a parameterized hot query whose data
	// dependencies are unchanged returns its cached bytes without
	// admission, slots or execution. Gated off for virtual scans (live
	// monitoring state), BypassCache sessions, and cache-bypass requests.
	var rkey resultKey
	resultCacheable := false
	if db.resultCache != nil && req.norm != "" && !s.BypassCache {
		if fp, ok := env.depsFingerprint(exePlan); ok {
			rkey = resultKey{
				norm: req.norm, args: argsFingerprint(req.args),
				noSeg: noSeg, rowEng: s.RowEngine,
				depsHash: fp,
			}
			resultCacheable = true
			if res, ok := db.resultCache.lookup(rkey); ok {
				return res, nil
			}
		}
	}

	found, err := s.admitAndRun(env, root, exePlan.Root)
	if err != nil {
		return nil, err
	}
	result = &Result{Columns: exePlan.OutputNames, Batch: found[0]}
	if resultCacheable {
		// The stored key embeds the dependency fingerprint computed from
		// this query's own catalog cut — exactly the versions the scans
		// read — so a later lookup matches iff its cut is data-identical.
		db.resultCache.store(rkey, result)
	}
	return result, nil
}

// admitAndRun runs planned trees as one query: it admits the query, takes
// its slots, runs the trees through the pipeline and returns each one's
// rows gathered on the initiator.
func (s *Session) admitAndRun(env *queryEnv, root *obs.Span, trees ...planner.Node) ([]*types.Batch, error) {
	db := s.db
	// Stage: admit — per-subcluster FIFO queue with a budgeted-memory
	// throttle, then execution slots (one per shard on its serving node,
	// §4.2). Both waits are bounded by the session deadline and fail with
	// ErrQueuedTooLong, distinct from a mid-execution timeout.
	admitSp := root.StartSpan("admit")
	releaseAdm, err := db.admission.admit(env.ctx, env.initiator.name, s.Subcluster, s.MemoryBudget)
	if err != nil {
		admitSp.End()
		return nil, err
	}
	defer releaseAdm()
	release, err := env.acquireSlots()
	admitSp.End()
	if err != nil {
		return nil, err
	}
	defer release()

	// Register running-query versions for GC gossip (§6.5).
	for _, name := range env.nodes {
		if n, ok := db.Node(name); ok {
			n.beginQuery(env.version)
			defer n.endQuery(env.version)
		}
	}

	// Simulated per-node execution time, spent while the slots are held
	// (see Config.QueryCost).
	if db.cfg.QueryCost > 0 {
		time.Sleep(db.cfg.QueryCost)
	}

	return env.run(root, trees...)
}

// selectParticipants chooses the covering set of subscriptions for this
// query (§4.1) and captures a consistent catalog cut.
func (s *Session) selectParticipants(init *Node) (*queryEnv, error) {
	db := s.db
	shards := make([]int, db.cfg.ShardCount)
	for i := range shards {
		shards[i] = i
	}

	var assignment map[int]string
	snap := init.catalog.Snapshot()
	up := db.UpNodes()

	if db.mode == ModeEnterprise {
		// Fixed layout: the base owner serves each segment; its buddy
		// takes over when it is down (§2.2, §6.1).
		assignment = map[int]string{}
		nNodes := len(db.order)
		for _, sh := range shards {
			base := db.order[sh%nNodes]
			buddy := db.order[(sh+1)%nNodes]
			switch {
			case up[base]:
				assignment[sh] = base
			case up[buddy]:
				assignment[sh] = buddy
			default:
				return nil, fmt.Errorf("core: segment %d unavailable (node and buddy down)", sh)
			}
		}
	} else {
		var nodes []string
		priority := map[string]int{}
		initRack := db.net.Rack(init.name)
		for _, n := range snap.Nodes() {
			if !up[n.Name] {
				continue
			}
			nodes = append(nodes, n.Name)
			switch {
			case s.Subcluster != "":
				// Subcluster isolation (§4.3).
				if n.Subcluster != s.Subcluster {
					priority[n.Name] = 1
				}
			case initRack != "":
				// Rack locality (§4.1): "the starting graph includes only
				// nodes on the same physical rack, encouraging an
				// assignment that avoids sending network data across
				// bandwidth-constrained links."
				if db.net.Rack(n.Name) != initRack {
					priority[n.Name] = 1
				}
			}
		}
		canServe := func(node string, shard int) bool {
			for _, sub := range snap.SubscribersOf(shard) {
				if sub.Node != node {
					continue
				}
				// ACTIVE serves; REMOVING continues to serve until
				// dropped (§3.3).
				if sub.State == catalog.SubActive || sub.State == catalog.SubRemoving {
					return true
				}
			}
			return false
		}
		var err error
		assignment, err = flowassign.Assign(flowassign.Input{
			Shards: shards, Nodes: nodes, CanServe: canServe,
			Priority: priority,
			Seed:     db.cfg.Seed + db.seedCtr.Add(1),
		})
		if err != nil {
			return nil, fmt.Errorf("core: cannot cover all shards: %w", err)
		}
	}

	// Crunch scaling (§4.4): when enabled, every ACTIVE up subscriber of
	// a shard joins its serving group with the primary, in name order, so
	// which member serves a key does not depend on the assignment.
	crunch := map[int][]string{}
	if s.Crunch != CrunchOff && db.mode == ModeEon {
		for _, sh := range shards {
			group := []string{assignment[sh]}
			for _, sub := range snap.SubscribersOf(sh, catalog.SubActive) {
				if sub.Node != assignment[sh] && up[sub.Node] {
					group = append(group, sub.Node)
				}
			}
			sort.Strings(group)
			if len(group) > 1 {
				crunch[sh] = group
			}
		}
	}

	nodeSet := map[string]bool{init.name: true}
	for _, n := range assignment {
		nodeSet[n] = true
	}
	for _, group := range crunch {
		for _, n := range group {
			nodeSet[n] = true
		}
	}
	var nodes []string
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	snapshots, err := db.captureCut(nodes)
	if err != nil {
		return nil, err
	}
	if db.mode == ModeEon {
		// The assignment came from a planning snapshot taken before the
		// cut; a node drain (RemoveNode) can commit a subscription
		// deletion in between and then drop the node's local shard
		// metadata outside the commit lock. A participant whose own cut no
		// longer shows it serving its shard would silently scan nothing —
		// force a retry against a fresh plan instead.
		serves := func(name string, sh int) bool {
			for _, sub := range snapshots[name].SubscribersOf(sh, catalog.SubActive, catalog.SubRemoving) {
				if sub.Node == name {
					return true
				}
			}
			return false
		}
		for sh, name := range assignment {
			if !serves(name, sh) {
				return nil, fmt.Errorf("%w: %s no longer serves shard %d", errNodeDown, name, sh)
			}
		}
		for sh, group := range crunch {
			for _, name := range group {
				if !serves(name, sh) {
					return nil, fmt.Errorf("%w: %s no longer serves shard %d", errNodeDown, name, sh)
				}
			}
		}
	}

	return &queryEnv{
		db:         db,
		ctx:        db.Context(),
		session:    s,
		assignment: assignment,
		crunch:     crunch,
		nodes:      nodes,
		initiator:  init,
		version:    snapshots[init.name].Version(),
		snapshots:  snapshots,
	}, nil
}

// captureCut snapshots the named nodes' catalogs under the commit lock,
// so no commit lands between two of them: one consistent catalog cut.
// It fails with errNodeDown if one of them is down.
func (db *DB) captureCut(names []string) (map[string]*catalog.Snapshot, error) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	cut := make(map[string]*catalog.Snapshot, len(names))
	for _, name := range names {
		n, ok := db.Node(name)
		if !ok || !n.Up() {
			return nil, fmt.Errorf("%w: %s", errNodeDown, name)
		}
		cut[name] = n.catalog.Snapshot()
	}
	return cut, nil
}

// acquireSlots reserves one execution slot per served shard on its node,
// atomically across nodes (§4.2: "a running query requires S of the
// total N*E slots").
func (env *queryEnv) acquireSlots() (func(), error) {
	db := env.db
	req := map[string]int{}
	for _, name := range env.nodes {
		if tasks := env.nodeTasks(name); len(tasks) > 0 {
			req[name] = len(tasks)
		}
	}
	alive := func() bool {
		for name := range req {
			n, ok := db.Node(name)
			if !ok || !n.Up() {
				return false
			}
		}
		return !db.shutdown.Load()
	}
	start := time.Now()
	if err := db.slots.acquireCtx(env.ctx, req, alive); err != nil {
		if errors.Is(err, ErrQueuedTooLong) {
			return nil, fmt.Errorf("%w: no execution slots within the session timeout", ErrQueuedTooLong)
		}
		return nil, fmt.Errorf("%w: participant died while queueing", errNodeDown)
	}
	var slots int64
	for _, c := range req {
		slots += int64(c)
	}
	db.dcAdmissionWaits.Emit(obs.DCEvent{
		Node: env.initiator.name,
		A:    subclusterLabel(env.session.Subcluster), B: "slots",
		V1: int64(time.Since(start)), V2: slots,
	})
	return func() { db.slots.release(req) }, nil
}

// batchBytes estimates the wire size of a batch for transfer cost
// modeling.
func batchBytes(b *types.Batch) int64 {
	if b == nil {
		return 0
	}
	var total int64
	for _, c := range b.Cols {
		switch c.Typ.Physical() {
		case types.Varchar:
			for _, s := range c.Strs {
				total += int64(len(s)) + 4
			}
		case types.Bool:
			total += int64(c.Len())
		default:
			total += int64(c.Len()) * 8
		}
	}
	return total
}
