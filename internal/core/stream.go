package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"eon/internal/catalog"
	"eon/internal/exec"
	"eon/internal/expr"
	"eon/internal/netsim"
	"eon/internal/obs"
	"eon/internal/planner"
	"eon/internal/types"
)

// This file is the distributed executor behind Session.Query. It builds
// one pull-based operator pipeline per node and connects fragments with
// small bounded channels, so scan, operator and inter-node transfer
// work overlap and the memory in flight per edge is a few batches rather
// than a stage's full output.
//
// Cross-goroutine edges (scan fragments, gathers, reshuffles,
// broadcasts) are chanOp/mchanOp instances: a driver goroutine drains
// the upstream chain and pushes batches through a channel of depth
// streamDepth, giving natural backpressure. Every driver select-waits on
// the per-query stream context, so cancellation — a session timeout, a
// node failure, or the top-level LIMIT stopping its pull early — tears
// the whole pipeline down promptly: drivers blocked in a channel send or
// inside a scan or network transfer observe ctx.Done and exit, and
// shutdown waits for them all before the query returns.
//
// Row order is deterministic on a single node: gathers concatenate
// per-node streams in sorted node order, and the pipeline breakers
// (sort, hash aggregate) either never spill (no budget) — in which case
// their output order is exactly the in-memory one — or degrade as
// documented in their own packages. The row/vectorized engine
// differential (TestVectorizedEngineMatchesRowEngineSingleNode) compares
// single-node results positionally and relies on this.
//
// The per-query memory governor (Session.MemoryBudget, defaulted from
// Config.QueryMemoryBudget) is threaded into every pipeline breaker:
// one exec.MemGovernor per participating node accounts the bytes hash
// tables and sort buffers hold, mirrored into the database-wide
// "exec.mem_bytes" gauge, and when the budget is finite the breakers
// spill key-sorted runs to the node's local disk (exec.FSSpill under
// spill/q<id>/) instead of exceeding it.

// streamDepth is the batch capacity of every cross-goroutine edge: deep
// enough to overlap producer and consumer, shallow enough that an edge
// holds only a few batches.
const streamDepth = 2

// streamResult is a plan node's output while the pipeline is being
// built: a per-node set of operator chains still distributed across the
// cluster, a single initiator-side stream, or a shared once-materialized
// copy (replicated scans and broadcast sides, which several consumers
// replay).
type streamResult struct {
	perNode map[string]exec.Operator
	single  exec.Operator
	shared  *sharedBatches
	// replicated marks the result as a full copy logically available on
	// every node.
	replicated bool
	// needGlobalDistinct defers duplicate elimination to gather time.
	needGlobalDistinct bool
	// exchanged marks per-node streams that pull from a reshuffle exchange
	// somewhere below: a node that stopped pulling its stream would stall
	// the exchange for every other node (see exec.HashJoin.Exchanged).
	exchanged bool
	schema    types.Schema
	// sp is the producing plan node's span; consumers count the rows
	// they pull from this result as its rows-out.
	sp *obs.Span
}

// gathered reports whether the result already lives on the initiator.
func (r *streamResult) gathered() bool { return r.perNode == nil }

// op returns an initiator-side operator over a gathered result. Shared
// results get a fresh replay per call, so a broadcast side can feed
// every per-node join.
func (r *streamResult) op() exec.Operator {
	if r.shared != nil {
		sh := r.shared
		schema := r.schema
		return &lazyOp{schema: schema, build: func() (exec.Operator, error) {
			batches, err := sh.get()
			if err != nil {
				return nil, err
			}
			return exec.NewSource(schema, batches...), nil
		}}
	}
	return r.single
}

// sharedBatches materializes one stream exactly once, for results with
// several consumers. The first consumer to pull runs the drain; the
// rest block on the once and then replay the batches.
type sharedBatches struct {
	once    sync.Once
	run     func() ([]*types.Batch, error)
	batches []*types.Batch
	err     error
}

func (s *sharedBatches) get() ([]*types.Batch, error) {
	s.once.Do(func() { s.batches, s.err = s.run() })
	return s.batches, s.err
}

// lazyOp defers building its inner operator until the first pull (the
// inner build may block, e.g. on a shared materialization).
type lazyOp struct {
	schema types.Schema
	build  func() (exec.Operator, error)
	op     exec.Operator
	err    error
}

func (l *lazyOp) Schema() types.Schema { return l.schema }

func (l *lazyOp) Next() (*types.Batch, error) {
	if l.err != nil {
		return nil, l.err
	}
	if l.op == nil {
		l.op, l.err = l.build()
		if l.err != nil {
			return nil, l.err
		}
	}
	return l.op.Next()
}

// spanCount attributes the batches flowing across a plan-node edge:
// rows leaving the child (out on its span) are rows entering the
// consumer (in on its span).
type spanCount struct {
	op      exec.Operator
	out, in *obs.Span
}

func (c *spanCount) Schema() types.Schema { return c.op.Schema() }

func (c *spanCount) Next() (*types.Batch, error) {
	b, err := c.op.Next()
	if b != nil {
		n := int64(b.NumRows())
		c.out.AddRowsOut(n)
		c.in.AddRowsIn(n)
	}
	return b, err
}

// edge wraps op with flow accounting between the producing node's span
// and the consuming node's span (no-op wrapper elided when tracing is
// off).
func edge(op exec.Operator, out, in *obs.Span) exec.Operator {
	if out == nil && in == nil {
		return op
	}
	return &spanCount{op: op, out: out, in: in}
}

// chanOp bridges one producer goroutine to one consumer as an Operator.
// The driver is started lazily on the first pull (begin), pushes batches
// through a bounded channel, and reports its terminal error through
// errc; both sides select on the stream context so cancellation unblocks
// them.
type chanOp struct {
	schema types.Schema
	ctx    context.Context
	ch     chan *types.Batch
	errc   chan error
	begin  func()

	started bool // consumer-side only
	done    bool
}

func newChanOp(ctx context.Context, schema types.Schema) *chanOp {
	return &chanOp{
		schema: schema, ctx: ctx,
		ch:   make(chan *types.Batch, streamDepth),
		errc: make(chan error, 1),
	}
}

// Schema implements Operator.
func (c *chanOp) Schema() types.Schema { return c.schema }

// push hands one batch to the consumer, honoring cancellation.
func (c *chanOp) push(b *types.Batch) error {
	select {
	case c.ch <- b:
		return nil
	case <-c.ctx.Done():
		return c.ctx.Err()
	}
}

// finish terminates the stream. A non-nil err reaches the consumer no
// later than the channel close.
func (c *chanOp) finish(err error) {
	if err != nil {
		c.errc <- err
	}
	close(c.ch)
}

// ensureStarted fires the driver once (consumer goroutine only).
func (c *chanOp) ensureStarted() {
	if !c.started {
		c.started = true
		if c.begin != nil {
			c.begin()
		}
	}
}

// Next implements Operator.
func (c *chanOp) Next() (*types.Batch, error) {
	if c.done {
		return nil, nil
	}
	c.ensureStarted()
	select {
	case b, ok := <-c.ch:
		if !ok {
			c.done = true
			select {
			case err := <-c.errc:
				return nil, err
			default:
				return nil, nil
			}
		}
		return b, nil
	case err := <-c.errc:
		c.done = true
		return nil, err
	case <-c.ctx.Done():
		c.done = true
		return nil, c.ctx.Err()
	}
}

// mchanOp is a chanOp with several producers (the reshuffle exchange):
// the stream ends when every producer has finished, and the first error
// wins.
type mchanOp struct {
	schema    types.Schema
	ctx       context.Context
	ch        chan *types.Batch
	errc      chan error
	begin     func()
	mu        sync.Mutex
	remaining int

	started bool // consumer-side only
	done    bool
}

func newMchanOp(ctx context.Context, schema types.Schema, producers int) *mchanOp {
	return &mchanOp{
		schema: schema, ctx: ctx,
		ch:        make(chan *types.Batch, streamDepth),
		errc:      make(chan error, 1),
		remaining: producers,
	}
}

// Schema implements Operator.
func (m *mchanOp) Schema() types.Schema { return m.schema }

func (m *mchanOp) push(b *types.Batch) error {
	select {
	case m.ch <- b:
		return nil
	case <-m.ctx.Done():
		return m.ctx.Err()
	}
}

// finish records one producer's completion; the last one closes the
// channel.
func (m *mchanOp) finish(err error) {
	if err != nil {
		select {
		case m.errc <- err:
		default:
		}
	}
	m.mu.Lock()
	m.remaining--
	last := m.remaining == 0
	m.mu.Unlock()
	if last {
		close(m.ch)
	}
}

func (m *mchanOp) ensureStarted() {
	if !m.started {
		m.started = true
		if m.begin != nil {
			m.begin()
		}
	}
}

// Next implements Operator.
func (m *mchanOp) Next() (*types.Batch, error) {
	if m.done {
		return nil, nil
	}
	m.ensureStarted()
	select {
	case b, ok := <-m.ch:
		if !ok {
			m.done = true
			select {
			case err := <-m.errc:
				return nil, err
			default:
				return nil, nil
			}
		}
		return b, nil
	case err := <-m.errc:
		m.done = true
		return nil, err
	case <-m.ctx.Done():
		m.done = true
		return nil, m.ctx.Err()
	}
}

// eagerStart fires a set of drivers on the first pull, so every
// fragment of a gather executes concurrently even though the consumer
// reads their streams sequentially in node order.
type eagerStart struct {
	op      exec.Operator
	chans   []*chanOp
	started bool
}

func (e *eagerStart) Schema() types.Schema { return e.op.Schema() }

func (e *eagerStart) Next() (*types.Batch, error) {
	if !e.started {
		e.started = true
		for _, c := range e.chans {
			c.ensureStarted()
		}
	}
	return e.op.Next()
}

// streamCtx is the per-query state of the streaming executor: the
// cancellable context every edge selects on, the driver goroutines to
// wait for, the plan-node spans to close, and the per-node memory
// governors and spill stores.
type streamCtx struct {
	db     *DB
	env    *queryEnv
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	root   *obs.Span
	qid    uint64

	mu     sync.Mutex
	spans  []*obs.Span
	govs   map[string]*exec.MemGovernor
	spills map[string]*exec.FSSpill
}

func (db *DB) newStreamCtx(env *queryEnv, root *obs.Span) *streamCtx {
	ctx, cancel := context.WithCancel(env.ctx)
	return &streamCtx{
		db: db, env: env, ctx: ctx, cancel: cancel, root: root,
		qid:    db.queryCtr.Add(1),
		govs:   map[string]*exec.MemGovernor{},
		spills: map[string]*exec.FSSpill{},
	}
}

// spawn runs fn as a tracked pipeline goroutine.
func (sc *streamCtx) spawn(fn func()) {
	sc.wg.Add(1)
	go func() {
		defer sc.wg.Done()
		fn()
	}()
}

// addSpan registers a plan-node span and any children for closing at
// shutdown (all nil when tracing is off).
func (sc *streamCtx) addSpan(sps ...*obs.Span) {
	if sps[0] == nil {
		return
	}
	sc.mu.Lock()
	sc.spans = append(sc.spans, sps...)
	sc.mu.Unlock()
}

// gov returns the node's memory governor, mirroring charges into the
// database's exec.mem_bytes gauge.
func (sc *streamCtx) gov(node string) *exec.MemGovernor {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	g, ok := sc.govs[node]
	if !ok {
		g = exec.NewMemGovernor(sc.env.session.MemoryBudget, sc.db.execMem.Add)
		sc.govs[node] = g
	}
	return g
}

// spillFor returns the node's spill store (its local disk under a
// per-query prefix), or nil when no finite budget is set — breakers
// without a store never spill.
func (sc *streamCtx) spillFor(node string) exec.SpillStore {
	if sc.env.session.MemoryBudget <= 0 {
		return nil
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	s, ok := sc.spills[node]
	if !ok {
		n, okn := sc.db.Node(node)
		if !okn {
			return nil
		}
		s = exec.NewFSSpill(sc.ctx, n.fs, fmt.Sprintf("spill/q%d", sc.qid))
		sc.spills[node] = s
	}
	return s
}

// shutdown tears the pipeline down: cancel unblocks every driver, wait
// for them, close the plan-node spans, then fold the governors into the
// query's ExecStats (published on the session, the root span and the
// database's exec metrics) and remove the spill files.
func (sc *streamCtx) shutdown() {
	sc.cancel()
	sc.wg.Wait()
	for i := len(sc.spans) - 1; i >= 0; i-- {
		sc.spans[i].End()
	}
	var st ExecStats
	for _, g := range sc.govs {
		if p := g.Peak(); p > st.PeakMemBytes {
			st.PeakMemBytes = p
		}
		st.SpillCount += g.Spills()
		st.SpillBytes += g.SpillBytes()
		g.Close()
	}
	db := sc.db
	db.execPeak.Observe(st.PeakMemBytes)
	db.execSpills.Add(st.SpillCount)
	db.execSpillBytes.Add(st.SpillBytes)
	if st.SpillCount > 0 {
		db.dcSpills.Emit(obs.DCEvent{
			Node: sc.env.initiator.name,
			V1:   st.PeakMemBytes, V2: st.SpillCount, V3: st.SpillBytes,
		})
	}
	sc.root.AddAttr("peak_mem_bytes", st.PeakMemBytes)
	sc.root.AddAttr("spills", st.SpillCount)
	sc.root.AddAttr("spill_bytes", st.SpillBytes)
	s := sc.env.session
	s.statsMu.Lock()
	s.lastExec = st
	s.statsMu.Unlock()
	// Spill cleanup runs under its own context: the query's is canceled.
	for _, sp := range sc.spills {
		_ = sp.Cleanup(context.Background())
	}
}

// runStreaming executes a plan through the streaming engine and drains
// the top of the pipeline into the final result batch.
func (db *DB) runStreaming(env *queryEnv, plan *planner.Plan, root *obs.Span) (*types.Batch, error) {
	sc := db.newStreamCtx(env, root)
	defer sc.shutdown()
	res, err := sc.build(plan.Root, root)
	if err != nil {
		return nil, err
	}
	gatherSp := root.StartSpan("gather")
	defer gatherSp.End()
	top := sc.gatherTo(res, gatherSp)
	final := types.NewBatch(res.schema, 0)
	for {
		b, err := top.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		final.AppendBatch(b)
	}
	gatherSp.AddRowsOut(int64(final.NumRows()))
	return final, nil
}

// sortedNames returns a result's node names in the deterministic gather
// order.
func sortedNames(perNode map[string]exec.Operator) []string {
	names := make([]string, 0, len(perNode))
	for n := range perNode {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// gatherTo returns an initiator-side operator over a distributed
// result. One driver per source node drains that node's chain and
// streams its batches toward the initiator — non-initiator nodes pay a
// chunked network stream per batch, overlapping transfer with upstream
// compute — while the consumer concatenates the per-node streams in
// sorted node order (so a single-node run's row order is deterministic)
// and applies any pending global distinct. All drivers start on the first
// pull, so fragments run concurrently.
func (sc *streamCtx) gatherTo(res *streamResult, consumer *obs.Span) exec.Operator {
	if res.gathered() {
		return edge(res.op(), res.sp, consumer)
	}
	env, db := sc.env, sc.db
	names := sortedNames(res.perNode)
	parts := make([]exec.Operator, len(names))
	chans := make([]*chanOp, len(names))
	for i, name := range names {
		name, nodeOp := name, res.perNode[name]
		ch := newChanOp(sc.ctx, res.schema)
		ch.begin = func() {
			sc.spawn(func() {
				n, ok := db.Node(name)
				if !ok || !n.Up() {
					ch.finish(fmt.Errorf("%w: %s", errNodeDown, name))
					return
				}
				var stream *netsim.Stream
				if name != env.initiator.name {
					stream = db.net.Stream(name, env.initiator.name)
				}
				err := func() error {
					for {
						b, err := nodeOp.Next()
						if err != nil {
							return err
						}
						if b == nil {
							return nil
						}
						if b.NumRows() == 0 {
							continue
						}
						if stream != nil {
							if err := stream.Send(sc.ctx, batchBytes(b)); err != nil {
								return fmt.Errorf("%w: gather from %s: %v", errNodeDown, name, err)
							}
						}
						if err := ch.push(b); err != nil {
							return err
						}
					}
				}()
				ch.finish(err)
			})
		}
		chans[i] = ch
		parts[i] = ch
	}
	var combined exec.Operator = &eagerStart{op: exec.NewUnionAll(parts...), chans: chans}
	combined = edge(combined, res.sp, consumer)
	if res.needGlobalDistinct {
		d := exec.NewDistinct(combined)
		d.Eng = env.eng()
		combined = d
	}
	return combined
}

// spanName labels a plan node's operator span.
func spanName(node planner.Node) string {
	switch n := node.(type) {
	case *planner.Scan:
		return "scan:" + n.Table.Name
	case *planner.Filter:
		return "filter"
	case *planner.Project:
		return "project"
	case *planner.Join:
		return "join"
	case *planner.Aggregate:
		return "aggregate"
	case *planner.DistinctNode:
		return "distinct"
	case *planner.Sort:
		return "sort"
	case *planner.Limit:
		return "limit"
	}
	return fmt.Sprintf("%T", node)
}

// wrap returns b as a one-batch slice, or nil for a nil batch.
func wrap(b *types.Batch) []*types.Batch {
	if b == nil {
		return nil
	}
	return []*types.Batch{b}
}

// build recursively translates a plan node into a streaming result. The
// plan-node span stays open while the pipeline runs (operators execute
// lazily under it) and closes at shutdown.
func (sc *streamCtx) build(node planner.Node, parent *obs.Span) (*streamResult, error) {
	sp := parent.StartSpan(spanName(node))
	sc.addSpan(sp)
	switch n := node.(type) {
	case *planner.Scan:
		return sc.buildScan(n, sp)
	case *planner.Filter:
		return sc.buildFilter(n, sp)
	case *planner.Project:
		return sc.buildProject(n, sp)
	case *planner.Join:
		return sc.buildJoin(n, sp)
	case *planner.Aggregate:
		return sc.buildAggregate(n, sp)
	case *planner.DistinctNode:
		return sc.buildDistinct(n, sp)
	case *planner.Sort:
		return sc.buildSort(n, sp)
	case *planner.Limit:
		return sc.buildLimit(n, sp)
	}
	return nil, fmt.Errorf("core: unknown plan node %T", node)
}

// mapResult wraps every stream of a result with a per-node operator
// stage, preserving its distribution. apply receives the executing
// node's name so stages can attach that node's governor.
func (sc *streamCtx) mapResult(in *streamResult, schema types.Schema, sp *obs.Span, apply func(node string, op exec.Operator) exec.Operator) *streamResult {
	out := &streamResult{
		schema: schema, sp: sp,
		replicated:         in.replicated,
		needGlobalDistinct: in.needGlobalDistinct,
		exchanged:          in.exchanged,
	}
	initiator := sc.env.initiator.name
	switch {
	case in.shared != nil:
		out.shared = &sharedBatches{run: func() ([]*types.Batch, error) {
			b, err := exec.Collect(apply(initiator, in.op()))
			if err != nil {
				return nil, err
			}
			return wrap(b), nil
		}}
	case in.gathered():
		out.single = apply(initiator, in.single)
	default:
		out.perNode = map[string]exec.Operator{}
		for name, op := range in.perNode {
			out.perNode[name] = apply(name, op)
		}
	}
	return out
}

// scanOp returns the streaming scan of one node's fragment: a driver
// goroutine runs the scan pipeline (fetch, decode, filter) and feeds
// surviving batches through the edge channel, so downstream operators
// consume rows while later containers are still being fetched, and a
// canceled query stops the scan mid-container. The driver starts on the
// first pull, but the fragment is planned here, while the pipeline is
// built: its shared-storage reads go out at once — a join's second side
// and a replicated dimension fetch while the first side is being read.
func (sc *streamCtx) scanOp(n *Node, scan *planner.Scan, tasks []scanTask, mode CrunchMode, sp *obs.Span) exec.Operator {
	ch := newChanOp(sc.ctx, scan.OutSchema)
	fragSp := sp.StartSpan("fragment:" + n.name)
	ctx := obs.WithSpan(sc.ctx, fragSp)
	fs := sc.env.fragment(sc.db, n, scan, tasks, mode)
	err := fs.plan(ctx)
	// A fragment that is never pulled still ends its spans and its fetcher.
	sc.addSpan(fragSp, fs.sps.fetch, fs.sps.decode, fs.sps.filter)
	if fs.pre != nil {
		sc.spawn(fs.pre.Wait)
	}
	ch.begin = func() {
		sc.spawn(func() {
			defer fragSp.End()
			if err == nil && !n.Up() {
				err = fmt.Errorf("%w: %s", errNodeDown, n.name)
			}
			if err == nil {
				err = fs.run(ctx, ch.push)
			}
			ch.finish(err)
		})
	}
	return ch
}

func (sc *streamCtx) buildScan(scan *planner.Scan, sp *obs.Span) (*streamResult, error) {
	env := sc.env
	if scan.Virtual {
		// System-table scan: materialize the virtual table on the
		// initiator from live monitoring state (its Fill takes a snapshot
		// cut; no storage, no hot-path locks), then flow it like any
		// replicated source.
		db := sc.db
		res := &streamResult{replicated: true, schema: scan.OutSchema, sp: sp}
		res.shared = &sharedBatches{run: func() ([]*types.Batch, error) {
			fillSp := sp.StartSpan("fill:" + scan.Table.Name)
			b, err := db.materializeVirtual(scan, env.session.RowEngine, env.stats)
			if err != nil {
				fillSp.End()
				return nil, err
			}
			fillSp.AddRowsOut(int64(b.NumRows()))
			fillSp.End()
			return wrap(b), nil
		}}
		return res, nil
	}
	if scan.Replicated {
		// Replicated projections are read once — preferentially on the
		// initiator — and replayed by every consumer.
		op := sc.scanOp(env.initiator, scan, []scanTask{{Shard: catalog.ReplicaShard, Of: 1}}, CrunchOff, sp)
		res := &streamResult{replicated: true, schema: scan.OutSchema, sp: sp}
		res.shared = &sharedBatches{run: func() ([]*types.Batch, error) {
			b, err := exec.Collect(edge(op, sp, nil))
			if err != nil {
				return nil, err
			}
			return wrap(b), nil
		}}
		return res, nil
	}
	res := &streamResult{perNode: map[string]exec.Operator{}, schema: scan.OutSchema, sp: sp}
	for _, name := range env.nodes {
		tasks := env.nodeTasks(name)
		if len(tasks) == 0 {
			continue
		}
		n, ok := sc.db.Node(name)
		if !ok || !n.Up() {
			return nil, fmt.Errorf("%w: %s", errNodeDown, name)
		}
		res.perNode[name] = sc.scanOp(n, scan, tasks, env.session.Crunch, sp)
	}
	return res, nil
}

func (sc *streamCtx) buildFilter(f *planner.Filter, sp *obs.Span) (*streamResult, error) {
	in, err := sc.build(f.Input, sp)
	if err != nil {
		return nil, err
	}
	eng := sc.env.eng()
	return sc.mapResult(in, f.Schema(), sp, func(_ string, op exec.Operator) exec.Operator {
		fl := exec.NewFilter(edge(op, in.sp, sp), f.Pred)
		fl.Eng = eng
		return fl
	}), nil
}

func (sc *streamCtx) buildProject(p *planner.Project, sp *obs.Span) (*streamResult, error) {
	in, err := sc.build(p.Input, sp)
	if err != nil {
		return nil, err
	}
	eng := sc.env.eng()
	return sc.mapResult(in, p.Schema(), sp, func(_ string, op exec.Operator) exec.Operator {
		pr := exec.NewProject(edge(op, in.sp, sp), p.Exprs, p.Names)
		pr.Eng = eng
		return pr
	}), nil
}

// broadcast gathers a result on the initiator and ships every batch to
// each other participant over a per-peer chunked stream as it arrives,
// overlapping transfer with the upstream pipeline. The returned result
// is replicated (a shared cell every per-node join replays).
func (sc *streamCtx) broadcast(res *streamResult, sp *obs.Span) *streamResult {
	env, db := sc.env, sc.db
	out := &streamResult{replicated: true, schema: res.schema, sp: res.sp}
	out.shared = &sharedBatches{run: func() ([]*types.Batch, error) {
		src := sc.gatherTo(res, sp)
		var peers []string
		for _, name := range env.nodes {
			if name != env.initiator.name {
				peers = append(peers, name)
			}
		}
		streams := make([]*netsim.Stream, len(peers))
		for i, p := range peers {
			streams[i] = db.net.Stream(env.initiator.name, p)
		}
		var batches []*types.Batch
		for {
			b, err := src.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return batches, nil
			}
			if b.NumRows() == 0 {
				continue
			}
			size := batchBytes(b)
			for i, p := range peers {
				if err := streams[i].Send(sc.ctx, size); err != nil {
					return nil, fmt.Errorf("%w: broadcast to %s: %v", errNodeDown, p, err)
				}
			}
			batches = append(batches, b)
		}
	}}
	return out
}

// exchange repartitions a result across the participating nodes by key
// hash: one driver per source node drains its stream, splits each batch
// by hash, and forwards every partition to its target — remote parts
// over a chunked per-link stream — so repartitioned rows reach the
// consuming joins batch by batch instead of materializing per stage.
func (sc *streamCtx) exchange(res *streamResult, schema types.Schema, keys []int) map[string]exec.Operator {
	env, db := sc.env, sc.db
	targets := env.nodes
	nParts := len(targets)

	type source struct {
		name string
		op   exec.Operator
	}
	var sources []source
	if res.gathered() {
		sources = append(sources, source{env.initiator.name, res.op()})
	} else {
		for _, name := range sortedNames(res.perNode) {
			sources = append(sources, source{name, res.perNode[name]})
		}
	}

	outs := make(map[string]*mchanOp, nParts)
	for _, t := range targets {
		outs[t] = newMchanOp(sc.ctx, schema, len(sources))
	}
	// All sources start when any target is first pulled, and every
	// target's consumer runs in its own gather driver. That is not enough
	// to rule out a stall: a node whose join stops pulling its exchange
	// edge (for instance, blocked on a full gather edge the initiator
	// is not reading yet) fills that edge, the source drivers block on
	// it, and every other node starves. `… FROM b JOIN a ON a.k = b.k`
	// with 600 and 60 single-row inserts reproduces it (ROADMAP,
	// correctness debt (1)).
	var startOnce sync.Once
	start := func() {
		startOnce.Do(func() {
			for _, src := range sources {
				src := src
				sc.spawn(func() {
					err := func() error {
						streams := map[string]*netsim.Stream{}
						for {
							b, err := src.op.Next()
							if err != nil {
								return err
							}
							if b == nil {
								return nil
							}
							if b.NumRows() == 0 {
								continue
							}
							parts := exec.PartitionByHash(b, keys, nParts)
							for pi, part := range parts {
								if part == nil || part.NumRows() == 0 {
									continue
								}
								target := targets[pi]
								if target != src.name {
									st := streams[target]
									if st == nil {
										st = db.net.Stream(src.name, target)
										streams[target] = st
									}
									if err := st.Send(sc.ctx, batchBytes(part)); err != nil {
										return fmt.Errorf("%w: reshuffle %s->%s: %v", errNodeDown, src.name, target, err)
									}
								}
								if err := outs[target].push(part); err != nil {
									return err
								}
							}
						}
					}()
					for _, t := range targets {
						outs[t].finish(err)
					}
				})
			}
		})
	}
	ops := make(map[string]exec.Operator, nParts)
	for _, t := range targets {
		m := outs[t]
		m.begin = start
		ops[t] = m
	}
	return ops
}

func (sc *streamCtx) buildJoin(j *planner.Join, sp *obs.Span) (*streamResult, error) {
	env := sc.env
	left, err := sc.build(j.Left, sp)
	if err != nil {
		return nil, err
	}
	right, err := sc.build(j.Right, sp)
	if err != nil {
		return nil, err
	}
	eng := env.eng()
	var onInitiator [2]bool

	// joinOn builds one node's join: what it holds is charged to that
	// node's governor. exchanged says which inputs are per-node streams
	// over a reshuffle; a join on the initiator is the one consumer of
	// whatever it gathers, so there it is onInitiator.
	joinOn := func(node string, lop, rop exec.Operator, exchanged [2]bool) exec.Operator {
		op := exec.NewHashJoin(lop, rop, j.LeftKeys, j.RightKeys)
		op.Eng = eng
		op.Mem = sc.gov(node)
		op.Span = sp
		op.Exchanged = exchanged
		var post exec.Operator = op
		if j.ResidualPred != nil {
			f := exec.NewFilter(op, j.ResidualPred)
			f.Eng = eng
			post = f
		}
		return post
	}

	// Both sides already on the initiator: local join there. A join of
	// two replicated sides stays replicated (shared, multi-consumer).
	if left.gathered() && right.gathered() {
		mk := func() exec.Operator {
			return joinOn(env.initiator.name, edge(left.op(), left.sp, sp), edge(right.op(), right.sp, sp), onInitiator)
		}
		if left.replicated && right.replicated {
			res := &streamResult{replicated: true, schema: j.Schema(), sp: sp}
			res.shared = &sharedBatches{run: func() ([]*types.Batch, error) {
				b, err := exec.Collect(mk())
				if err != nil {
					return nil, err
				}
				return wrap(b), nil
			}}
			return res, nil
		}
		return &streamResult{single: mk(), schema: j.Schema(), sp: sp}, nil
	}

	switch j.Strategy {
	case planner.JoinBroadcastRight:
		right = sc.broadcast(right, sp)
		fallthrough

	case planner.JoinLocal:
		local := [2]bool{left.exchanged, right.exchanged}
		if right.gathered() && right.replicated {
			// Join each left fragment against the full right copy.
			if left.gathered() {
				return &streamResult{
					single: joinOn(env.initiator.name, edge(left.op(), left.sp, sp), edge(right.op(), right.sp, sp), onInitiator),
					schema: j.Schema(), sp: sp,
				}, nil
			}
			out := &streamResult{perNode: map[string]exec.Operator{}, exchanged: left.exchanged, schema: j.Schema(), sp: sp}
			for name, lop := range left.perNode {
				out.perNode[name] = joinOn(name, edge(lop, left.sp, sp), edge(right.op(), right.sp, sp), local)
			}
			return out, nil
		}
		if left.gathered() && left.replicated {
			out := &streamResult{perNode: map[string]exec.Operator{}, exchanged: right.exchanged, schema: j.Schema(), sp: sp}
			for name, rop := range right.perNode {
				out.perNode[name] = joinOn(name, edge(left.op(), left.sp, sp), edge(rop, right.sp, sp), local)
			}
			return out, nil
		}
		// A non-replicated gathered side (e.g. after a distinct): finish
		// the join on the initiator.
		if left.gathered() || right.gathered() {
			return &streamResult{
				single: joinOn(env.initiator.name, sc.gatherTo(left, sp), sc.gatherTo(right, sp), onInitiator),
				schema: j.Schema(), sp: sp,
			}, nil
		}
		names := map[string]bool{}
		for name := range left.perNode {
			names[name] = true
		}
		for name := range right.perNode {
			names[name] = true
		}
		out := &streamResult{
			perNode: map[string]exec.Operator{}, exchanged: left.exchanged || right.exchanged,
			schema: j.Schema(), sp: sp,
		}
		for name := range names {
			lop, rop := left.perNode[name], right.perNode[name]
			if lop == nil {
				lop = exec.NewSource(j.Left.Schema())
			}
			if rop == nil {
				rop = exec.NewSource(j.Right.Schema())
			}
			out.perNode[name] = joinOn(name, edge(lop, left.sp, sp), edge(rop, right.sp, sp), local)
		}
		return out, nil

	case planner.JoinReshuffleBoth:
		lsh := sc.exchange(left, j.Left.Schema(), j.LeftKeys)
		rsh := sc.exchange(right, j.Right.Schema(), j.RightKeys)
		out := &streamResult{perNode: map[string]exec.Operator{}, exchanged: true, schema: j.Schema(), sp: sp}
		for _, name := range env.nodes {
			out.perNode[name] = joinOn(name, edge(lsh[name], left.sp, sp), edge(rsh[name], right.sp, sp), [2]bool{true, true})
		}
		return out, nil
	}
	return nil, fmt.Errorf("core: unknown join strategy %v", j.Strategy)
}

func (sc *streamCtx) buildAggregate(a *planner.Aggregate, sp *obs.Span) (*streamResult, error) {
	env := sc.env
	in, err := sc.build(a.Input, sp)
	if err != nil {
		return nil, err
	}
	inSchema := a.Input.Schema()
	eng := env.eng()

	// aggOn builds one node's aggregation, budget-governed with the
	// node's local disk as its spill store.
	aggOn := func(node string, op exec.Operator, partial bool) exec.Operator {
		h := exec.NewHashAggregate(op, a.Keys, a.KeyNames, a.Aggs, partial)
		h.Eng = eng
		h.Mem = sc.gov(node)
		h.Spill = sc.spillFor(node)
		h.Span = sp
		return h
	}

	// Gathered or replicated input: aggregate once on the initiator.
	if in.gathered() {
		return &streamResult{
			single: aggOn(env.initiator.name, edge(in.op(), in.sp, sp), false),
			schema: a.Schema(), sp: sp,
		}, nil
	}

	switch a.Mode {
	case planner.AggLocalFinal:
		// Per-node groups are disjoint; aggregate fully locally (§4).
		out := &streamResult{perNode: map[string]exec.Operator{}, schema: a.Schema(), sp: sp}
		for name, op := range in.perNode {
			out.perNode[name] = aggOn(name, edge(op, in.sp, sp), false)
		}
		return out, nil

	case planner.AggInitiatorOnly:
		return &streamResult{
			single: aggOn(env.initiator.name, sc.gatherTo(in, sp), false),
			schema: a.Schema(), sp: sp,
		}, nil

	case planner.AggTwoPhase:
		// Phase 1 per node; the partial streams gather into the phase-2
		// merge on the initiator without materializing in between.
		partialSchema := exec.NewHashAggregate(exec.NewSource(inSchema), a.Keys, a.KeyNames, a.Aggs, true).Schema()
		mid := &streamResult{perNode: map[string]exec.Operator{}, schema: partialSchema}
		for name, op := range in.perNode {
			mid.perNode[name] = aggOn(name, edge(op, in.sp, sp), true)
		}
		mergeKeys, mergeAggs, err := mergeDefs(a, partialSchema)
		if err != nil {
			return nil, err
		}
		h := exec.NewHashAggregate(sc.gatherTo(mid, sp), mergeKeys, a.KeyNames, mergeAggs, false)
		h.Eng = eng
		h.Mem = sc.gov(env.initiator.name)
		h.Spill = sc.spillFor(env.initiator.name)
		h.Span = sp
		return &streamResult{single: h, schema: a.Schema(), sp: sp}, nil
	}
	return nil, fmt.Errorf("core: unknown aggregate mode %v", a.Mode)
}

// mergeDefs builds the phase-2 key and aggregate definitions over the
// partial output schema.
func mergeDefs(a *planner.Aggregate, partialSchema types.Schema) ([]expr.Expr, []exec.AggDef, error) {
	var keys []expr.Expr
	for _, kn := range a.KeyNames {
		c := expr.Col(kn)
		if err := expr.Bind(c, partialSchema); err != nil {
			return nil, nil, err
		}
		keys = append(keys, c)
	}
	var defs []exec.AggDef
	for _, d := range a.Aggs {
		ref := expr.Col(d.Name)
		if err := expr.Bind(ref, partialSchema); err != nil {
			return nil, nil, err
		}
		md := exec.AggDef{Name: d.Name, Arg: ref}
		switch d.Kind {
		case exec.AggCountStar, exec.AggCount, exec.AggCountMerge:
			md.Kind = exec.AggCountMerge
		case exec.AggSum:
			md.Kind = exec.AggSum
		case exec.AggMin:
			md.Kind = exec.AggMin
		case exec.AggMax:
			md.Kind = exec.AggMax
		case exec.AggAvg, exec.AggAvgMerge:
			md.Kind = exec.AggAvgMerge
			cnt := expr.Col(d.Name + "_cnt")
			if err := expr.Bind(cnt, partialSchema); err != nil {
				return nil, nil, err
			}
			md.ArgCount = cnt
		default:
			return nil, nil, fmt.Errorf("core: cannot merge aggregate kind %d", d.Kind)
		}
		defs = append(defs, md)
	}
	return keys, defs, nil
}

func (sc *streamCtx) buildDistinct(d *planner.DistinctNode, sp *obs.Span) (*streamResult, error) {
	in, err := sc.build(d.Input, sp)
	if err != nil {
		return nil, err
	}
	eng := sc.env.eng()
	out := sc.mapResult(in, d.Schema(), sp, func(_ string, op exec.Operator) exec.Operator {
		dd := exec.NewDistinct(edge(op, in.sp, sp))
		dd.Eng = eng
		dd.Span = sp
		return dd
	})
	// Local dedupe per node; the global pass happens at gather.
	if !out.gathered() {
		out.needGlobalDistinct = true
	}
	return out, nil
}

// sortOn builds the initiator's budget-governed sort over a gathered
// stream.
func (sc *streamCtx) sortOn(input exec.Operator, keys []exec.SortSpec) *exec.Sort {
	op := exec.NewSort(input, keys)
	op.Mem = sc.gov(sc.env.initiator.name)
	op.Spill = sc.spillFor(sc.env.initiator.name)
	return op
}

func (sc *streamCtx) buildSort(s *planner.Sort, sp *obs.Span) (*streamResult, error) {
	in, err := sc.build(s.Input, sp)
	if err != nil {
		return nil, err
	}
	return &streamResult{
		single: sc.sortOn(sc.gatherTo(in, sp), s.Keys),
		schema: s.Schema(), sp: sp,
	}, nil
}

func (sc *streamCtx) buildLimit(l *planner.Limit, sp *obs.Span) (*streamResult, error) {
	// Sort child: push a local top-k below the gather (dashboard top-k
	// pattern), then re-sort the k-per-node survivors on the initiator.
	if srt, ok := l.Input.(*planner.Sort); ok {
		in, err := sc.build(srt.Input, sp)
		if err != nil {
			return nil, err
		}
		res := in
		if !in.gathered() {
			res = sc.mapResult(in, srt.Schema(), sp, func(_ string, op exec.Operator) exec.Operator {
				return exec.NewTopK(edge(op, in.sp, sp), srt.Keys, int(l.N))
			})
		}
		return &streamResult{
			single: exec.NewLimit(sc.sortOn(sc.gatherTo(res, sp), srt.Keys), l.N),
			schema: l.Schema(), sp: sp,
		}, nil
	}
	in, err := sc.build(l.Input, sp)
	if err != nil {
		return nil, err
	}
	if in.gathered() {
		return &streamResult{
			single: exec.NewLimit(edge(in.op(), in.sp, sp), l.N),
			schema: l.Schema(), sp: sp,
		}, nil
	}
	// No ORDER BY: each fragment can contribute at most N rows, so cap
	// every node's stream below the gather — bounding both the rows
	// shipped and, through pipeline backpressure, how much of each scan
	// runs before the query's own limit stops pulling. (Safe under a
	// pending global distinct: per-node streams are locally distinct, so
	// the first N output rows draw from at most the first N rows of each
	// node's stream.)
	capped := sc.mapResult(in, l.Schema(), sp, func(_ string, op exec.Operator) exec.Operator {
		return exec.NewLimit(edge(op, in.sp, sp), l.N)
	})
	return &streamResult{
		single: exec.NewLimit(sc.gatherTo(capped, sp), l.N),
		schema: l.Schema(), sp: sp,
	}, nil
}
