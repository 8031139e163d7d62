package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eon/internal/catalog"
	"eon/internal/exec"
	"eon/internal/expr"
	"eon/internal/hashring"
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
// broadcasts) are pipes: a driver goroutine drains the upstream chain
// and pushes batches through a channel of depth streamDepth, giving
// natural backpressure. The executor's state lives on the query's
// queryEnv, and every driver select-waits on its context once run has
// made it cancellable, so cancellation — a session timeout, a
// node failure, or the top-level LIMIT stopping its pull early — tears
// the whole pipeline down promptly: drivers blocked in a channel send or
// inside a scan or network transfer observe ctx.Done and exit, and
// shutdown waits for them all before the query returns.
//
// A gather reads its nodes' batches in arrival order, so no node waits
// for another to be read. Row order is still deterministic on a single
// node: there the gather has one producer, and the pipeline breakers
// (sort, hash aggregate) either never spill (no budget) — in which case
// their output order is exactly the in-memory one — or degrade as
// documented in their own packages. The row/vectorized engine
// differential (TestVectorizedEngineMatchesRowEngineSingleNode) compares
// single-node results positionally and relies on this. Across nodes,
// results are multisets.
//
// A reshuffle sends each row where the query's shard map says its key
// hash lives (queryEnv.route): the node serving the hash's shard, or the
// crunch-group member whose sub-range of the shard holds it. The scan's
// crunch hash filter keeps exactly those rows, so a reshuffle's output is
// co-located with every projection segmented on the same keys, as the
// planner assumes when it joins the two locally.
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
	// needGlobalDistinct: the per-node streams are each distinct but may
	// share rows, so the gather deduplicates their union.
	needGlobalDistinct bool
	// exchanged marks per-node streams that pull from a reshuffle exchange
	// somewhere below: a node that stopped pulling its stream would stall
	// the exchange for every other node (see exec.HashJoin.Exchanged).
	exchanged bool
	// est estimates the rows over all its streams (one copy if
	// replicated), by which a join above picks its build side; only a
	// join calls it, and nil (a system table) reads as 0.
	est    func() float64
	schema types.Schema
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
		c.Count(int64(b.NumRows()))
	}
	return b, err
}

// Counted and Count make c an exec.Counter, which a groupjoin reads
// through and tells the rows that would have passed.
func (c *spanCount) Counted() exec.Operator { return c.op }

func (c *spanCount) Count(n int64) {
	c.out.AddRowsOut(n)
	c.in.AddRowsIn(n)
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

// pipe is the one cross-goroutine edge: it bridges producers — one
// driver for a scan fragment, one per source node for a gather or a
// reshuffle — to one consumer as an Operator. The drivers start lazily on
// the first pull (begin) and push batches through a channel of depth
// streamDepth; the stream ends when every producer has finished, and the
// first error wins. Both sides select on the query context, so
// cancellation unblocks them. A lending pipe's batches are lent from a
// node's free list: each goes back when the consumer pulls again
// (exec.Operator), and shutdown gives back what is left.
type pipe struct {
	schema    types.Schema
	ctx       context.Context
	ch        chan *types.Batch
	errc      chan error
	begin     func()
	remaining atomic.Int32

	started bool // consumer-side only
	done    bool

	from     *Node        // whose free list lends the batches; nil: not lent
	lent     *types.Batch // consumer-side: the batch last returned
	nextLend *pipe        // the query's lending pipes (queryEnv.lending)
}

func newPipe(ctx context.Context, schema types.Schema, producers int) *pipe {
	p := &pipe{
		schema: schema, ctx: ctx,
		ch:   make(chan *types.Batch, streamDepth),
		errc: make(chan error, 1),
	}
	p.remaining.Store(int32(producers))
	if producers == 0 {
		close(p.ch)
	}
	return p
}

// lendingPipe returns a pipe whose batches are lent from n's free list.
func (env *queryEnv) lendingPipe(schema types.Schema, producers int, n *Node) *pipe {
	p := newPipe(env.ctx, schema, producers)
	p.from = n
	env.mu.Lock()
	p.nextLend, env.lending = env.lending, p
	env.mu.Unlock()
	return p
}

// Schema implements Operator.
func (p *pipe) Schema() types.Schema { return p.schema }

// lend pushes b, whose vectors are from p.from's free list and no one
// else's.
func (p *pipe) lend(b *types.Batch) error {
	p.from.lent.Add(int64(len(b.Cols)))
	if err := p.push(b); err != nil {
		p.from.giveBack(b)
		return err
	}
	return nil
}

// release gives back the batch the consumer pulled last, if lent.
func (p *pipe) release() {
	if p.lent != nil {
		p.from.giveBack(p.lent)
		p.lent = nil
	}
}

// reclaim gives back what a started pipe still lends once the query's
// drivers have exited, and so closed its channel.
func (p *pipe) reclaim() {
	p.release()
	for b := range p.ch {
		p.from.giveBack(b)
	}
}

// push hands one batch to the consumer, honoring cancellation.
func (p *pipe) push(b *types.Batch) error {
	select {
	case p.ch <- b:
		return nil
	case <-p.ctx.Done():
		return p.ctx.Err()
	}
}

// finish records one producer's completion; the last one closes the
// channel. A non-nil err reaches the consumer no later than the close.
func (p *pipe) finish(err error) {
	if err != nil {
		select {
		case p.errc <- err:
		default:
		}
	}
	if p.remaining.Add(-1) == 0 {
		close(p.ch)
	}
}

// Next implements Operator. The first call fires the drivers.
func (p *pipe) Next() (*types.Batch, error) {
	p.release()
	if p.done {
		return nil, nil
	}
	if !p.started {
		p.started = true
		if p.begin != nil {
			p.begin()
		}
	}
	select {
	case b, ok := <-p.ch:
		if !ok {
			p.done = true
			select {
			case err := <-p.errc:
				return nil, err
			default:
				return nil, nil
			}
		}
		if p.from != nil {
			p.lent = b
		}
		return b, nil
	case err := <-p.errc:
		p.done = true
		return nil, err
	case <-p.ctx.Done():
		p.done = true
		return nil, p.ctx.Err()
	}
}

// spawn runs fn as a tracked pipeline goroutine.
func (env *queryEnv) spawn(fn func()) {
	env.wg.Add(1)
	go func() {
		defer env.wg.Done()
		fn()
	}()
}

// addSpan registers a plan-node span and any children for closing at
// shutdown (all nil when tracing is off).
func (env *queryEnv) addSpan(sps ...*obs.Span) {
	if sps[0] == nil {
		return
	}
	env.mu.Lock()
	env.spans = append(env.spans, sps...)
	env.mu.Unlock()
}

// gov returns the node's memory governor, mirroring charges into the
// database's exec.mem_bytes gauge.
func (env *queryEnv) gov(node string) *exec.MemGovernor {
	env.mu.Lock()
	defer env.mu.Unlock()
	g, ok := env.govs[node]
	if !ok {
		g = exec.NewMemGovernor(env.session.MemoryBudget, env.db.execMem.Add)
		env.govs[node] = g
	}
	return g
}

// spillFor returns the node's spill store (its local disk under a
// per-query prefix), or nil when no finite budget is set — breakers
// without a store never spill.
func (env *queryEnv) spillFor(node string) exec.SpillStore {
	if env.session.MemoryBudget <= 0 {
		return nil
	}
	env.mu.Lock()
	defer env.mu.Unlock()
	s, ok := env.spills[node]
	if !ok {
		n, okn := env.db.Node(node)
		if !okn {
			return nil
		}
		s = exec.NewFSSpill(env.ctx, n.fs, fmt.Sprintf("spill/q%d", env.qid))
		env.spills[node] = s
	}
	return s
}

// shutdown tears the pipeline down and publishes what the query did.
// cancel unblocks every driver; once they and the fragments' fetchers
// have all exited, no scan counter moves again, and the fragments'
// records, the expression counters and the governors are summed into
// env.rec. That record is written once each way: every fragment's
// numbers onto its own spans, the exec numbers onto the root span, and
// the whole into the database's scan.* and exec.* counters — on every
// exit path, a failed or LIMIT-abandoned query's included. tryQuery
// hands it to the session. Last, the spill files are removed.
func (env *queryEnv) shutdown() {
	env.cancel()
	env.wg.Wait()
	for p := env.lending; p != nil; p = p.nextLend {
		if p.started {
			p.reclaim()
		}
	}
	rec := &env.rec
	for fs := env.frags; fs != nil; fs = fs.next {
		fs.rec.mu.Lock()
		rec.scan.Add(fs.rec.ScanStats)
		fs.rec.mu.Unlock()
		fs.publish()
	}
	rec.scan.RowsVectorized = env.vec.Vectorized.Load()
	rec.scan.RowsFallback = env.vec.Fallback.Load()
	rec.scan.Wall = time.Since(env.start)
	for i := len(env.spans) - 1; i >= 0; i-- {
		env.spans[i].End()
	}
	st := &rec.exec
	for _, g := range env.govs {
		if p := g.Peak(); p > st.PeakMemBytes {
			st.PeakMemBytes = p
		}
		st.SpillCount += g.Spills()
		st.SpillBytes += g.SpillBytes()
		g.Close()
	}
	env.root.AddAttr("peak_mem_bytes", st.PeakMemBytes)
	env.root.AddAttr("spills", st.SpillCount)
	env.root.AddAttr("spill_bytes", st.SpillBytes)
	db := env.db
	db.scanM.add(rec.scan)
	db.execPeak.Observe(st.PeakMemBytes)
	db.execSpills.Add(st.SpillCount)
	db.execSpillBytes.Add(st.SpillBytes)
	if st.SpillCount > 0 {
		db.dcSpills.Emit(obs.DCEvent{
			Node: env.initiator.name,
			V1:   st.PeakMemBytes, V2: st.SpillCount, V3: st.SpillBytes,
		})
	}
	// Spill cleanup runs under its own context: the query's is canceled.
	for _, sp := range env.spills {
		_ = sp.Cleanup(context.Background())
	}
}

// run executes plan trees, in turn, through the streaming pipeline and
// drains each one's top into its result batch. The execution state is
// created here, not with the query's participants, so a result-cache hit
// never allocates it.
func (env *queryEnv) run(root *obs.Span, trees ...planner.Node) ([]*types.Batch, error) {
	env.ctx, env.cancel = context.WithCancel(env.ctx)
	env.root = root
	env.qid = env.db.queryCtr.Add(1)
	env.govs = map[string]*exec.MemGovernor{}
	env.spills = map[string]*exec.FSSpill{}
	defer env.shutdown()
	out := make([]*types.Batch, len(trees))
	for i, tree := range trees {
		res, err := env.build(tree, root)
		if err != nil {
			return nil, err
		}
		gatherSp := root.StartSpan("gather")
		b, err := exec.Collect(env.gatherTo(res, gatherSp))
		if err == nil {
			gatherSp.AddRowsOut(int64(b.NumRows()))
		}
		gatherSp.End()
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// gatherTo returns an initiator-side operator over a distributed
// result: one pipe fed by one driver per source node. Each driver drains
// its node's chain and streams the batches toward the initiator —
// non-initiator nodes pay a chunked network stream per batch, overlapping
// transfer with upstream compute — and the consumer reads them in
// arrival order, deduplicating the union when a distinct below was not
// final per node (needGlobalDistinct). No node waits for another to be
// read first, so a node whose stream feeds a reshuffle cannot stall
// behind one the consumer has not reached. A single node is one
// producer, so its row order is deterministic. All drivers start on the
// first pull, so fragments run concurrently.
func (env *queryEnv) gatherTo(res *streamResult, consumer *obs.Span) exec.Operator {
	if res.gathered() {
		return edge(res.op(), res.sp, consumer)
	}
	db := env.db
	out := env.lendingPipe(res.schema, len(res.perNode), env.initiator)
	out.begin = func() {
		for name, nodeOp := range res.perNode {
			env.spawn(func() {
				n, ok := db.Node(name)
				if !ok || !n.Up() {
					out.finish(fmt.Errorf("%w: %s", errNodeDown, name))
					return
				}
				var stream *netsim.Stream
				if name != env.initiator.name {
					stream = db.net.Stream(name, env.initiator.name)
				}
				out.finish(func() error {
					for {
						b, err := nodeOp.Next()
						if err != nil || b == nil {
							return err
						}
						if b.NumRows() == 0 {
							continue
						}
						if stream != nil {
							if err := stream.Send(env.ctx, batchBytes(b)); err != nil {
								return fmt.Errorf("%w: gather from %s: %v", errNodeDown, name, err)
							}
						}
						// b lives until the next pull: the initiator gets a copy.
						if err := out.lend(env.initiator.free.Gather(b, nil)); err != nil {
							return err
						}
					}
				}())
			})
		}
	}
	var combined exec.Operator = edge(out, res.sp, consumer)
	if res.needGlobalDistinct {
		d := exec.NewDistinct(combined)
		d.Eng = env.engOn(env.initiator.name)
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
func (env *queryEnv) build(node planner.Node, parent *obs.Span) (*streamResult, error) {
	sp := parent.StartSpan(spanName(node))
	env.addSpan(sp)
	switch n := node.(type) {
	case *planner.Scan:
		return env.buildScan(n, sp)
	case *planner.Filter:
		return env.buildFilter(n, sp)
	case *planner.Project:
		return env.buildProject(n, sp)
	case *planner.Join:
		return env.buildJoin(n, sp)
	case *planner.Aggregate:
		return env.buildAggregate(n, sp)
	case *planner.DistinctNode:
		return env.buildDistinct(n, sp)
	case *planner.Sort:
		return env.buildSort(n, sp)
	case *planner.Limit:
		return env.buildLimit(n, sp)
	}
	return nil, fmt.Errorf("core: unknown plan node %T", node)
}

// mapResult wraps every stream of a result with a per-node operator
// stage, preserving its distribution. apply receives the executing
// node's name so stages can attach that node's governor.
func (env *queryEnv) mapResult(in *streamResult, schema types.Schema, sp *obs.Span, apply func(node string, op exec.Operator) exec.Operator) *streamResult {
	out := &streamResult{
		schema: schema, sp: sp,
		replicated:         in.replicated,
		needGlobalDistinct: in.needGlobalDistinct,
		exchanged:          in.exchanged,
		est:                in.est,
	}
	initiator := env.initiator.name
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
func (env *queryEnv) scanOp(fs *fragmentScan, sp *obs.Span) exec.Operator {
	n := fs.node
	ch := env.lendingPipe(fs.scan.OutSchema, 1, n)
	fragSp := sp.StartSpan("fragment:" + n.name)
	fs.span = fragSp
	env.mu.Lock()
	fs.next, env.frags = env.frags, fs
	env.mu.Unlock()
	err := fs.plan(env.ctx)
	// A fragment that is never pulled still ends its span and its fetcher.
	env.addSpan(fragSp)
	if fs.pre != nil {
		env.spawn(fs.pre.Wait)
	}
	ch.begin = func() {
		env.spawn(func() {
			defer fragSp.End()
			if err == nil && !n.Up() {
				err = fmt.Errorf("%w: %s", errNodeDown, n.name)
			}
			if err == nil {
				err = fs.run(env.ctx, func(b *types.Batch) error {
					fragSp.AddRowsOut(int64(b.NumRows()))
					return ch.lend(b)
				})
			}
			ch.finish(err)
		})
	}
	return ch
}

func (env *queryEnv) buildScan(scan *planner.Scan, sp *obs.Span) (*streamResult, error) {
	if scan.Virtual {
		// System-table scan: materialize the virtual table on the
		// initiator from live monitoring state (its Fill takes a snapshot
		// cut; no storage, no hot-path locks), then flow it like any
		// replicated source.
		res := &streamResult{replicated: true, schema: scan.OutSchema, sp: sp}
		res.shared = &sharedBatches{run: func() ([]*types.Batch, error) {
			fillSp := sp.StartSpan("fill:" + scan.Table.Name)
			b, err := env.db.materializeVirtual(scan, env.eng())
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
	if scan.Replicated && !scan.Positions {
		// Replicated projections are read once — preferentially on the
		// initiator — and replayed by every consumer.
		fs := &fragmentScan{env: env, node: env.initiator, scan: scan, tasks: []scanTask{{Shard: catalog.ReplicaShard, Of: 1}}}
		op := env.scanOp(fs, sp)
		res := &streamResult{replicated: true, est: func() float64 { return estRows(fs) }, schema: scan.OutSchema, sp: sp}
		res.shared = &sharedBatches{run: func() ([]*types.Batch, error) {
			b, err := exec.Collect(edge(op, sp, nil))
			if err != nil {
				return nil, err
			}
			return wrap(b), nil
		}}
		return res, nil
	}
	var frags []*fragmentScan
	res := &streamResult{perNode: map[string]exec.Operator{}, est: func() float64 { return estRows(frags...) }, schema: scan.OutSchema, sp: sp}
	keys := env.pinnedKeys(scan)
	for _, name := range env.nodes {
		tasks := env.tasksFor(name, scan, keys)
		if len(tasks) == 0 {
			continue
		}
		n, ok := env.db.Node(name)
		if !ok || !n.Up() {
			return nil, fmt.Errorf("%w: %s", errNodeDown, name)
		}
		fs := &fragmentScan{env: env, node: n, scan: scan, tasks: tasks, keys: keys}
		if keys != nil && len(res.perNode) == 0 {
			// The scan's first fragment carries the count for the scan.
			pinned := map[int]bool{}
			for _, h := range keys {
				pinned[env.db.ring.SegmentFor(h)] = true
			}
			fs.rec.ShardsPruned = int64(env.db.ring.Count() - len(pinned))
		}
		res.perNode[name] = env.scanOp(fs, sp)
		frags = append(frags, fs)
	}
	return res, nil
}

// tasksFor returns the scan tasks node serves in scan: its assigned
// shards, or the replica shard on the initiator. An Enterprise DML scan
// reads every copy where it is stored, since only a container's owner
// deletes from it: each node lists all the containers it owns. Every up
// Enterprise node already participates, owning its own segment. With
// pinned keys (pinnedKeys), a node keeps only the tasks that can hold
// one (holdsKey).
func (env *queryEnv) tasksFor(node string, scan *planner.Scan, keys []uint32) []scanTask {
	switch {
	case scan.Positions && env.db.mode == ModeEnterprise:
		return []scanTask{{Shard: catalog.GlobalShard, Of: 1}}
	case scan.Replicated:
		if node != env.initiator.name {
			return nil
		}
		return []scanTask{{Shard: catalog.ReplicaShard, Of: 1}}
	}
	tasks := env.nodeTasks(node)
	if keys == nil {
		return tasks
	}
	kept := tasks[:0]
	for _, t := range tasks {
		if env.holdsKey(scan, t, keys) {
			kept = append(kept, t)
		}
	}
	return kept
}

// pinnedKeys returns the hashes of the segmentation keys scan's
// predicate pins (expr.PinnedValues), or nil when it pins none. Every row
// the scan can return hashes to one of them, so only the shards holding
// them — and, under a crunch hash filter, only the members whose
// sub-range does — have rows to read (§2.2, §4). The predicate is the
// executed one, parameters substituted, so a cached plan prunes per
// execution.
func (env *queryEnv) pinnedKeys(scan *planner.Scan) []uint32 {
	if scan.Pred == nil || scan.Replicated || scan.Virtual {
		return nil
	}
	segCols := make([]int, len(scan.Proj.SegmentCols))
	ord := make([]int, len(segCols))
	for i, c := range scan.Proj.SegmentCols {
		segCols[i] = slices.IndexFunc(scan.Cols, func(col string) bool { return strings.EqualFold(col, c) })
		if segCols[i] < 0 {
			return nil
		}
		ord[i] = i
	}
	pinned := expr.PinnedValues(scan.Pred, segCols)
	if pinned == nil {
		return nil
	}
	keys := make([]uint32, len(pinned))
	for i, key := range pinned {
		keys[i] = hashring.HashRowCols(key, ord)
	}
	return keys
}

// holdsKey reports whether task can read a row whose key hashes to one
// of keys: its shard holds the hash and, when its crunch group filters
// the shard by hash, so does its sub-range. A group that splits the
// shard's containers keeps every member, since the key's rows can be in
// any container.
func (env *queryEnv) holdsKey(scan *planner.Scan, task scanTask, keys []uint32) bool {
	for _, h := range keys {
		shard, part := env.db.ring.Locate(h, task.Of)
		if shard == task.Shard && (part == task.Part || env.splitsContainers(scan, task)) {
			return true
		}
	}
	return false
}

// eachContainer calls fn once for every container of p, with the node
// that lists it (fragmentScan.list): what a DML scan of p would read.
func (env *queryEnv) eachContainer(p *catalog.Projection, fn func(*Node, *catalog.StorageContainer) error) error {
	scan := &planner.Scan{Proj: p, Replicated: p.Replicated(), Positions: true}
	for _, name := range env.nodes {
		n, ok := env.db.Node(name)
		if !ok || !n.Up() {
			return fmt.Errorf("%w: %s", errNodeDown, name)
		}
		fs := &fragmentScan{env: env, node: n, scan: scan, tasks: env.tasksFor(name, scan, nil)}
		if err := fs.list(); err != nil {
			return err
		}
		for _, w := range fs.work {
			if err := fn(n, w.sc); err != nil {
				return err
			}
		}
	}
	return nil
}

func (env *queryEnv) buildFilter(f *planner.Filter, sp *obs.Span) (*streamResult, error) {
	in, err := env.build(f.Input, sp)
	if err != nil {
		return nil, err
	}
	eng := env.eng()
	return env.mapResult(in, f.Schema(), sp, func(_ string, op exec.Operator) exec.Operator {
		fl := exec.NewFilter(edge(op, in.sp, sp), f.Pred)
		fl.Eng = eng
		return fl
	}), nil
}

func (env *queryEnv) buildProject(p *planner.Project, sp *obs.Span) (*streamResult, error) {
	in, err := env.build(p.Input, sp)
	if err != nil {
		return nil, err
	}
	eng := env.eng()
	return env.mapResult(in, p.Schema(), sp, func(_ string, op exec.Operator) exec.Operator {
		pr := exec.NewProject(edge(op, in.sp, sp), p.Exprs, p.Names)
		pr.Eng = eng
		return pr
	}), nil
}

// broadcast gathers a result on the initiator and ships every batch to
// each other participant over a per-peer chunked stream as it arrives,
// overlapping transfer with the upstream pipeline. The returned result
// is replicated (a shared cell every per-node join replays).
func (env *queryEnv) broadcast(res *streamResult, sp *obs.Span) *streamResult {
	db := env.db
	out := &streamResult{replicated: true, est: res.est, schema: res.schema, sp: res.sp}
	out.shared = &sharedBatches{run: func() ([]*types.Batch, error) {
		src := env.gatherTo(res, sp)
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
		// Every batch is kept, past its next pull: copied into one.
		all := types.NewBatch(res.schema, 0)
		for {
			b, err := src.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return wrap(all), nil
			}
			if b.NumRows() == 0 {
				continue
			}
			size := batchBytes(b)
			for i, p := range peers {
				if err := streams[i].Send(env.ctx, size); err != nil {
					return nil, fmt.Errorf("%w: broadcast to %s: %v", errNodeDown, p, err)
				}
			}
			all.AppendBatch(b)
		}
	}}
	return out
}

// exchange repartitions a result by key hash: a row goes to
// env.route(hash), the node that serves its shard or the crunch-group
// member whose sub-range of the shard holds it, so the output is
// co-located with every projection segmented on the same keys. One
// driver per source node drains its stream, splits each batch with
// exec.Partition, and pushes every part into its target's pipe — remote
// parts over a chunked per-link stream — so rows reach the consuming
// joins batch by batch. All sources start when any target is first
// pulled. A driver blocks while any of its targets' edges is full, so a
// target that stops pulling stalls every source; the joins above an
// exchange never stop pulling one (HashJoin.Exchanged), and the gather
// reads the nodes in arrival order.
func (env *queryEnv) exchange(res *streamResult, schema types.Schema, keys []int) map[string]exec.Operator {
	db := env.db
	targets := env.nodes
	slot := make(map[string]int, len(targets))
	for i, t := range targets {
		slot[t] = i
	}
	to := func(h uint32) int { return slot[env.route(h)] }
	sources := res.perNode
	if res.gathered() {
		sources = map[string]exec.Operator{env.initiator.name: res.op()}
	}
	outs := make([]*pipe, len(targets))
	for i := range outs {
		outs[i] = newPipe(env.ctx, schema, len(sources))
	}
	var startOnce sync.Once
	start := func() {
		startOnce.Do(func() {
			for name, op := range sources {
				env.spawn(func() {
					err := func() error {
						streams := make([]*netsim.Stream, len(targets))
						for {
							b, err := op.Next()
							if err != nil || b == nil {
								return err
							}
							if b.NumRows() == 0 {
								continue
							}
							for ti, part := range exec.Partition(b, keys, len(targets), to) {
								if part == nil {
									continue
								}
								if target := targets[ti]; target != name {
									if streams[ti] == nil {
										streams[ti] = db.net.Stream(name, target)
									}
									if err := streams[ti].Send(env.ctx, batchBytes(part)); err != nil {
										return fmt.Errorf("%w: reshuffle %s->%s: %v", errNodeDown, name, target, err)
									}
								}
								if err := outs[ti].push(part); err != nil {
									return err
								}
							}
						}
					}()
					for _, out := range outs {
						out.finish(err)
					}
				})
			}
		})
	}
	ops := make(map[string]exec.Operator, len(targets))
	for i, t := range targets {
		outs[i].begin = start
		ops[t] = outs[i]
	}
	return ops
}

func (env *queryEnv) buildJoin(j *planner.Join, sp *obs.Span) (*streamResult, error) {
	left, err := env.build(j.Left, sp)
	if err != nil {
		return nil, err
	}
	right, err := env.build(j.Right, sp)
	if err != nil {
		return nil, err
	}
	eng := env.eng()
	var onInitiator [2]bool

	// joinSides fixes every node's build side before any pull, and
	// records it on the span: the input with the smaller estimate, the
	// first on a tie. A replicated input (a scan read once, a broadcast)
	// counts once for each of the reps nodes it is replayed on; the
	// join's result out is estimated at its larger input.
	build := 0
	joinSides := func(reps int, out *streamResult) *streamResult {
		var est [2]float64
		for i, r := range [2]*streamResult{left, right} {
			if r.est != nil {
				est[i] = r.est()
			}
			if r.replicated {
				est[i] *= float64(reps)
			}
		}
		if est[1] < est[0] {
			build = 1
		}
		sp.AddAttr("build_second", int64(build))
		sp.AddAttr("build_est", int64(math.Round(est[build])))
		sp.AddAttr("probe_est", int64(math.Round(est[1-build])))
		larger := max(est[0], est[1])
		out.est = func() float64 { return larger }
		return out
	}

	// joinOn builds one node's join: what it holds is charged to that
	// node's governor. exchanged says which inputs are per-node streams
	// over a reshuffle; a join on the initiator is the one consumer of
	// whatever it gathers, so there it is onInitiator.
	joinOn := func(node string, lop, rop exec.Operator, exchanged [2]bool) exec.Operator {
		op := exec.NewHashJoin(lop, rop, j.LeftKeys, j.RightKeys)
		op.Build = build
		op.Eng = env.engOn(node)
		op.Mem = env.gov(node)
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
			res := joinSides(1, &streamResult{replicated: true, schema: j.Schema(), sp: sp})
			res.shared = &sharedBatches{run: func() ([]*types.Batch, error) {
				b, err := exec.Collect(mk())
				if err != nil {
					return nil, err
				}
				return wrap(b), nil
			}}
			return res, nil
		}
		out := joinSides(1, &streamResult{schema: j.Schema(), sp: sp})
		out.single = mk()
		return out, nil
	}

	switch j.Strategy {
	case planner.JoinBroadcastRight:
		right = env.broadcast(right, sp)
		fallthrough

	case planner.JoinLocal:
		local := [2]bool{left.exchanged, right.exchanged}
		if right.gathered() && right.replicated {
			// Join each left fragment against the full right copy.
			if left.gathered() {
				out := joinSides(1, &streamResult{schema: j.Schema(), sp: sp})
				out.single = joinOn(env.initiator.name, edge(left.op(), left.sp, sp), edge(right.op(), right.sp, sp), onInitiator)
				return out, nil
			}
			out := joinSides(len(left.perNode), &streamResult{perNode: map[string]exec.Operator{}, exchanged: left.exchanged, schema: j.Schema(), sp: sp})
			for name, lop := range left.perNode {
				out.perNode[name] = joinOn(name, edge(lop, left.sp, sp), edge(right.op(), right.sp, sp), local)
			}
			return out, nil
		}
		if left.gathered() && left.replicated {
			out := joinSides(len(right.perNode), &streamResult{perNode: map[string]exec.Operator{}, exchanged: right.exchanged, schema: j.Schema(), sp: sp})
			for name, rop := range right.perNode {
				out.perNode[name] = joinOn(name, edge(left.op(), left.sp, sp), edge(rop, right.sp, sp), local)
			}
			return out, nil
		}
		// A non-replicated gathered side (e.g. after a distinct): finish
		// the join on the initiator.
		if left.gathered() || right.gathered() {
			out := joinSides(1, &streamResult{schema: j.Schema(), sp: sp})
			out.single = joinOn(env.initiator.name, env.gatherTo(left, sp), env.gatherTo(right, sp), onInitiator)
			return out, nil
		}
		names := map[string]bool{}
		for name := range left.perNode {
			names[name] = true
		}
		for name := range right.perNode {
			names[name] = true
		}
		out := joinSides(1, &streamResult{
			perNode: map[string]exec.Operator{}, exchanged: left.exchanged || right.exchanged,
			schema: j.Schema(), sp: sp,
		})
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
		// An exchanged input is every source's rows once, replicated or not.
		out := joinSides(1, &streamResult{perNode: map[string]exec.Operator{}, exchanged: true, schema: j.Schema(), sp: sp})
		lsh := env.exchange(left, j.Left.Schema(), j.LeftKeys)
		rsh := env.exchange(right, j.Right.Schema(), j.RightKeys)
		for _, name := range env.nodes {
			out.perNode[name] = joinOn(name, edge(lsh[name], left.sp, sp), edge(rsh[name], right.sp, sp), [2]bool{true, true})
		}
		return out, nil
	}
	return nil, fmt.Errorf("core: unknown join strategy %v", j.Strategy)
}

func (env *queryEnv) buildAggregate(a *planner.Aggregate, sp *obs.Span) (*streamResult, error) {
	in, err := env.build(a.Input, sp)
	if err != nil {
		return nil, err
	}
	inSchema := a.Input.Schema()

	// aggOn builds one node's aggregation, budget-governed with the
	// node's local disk as its spill store, fused with the join it reads
	// where exec.NewGroupJoin can.
	aggOn := func(node string, op exec.Operator, partial bool) exec.Operator {
		h := exec.NewHashAggregate(op, a.Keys, a.KeyNames, a.Aggs, partial)
		h.Eng = env.engOn(node)
		h.Mem = env.gov(node)
		h.Spill = env.spillFor(node)
		h.Span = sp
		if g := exec.NewGroupJoin(h, op); g != nil {
			return g
		}
		return h
	}

	// Gathered or replicated input: aggregate once on the initiator.
	if in.gathered() {
		return &streamResult{
			single: aggOn(env.initiator.name, edge(in.op(), in.sp, sp), false),
			est:    in.est, schema: a.Schema(), sp: sp,
		}, nil
	}

	switch a.Mode {
	case planner.AggLocalFinal:
		// Per-node groups are disjoint; aggregate fully locally (§4).
		out := &streamResult{perNode: map[string]exec.Operator{}, est: in.est, schema: a.Schema(), sp: sp}
		for name, op := range in.perNode {
			out.perNode[name] = aggOn(name, edge(op, in.sp, sp), false)
		}
		return out, nil

	case planner.AggInitiatorOnly:
		return &streamResult{
			single: aggOn(env.initiator.name, env.gatherTo(in, sp), false),
			est:    in.est, schema: a.Schema(), sp: sp,
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
		h := exec.NewHashAggregate(env.gatherTo(mid, sp), mergeKeys, a.KeyNames, mergeAggs, false)
		h.Eng = env.engOn(env.initiator.name)
		h.Mem = env.gov(env.initiator.name)
		h.Spill = env.spillFor(env.initiator.name)
		h.Span = sp
		return &streamResult{single: h, est: in.est, schema: a.Schema(), sp: sp}, nil
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

func (env *queryEnv) buildDistinct(d *planner.DistinctNode, sp *obs.Span) (*streamResult, error) {
	in, err := env.build(d.Input, sp)
	if err != nil {
		return nil, err
	}
	out := env.mapResult(in, d.Schema(), sp, func(node string, op exec.Operator) exec.Operator {
		dd := exec.NewDistinct(edge(op, in.sp, sp))
		dd.Eng = env.engOn(node)
		dd.Span = sp
		return dd
	})
	// Dedupe per node; unless that pass is final (d.Local), the global
	// pass happens at gather.
	if !d.Local && !out.gathered() {
		out.needGlobalDistinct = true
	}
	return out, nil
}

// sortOn builds the initiator's budget-governed sort over a gathered
// stream.
func (env *queryEnv) sortOn(input exec.Operator, keys []exec.SortSpec) *exec.Sort {
	op := exec.NewSort(input, keys)
	op.Mem = env.gov(env.initiator.name)
	op.Spill = env.spillFor(env.initiator.name)
	return op
}

func (env *queryEnv) buildSort(s *planner.Sort, sp *obs.Span) (*streamResult, error) {
	in, err := env.build(s.Input, sp)
	if err != nil {
		return nil, err
	}
	return &streamResult{
		single: env.sortOn(env.gatherTo(in, sp), s.Keys),
		est:    in.est, schema: s.Schema(), sp: sp,
	}, nil
}

func (env *queryEnv) buildLimit(l *planner.Limit, sp *obs.Span) (*streamResult, error) {
	// Sort child: push a local top-k below the gather (dashboard top-k
	// pattern), then re-sort the k-per-node survivors on the initiator.
	if srt, ok := l.Input.(*planner.Sort); ok {
		in, err := env.build(srt.Input, sp)
		if err != nil {
			return nil, err
		}
		res := in
		if !in.gathered() {
			res = env.mapResult(in, srt.Schema(), sp, func(_ string, op exec.Operator) exec.Operator {
				return exec.NewTopK(edge(op, in.sp, sp), srt.Keys, int(l.N))
			})
		}
		return &streamResult{
			single: exec.NewLimit(env.sortOn(env.gatherTo(res, sp), srt.Keys), l.N),
			est:    in.est, schema: l.Schema(), sp: sp,
		}, nil
	}
	in, err := env.build(l.Input, sp)
	if err != nil {
		return nil, err
	}
	if in.gathered() {
		return &streamResult{
			single: exec.NewLimit(edge(in.op(), in.sp, sp), l.N),
			est:    in.est, schema: l.Schema(), sp: sp,
		}, nil
	}
	// No ORDER BY: each fragment can contribute at most N rows, so cap
	// every node's stream below the gather — bounding both the rows
	// shipped and, through pipeline backpressure, how much of each scan
	// runs before the query's own limit stops pulling. (Safe below a
	// distinct the gather still finishes: each node's stream is distinct,
	// so the first N output rows draw from at most the first N rows of
	// each node's stream.)
	capped := env.mapResult(in, l.Schema(), sp, func(_ string, op exec.Operator) exec.Operator {
		return exec.NewLimit(edge(op, in.sp, sp), l.N)
	})
	return &streamResult{
		single: exec.NewLimit(env.gatherTo(capped, sp), l.N),
		est:    in.est, schema: l.Schema(), sp: sp,
	}, nil
}
