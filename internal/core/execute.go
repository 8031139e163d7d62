package core

import (
	"fmt"

	"eon/internal/catalog"
	"eon/internal/exec"
	"eon/internal/expr"
	"eon/internal/obs"
	"eon/internal/planner"
	"eon/internal/types"
)

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

// resultRows counts the rows of a distributed result across fragments.
func resultRows(res *distResult) int64 {
	if res == nil {
		return 0
	}
	if res.gathered() {
		if res.single == nil {
			return 0
		}
		return int64(res.single.NumRows())
	}
	var total int64
	for _, batches := range res.perNode {
		for _, b := range batches {
			if b != nil {
				total += int64(b.NumRows())
			}
		}
	}
	return total
}

// executePlan recursively evaluates a physical plan node into a
// distributed result. Each node gets an operator span under parent
// (rows out recorded on success; rows in recorded by the operator from
// its input result), so a traced query yields the EXPLAIN PROFILE tree.
func (db *DB) executePlan(env *queryEnv, node planner.Node, parent *obs.Span) (*distResult, error) {
	sp := parent.StartSpan(spanName(node))
	defer sp.End()
	var res *distResult
	var err error
	switch n := node.(type) {
	case *planner.Scan:
		res, err = db.execScan(env, n, sp)
	case *planner.Filter:
		res, err = db.execFilter(env, n, sp)
	case *planner.Project:
		res, err = db.execProject(env, n, sp)
	case *planner.Join:
		res, err = db.execJoin(env, n, sp)
	case *planner.Aggregate:
		res, err = db.execAggregate(env, n, sp)
	case *planner.DistinctNode:
		res, err = db.execDistinct(env, n, sp)
	case *planner.Sort:
		res, err = db.execSort(env, n, sp)
	case *planner.Limit:
		res, err = db.execLimit(env, n, sp)
	default:
		return nil, fmt.Errorf("core: unknown plan node %T", node)
	}
	if err != nil {
		return nil, err
	}
	sp.AddRowsOut(resultRows(res))
	return res, nil
}

func (db *DB) execScan(env *queryEnv, scan *planner.Scan, sp *obs.Span) (*distResult, error) {
	if scan.Virtual {
		// System-table scan: materialized once on the initiator from live
		// monitoring state and treated as replicated downstream.
		fillSp := sp.StartSpan("fill:" + scan.Table.Name)
		b, err := db.materializeVirtual(scan, env.session.RowEngine, env.stats)
		if err != nil {
			fillSp.End()
			return nil, err
		}
		fillSp.AddRowsOut(int64(b.NumRows()))
		fillSp.End()
		return &distResult{single: b, replicated: true, schema: scan.OutSchema}, nil
	}
	if scan.Replicated {
		// Replicated projections are read once — preferentially on the
		// initiator, which always subscribes to the replica shard.
		node := env.initiator
		fragSp := sp.StartSpan("fragment:" + node.name)
		ctx := obs.WithSpan(env.ctx, fragSp)
		batches, err := env.fragment(db, node, scan, []scanTask{{Shard: catalog.ReplicaShard, Of: 1}}, CrunchOff).collect(ctx)
		fragSp.End()
		if err != nil {
			return nil, err
		}
		single := types.NewBatch(scan.OutSchema, 0)
		for _, b := range batches {
			single.AppendBatch(b)
		}
		return &distResult{single: single, replicated: true, schema: scan.OutSchema}, nil
	}
	res := &distResult{perNode: map[string][]*types.Batch{}, schema: scan.OutSchema}
	for _, name := range env.nodes {
		if len(env.nodeTasks(name)) == 0 {
			continue
		}
		res.perNode[name] = nil
	}
	err := db.runPerNode(env, res, func(name string, _ []*types.Batch) ([]*types.Batch, error) {
		n, ok := db.Node(name)
		if !ok || !n.Up() {
			return nil, fmt.Errorf("%w: %s", errNodeDown, name)
		}
		// The fragment span travels to the scan via the context (the span
		// carrier for the scan pipeline's layers below the operator tree).
		fragSp := sp.StartSpan("fragment:" + name)
		defer fragSp.End()
		ctx := obs.WithSpan(env.ctx, fragSp)
		return env.fragment(db, n, scan, env.nodeTasks(name), env.session.Crunch).collect(ctx)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (db *DB) execFilter(env *queryEnv, f *planner.Filter, sp *obs.Span) (*distResult, error) {
	in, err := db.executePlan(env, f.Input, sp)
	if err != nil {
		return nil, err
	}
	sp.AddRowsIn(resultRows(in))
	apply := func(batches []*types.Batch) ([]*types.Batch, error) {
		op := exec.NewFilter(exec.NewSource(f.Schema(), batches...), f.Pred)
		op.Eng = env.eng()
		out, err := exec.Collect(op)
		if err != nil {
			return nil, err
		}
		return []*types.Batch{out}, nil
	}
	if in.gathered() {
		out, err := apply([]*types.Batch{in.single})
		if err != nil {
			return nil, err
		}
		in.single = out[0]
		return in, nil
	}
	if err := db.runPerNode(env, in, func(name string, bs []*types.Batch) ([]*types.Batch, error) {
		return apply(bs)
	}); err != nil {
		return nil, err
	}
	return in, nil
}

func (db *DB) execProject(env *queryEnv, p *planner.Project, sp *obs.Span) (*distResult, error) {
	in, err := db.executePlan(env, p.Input, sp)
	if err != nil {
		return nil, err
	}
	sp.AddRowsIn(resultRows(in))
	apply := func(batches []*types.Batch) ([]*types.Batch, error) {
		op := exec.NewProject(exec.NewSource(p.Input.Schema(), batches...), p.Exprs, p.Names)
		op.Eng = env.eng()
		out, err := exec.Collect(op)
		if err != nil {
			return nil, err
		}
		return []*types.Batch{out}, nil
	}
	if in.gathered() {
		out, err := apply([]*types.Batch{in.single})
		if err != nil {
			return nil, err
		}
		return &distResult{single: out[0], replicated: in.replicated, schema: p.Schema()}, nil
	}
	if err := db.runPerNode(env, in, func(name string, bs []*types.Batch) ([]*types.Batch, error) {
		return apply(bs)
	}); err != nil {
		return nil, err
	}
	in.schema = p.Schema()
	return in, nil
}

func (db *DB) execJoin(env *queryEnv, j *planner.Join, sp *obs.Span) (*distResult, error) {
	left, err := db.executePlan(env, j.Left, sp)
	if err != nil {
		return nil, err
	}
	right, err := db.executePlan(env, j.Right, sp)
	if err != nil {
		return nil, err
	}
	sp.AddRowsIn(resultRows(left) + resultRows(right))

	joinBatches := func(lb, rb []*types.Batch) ([]*types.Batch, error) {
		op := exec.NewHashJoin(
			exec.NewSource(j.Left.Schema(), lb...),
			exec.NewSource(j.Right.Schema(), rb...),
			j.LeftKeys, j.RightKeys)
		op.Eng = env.eng()
		op.Span = sp
		var post exec.Operator = op
		if j.ResidualPred != nil {
			f := exec.NewFilter(op, j.ResidualPred)
			f.Eng = env.eng()
			post = f
		}
		out, err := exec.Collect(post)
		if err != nil {
			return nil, err
		}
		return []*types.Batch{out}, nil
	}

	// Both sides already on the initiator: local join there.
	if left.gathered() && right.gathered() {
		out, err := joinBatches(wrap(left.single), wrap(right.single))
		if err != nil {
			return nil, err
		}
		return &distResult{single: out[0], replicated: left.replicated && right.replicated, schema: j.Schema()}, nil
	}

	switch j.Strategy {
	case planner.JoinBroadcastRight:
		// Gather the right side and ship it to every participant.
		rb, err := db.gather(env, right)
		if err != nil {
			return nil, err
		}
		size := batchBytes(rb)
		for _, name := range env.nodes {
			if name == env.initiator.name {
				continue
			}
			if err := db.net.Transfer(env.ctx, env.initiator.name, name, size); err != nil {
				return nil, fmt.Errorf("%w: broadcast to %s: %v", errNodeDown, name, err)
			}
		}
		right = &distResult{single: rb, replicated: true, schema: j.Right.Schema()}
		fallthrough

	case planner.JoinLocal:
		if right.gathered() && right.replicated {
			// Join each left fragment against the full right copy.
			if left.gathered() {
				out, err := joinBatches(wrap(left.single), wrap(right.single))
				if err != nil {
					return nil, err
				}
				return &distResult{single: out[0], schema: j.Schema()}, nil
			}
			if err := db.runPerNode(env, left, func(name string, bs []*types.Batch) ([]*types.Batch, error) {
				return joinBatches(bs, wrap(right.single))
			}); err != nil {
				return nil, err
			}
			left.schema = j.Schema()
			return left, nil
		}
		if left.gathered() && left.replicated {
			if err := db.runPerNode(env, right, func(name string, bs []*types.Batch) ([]*types.Batch, error) {
				return joinBatches(wrap(left.single), bs)
			}); err != nil {
				return nil, err
			}
			right.schema = j.Schema()
			return right, nil
		}
		// A non-replicated gathered side (e.g. after a distinct): finish
		// the join on the initiator.
		if left.gathered() || right.gathered() {
			lb, err := db.gather(env, left)
			if err != nil {
				return nil, err
			}
			rb, err := db.gather(env, right)
			if err != nil {
				return nil, err
			}
			out, err := joinBatches(wrap(lb), wrap(rb))
			if err != nil {
				return nil, err
			}
			return &distResult{single: out[0], schema: j.Schema()}, nil
		}
		out := &distResult{perNode: map[string][]*types.Batch{}, schema: j.Schema()}
		for name := range left.perNode {
			out.perNode[name] = nil
		}
		for name := range right.perNode {
			if _, ok := out.perNode[name]; !ok {
				out.perNode[name] = nil
			}
		}
		if err := db.runPerNode(env, out, func(name string, _ []*types.Batch) ([]*types.Batch, error) {
			return joinBatches(left.perNode[name], right.perNode[name])
		}); err != nil {
			return nil, err
		}
		return out, nil

	case planner.JoinReshuffleBoth:
		lsh, err := db.reshuffle(env, left, j.Left.Schema(), j.LeftKeys)
		if err != nil {
			return nil, err
		}
		rsh, err := db.reshuffle(env, right, j.Right.Schema(), j.RightKeys)
		if err != nil {
			return nil, err
		}
		out := &distResult{perNode: map[string][]*types.Batch{}, schema: j.Schema()}
		for _, name := range env.nodes {
			out.perNode[name] = nil
		}
		if err := db.runPerNode(env, out, func(name string, _ []*types.Batch) ([]*types.Batch, error) {
			return joinBatches(lsh[name], rsh[name])
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
	return nil, fmt.Errorf("core: unknown join strategy %v", j.Strategy)
}

func wrap(b *types.Batch) []*types.Batch {
	if b == nil {
		return nil
	}
	return []*types.Batch{b}
}

// reshuffle repartitions a distributed result across the participating
// nodes by key hash, accounting network transfer costs.
func (db *DB) reshuffle(env *queryEnv, res *distResult, schema types.Schema, keys []int) (map[string][]*types.Batch, error) {
	out := map[string][]*types.Batch{}
	for _, n := range env.nodes {
		out[n] = nil
	}
	nParts := len(env.nodes)
	send := func(from string, batches []*types.Batch) error {
		for _, b := range batches {
			if b == nil || b.NumRows() == 0 {
				continue
			}
			parts := exec.PartitionByHash(b, keys, nParts)
			for pi, part := range parts {
				if part == nil || part.NumRows() == 0 {
					continue
				}
				target := env.nodes[pi]
				if target != from {
					if err := db.net.Transfer(env.ctx, from, target, batchBytes(part)); err != nil {
						return fmt.Errorf("%w: reshuffle %s->%s: %v", errNodeDown, from, target, err)
					}
				}
				out[target] = append(out[target], part)
			}
		}
		return nil
	}
	if res.gathered() {
		if err := send(env.initiator.name, wrap(res.single)); err != nil {
			return nil, err
		}
		return out, nil
	}
	for name, batches := range res.perNode {
		if err := send(name, batches); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (db *DB) execAggregate(env *queryEnv, a *planner.Aggregate, sp *obs.Span) (*distResult, error) {
	in, err := db.executePlan(env, a.Input, sp)
	if err != nil {
		return nil, err
	}
	sp.AddRowsIn(resultRows(in))
	inSchema := a.Input.Schema()

	finalOver := func(batches []*types.Batch, partial bool) (*types.Batch, error) {
		op := exec.NewHashAggregate(exec.NewSource(inSchema, batches...), a.Keys, a.KeyNames, a.Aggs, partial)
		op.Eng = env.eng()
		op.Span = sp
		return exec.Collect(op)
	}

	// Gathered or replicated input: aggregate once on the initiator.
	if in.gathered() {
		out, err := finalOver(wrap(in.single), false)
		if err != nil {
			return nil, err
		}
		return &distResult{single: out, schema: a.Schema()}, nil
	}

	switch a.Mode {
	case planner.AggLocalFinal:
		// Per-node groups are disjoint; aggregate fully locally (§4).
		if err := db.runPerNode(env, in, func(name string, bs []*types.Batch) ([]*types.Batch, error) {
			out, err := finalOver(bs, false)
			if err != nil {
				return nil, err
			}
			return wrap(out), nil
		}); err != nil {
			return nil, err
		}
		in.schema = a.Schema()
		return in, nil

	case planner.AggInitiatorOnly:
		gathered, err := db.gather(env, in)
		if err != nil {
			return nil, err
		}
		out, err := finalOver(wrap(gathered), false)
		if err != nil {
			return nil, err
		}
		return &distResult{single: out, schema: a.Schema()}, nil

	case planner.AggTwoPhase:
		// Phase 1: partial aggregation per node.
		var partialSchema types.Schema
		partialOp := exec.NewHashAggregate(exec.NewSource(inSchema), a.Keys, a.KeyNames, a.Aggs, true)
		partialSchema = partialOp.Schema()
		if err := db.runPerNode(env, in, func(name string, bs []*types.Batch) ([]*types.Batch, error) {
			op := exec.NewHashAggregate(exec.NewSource(inSchema, bs...), a.Keys, a.KeyNames, a.Aggs, true)
			op.Eng = env.eng()
			op.Span = sp
			out, err := exec.Collect(op)
			if err != nil {
				return nil, err
			}
			return wrap(out), nil
		}); err != nil {
			return nil, err
		}
		in.schema = partialSchema
		gathered, err := db.gather(env, in)
		if err != nil {
			return nil, err
		}
		// Phase 2: merge on the initiator.
		mergeKeys, mergeAggs, err := mergeDefs(a, partialSchema)
		if err != nil {
			return nil, err
		}
		op := exec.NewHashAggregate(exec.NewSource(partialSchema, gathered), mergeKeys, a.KeyNames, mergeAggs, false)
		op.Eng = env.eng()
		op.Span = sp
		out, err := exec.Collect(op)
		if err != nil {
			return nil, err
		}
		return &distResult{single: out, schema: a.Schema()}, nil
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

func (db *DB) execDistinct(env *queryEnv, d *planner.DistinctNode, sp *obs.Span) (*distResult, error) {
	in, err := db.executePlan(env, d.Input, sp)
	if err != nil {
		return nil, err
	}
	sp.AddRowsIn(resultRows(in))
	if in.gathered() {
		out, err := distinctBatch(in.single, env.eng())
		if err != nil {
			return nil, err
		}
		in.single = out
		return in, nil
	}
	// Local dedupe per node; the global pass happens at gather unless the
	// consumer can prove disjointness (AggLocalFinal inputs are
	// node-disjoint by segmentation, and the planner only plans local
	// distinct+count in that case).
	if err := db.runPerNode(env, in, func(name string, bs []*types.Batch) ([]*types.Batch, error) {
		op := exec.NewDistinct(exec.NewSource(in.schema, bs...))
		op.Eng = env.eng()
		op.Span = sp
		out, err := exec.Collect(op)
		if err != nil {
			return nil, err
		}
		return wrap(out), nil
	}); err != nil {
		return nil, err
	}
	in.needGlobalDistinct = true
	return in, nil
}

func distinctBatch(b *types.Batch, eng exec.Engine) (*types.Batch, error) {
	if b == nil {
		return nil, nil
	}
	schema := make(types.Schema, len(b.Cols))
	for i, c := range b.Cols {
		schema[i] = types.Column{Name: fmt.Sprintf("c%d", i), Type: c.Typ}
	}
	op := exec.NewDistinct(exec.NewSource(schema, b))
	op.Eng = eng
	return exec.Collect(op)
}

func (db *DB) execSort(env *queryEnv, s *planner.Sort, sp *obs.Span) (*distResult, error) {
	in, err := db.executePlan(env, s.Input, sp)
	if err != nil {
		return nil, err
	}
	sp.AddRowsIn(resultRows(in))
	gathered, err := db.gather(env, in)
	if err != nil {
		return nil, err
	}
	op := exec.NewSort(exec.NewSource(s.Schema(), gathered), s.Keys)
	out, err := exec.Collect(op)
	if err != nil {
		return nil, err
	}
	return &distResult{single: out, schema: s.Schema()}, nil
}

func (db *DB) execLimit(env *queryEnv, l *planner.Limit, sp *obs.Span) (*distResult, error) {
	// Push a local top-k / limit below the gather when the child is a
	// sort (dashboard top-k pattern).
	if srt, ok := l.Input.(*planner.Sort); ok {
		in, err := db.executePlan(env, srt.Input, sp)
		if err != nil {
			return nil, err
		}
		sp.AddRowsIn(resultRows(in))
		if !in.gathered() {
			if err := db.runPerNode(env, in, func(name string, bs []*types.Batch) ([]*types.Batch, error) {
				op := exec.NewTopK(exec.NewSource(srt.Schema(), bs...), srt.Keys, int(l.N))
				out, err := exec.Collect(op)
				if err != nil {
					return nil, err
				}
				return wrap(out), nil
			}); err != nil {
				return nil, err
			}
		}
		gathered, err := db.gather(env, in)
		if err != nil {
			return nil, err
		}
		op := exec.NewLimit(exec.NewSort(exec.NewSource(srt.Schema(), gathered), srt.Keys), l.N)
		out, err := exec.Collect(op)
		if err != nil {
			return nil, err
		}
		return &distResult{single: out, schema: l.Schema()}, nil
	}
	in, err := db.executePlan(env, l.Input, sp)
	if err != nil {
		return nil, err
	}
	sp.AddRowsIn(resultRows(in))
	// No ORDER BY: each fragment can contribute at most N rows, so cap
	// every node's output before the gather instead of shipping whole
	// fragments to the initiator only to discard all but N rows. Safe
	// under a pending global distinct: per-node fragments are locally
	// distinct, so the first N gathered-distinct rows draw from at most
	// the first N rows of each fragment.
	if !in.gathered() {
		if err := db.runPerNode(env, in, func(name string, bs []*types.Batch) ([]*types.Batch, error) {
			out, err := exec.Collect(exec.NewLimit(exec.NewSource(l.Schema(), bs...), l.N))
			if err != nil {
				return nil, err
			}
			return wrap(out), nil
		}); err != nil {
			return nil, err
		}
	}
	gathered, err := db.gather(env, in)
	if err != nil {
		return nil, err
	}
	op := exec.NewLimit(exec.NewSource(l.Schema(), gathered), l.N)
	out, err := exec.Collect(op)
	if err != nil {
		return nil, err
	}
	return &distResult{single: out, schema: l.Schema()}, nil
}
