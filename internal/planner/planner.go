package planner

import (
	"fmt"
	"slices"
	"strings"

	"eon/internal/catalog"
	"eon/internal/expr"
	"eon/internal/sql"
	"eon/internal/types"
)

// VirtualResolver resolves table names that are not in the catalog
// snapshot to synthesized metadata-only handles (the v_monitor system
// tables). Implemented by systable.Registry.
type VirtualResolver interface {
	LookupVirtual(name string) (*catalog.Table, bool)
}

// Options configures planning.
type Options struct {
	// Snapshot supplies table, projection and container metadata.
	Snapshot *catalog.Snapshot
	// Virtual, when set, resolves virtual (system) tables after the
	// snapshot misses. Virtual scans are planned Replicated: they
	// materialize on the initiator and need no data movement.
	Virtual VirtualResolver
	// BroadcastRowLimit: a non-co-segmented join side with at most this
	// many rows is broadcast instead of reshuffled.
	BroadcastRowLimit int64
	// UseBuddies admits buddy projections as scan candidates (Enterprise
	// node-down planning substitutes buddies at execution instead).
	UseBuddies bool
	// AssumeNoSegmentation drops segmentation tracking so joins reshuffle
	// and aggregations run two-phase. Container-split crunch scaling
	// (§4.4) requires it: "the data is no longer segmented such that a
	// node has all the rows whose segmentation columns match".
	AssumeNoSegmentation bool
}

// PlanSelect builds a distributed physical plan for a SELECT.
func PlanSelect(stmt *sql.Select, opts Options) (*Plan, error) {
	p := &sessionPlanner{opts: opts}
	return p.plan(stmt)
}

type sessionPlanner struct {
	opts Options
}

// tableScope tracks one FROM-clause table and its scan.
type tableScope struct {
	ref     sql.TableRef
	tbl     *catalog.Table
	virtual bool
	scan    *Scan
}

// resolveTable finds a table in the catalog snapshot, falling back to
// the virtual resolver.
func (p *sessionPlanner) resolveTable(name string) (*catalog.Table, bool, bool) {
	if tbl, ok := p.opts.Snapshot.TableByName(name); ok {
		return tbl, false, true
	}
	if p.opts.Virtual != nil {
		if tbl, ok := p.opts.Virtual.LookupVirtual(name); ok {
			return tbl, true, true
		}
	}
	return nil, false, false
}

func (p *sessionPlanner) plan(stmt *sql.Select) (*Plan, error) {
	// Expand SELECT * before anything else.
	items, err := p.expandStar(stmt)
	if err != nil {
		return nil, err
	}

	// A matching aggregate query reads a live aggregate projection
	// instead of the base data (§2.1).
	if lapPlan, ok, err := p.tryLiveAggregate(stmt, items); err != nil {
		return nil, err
	} else if ok {
		return lapPlan, nil
	}

	// Gather per-table needed columns and interesting columns (join and
	// group keys drive projection choice).
	refs := append([]sql.TableRef{stmt.From}, joinRefs(stmt.Joins)...)
	scopes := make([]*tableScope, len(refs))
	seenAlias := map[string]bool{}
	for i, r := range refs {
		tbl, virtual, ok := p.resolveTable(r.Table)
		if !ok {
			return nil, fmt.Errorf("planner: unknown table %q", r.Table)
		}
		alias := strings.ToLower(r.Name())
		if seenAlias[alias] {
			return nil, fmt.Errorf("planner: duplicate table alias %q", r.Name())
		}
		seenAlias[alias] = true
		scopes[i] = &tableScope{ref: r, tbl: tbl, virtual: virtual}
	}

	needed, interesting, err := p.collectColumns(stmt, items, scopes)
	if err != nil {
		return nil, err
	}

	// Build scans with projection choice and predicate pushdown.
	whereConjuncts := splitConjuncts(stmt.Where)
	var postJoinPred []expr.Expr
	for i, sc := range scopes {
		scan, err := p.buildScan(sc, needed[i], interesting[i])
		if err != nil {
			return nil, err
		}
		sc.scan = scan
	}
	// Push single-table conjuncts into scans; keep the rest.
	for _, cj := range whereConjuncts {
		pushed := false
		for _, sc := range scopes {
			if refersOnlyTo(cj, sc.scan.OutSchema) {
				bound := cloneExpr(cj)
				if err := resolveAndBind(bound, sc.scan.OutSchema); err != nil {
					return nil, err
				}
				sc.scan.Pred = expr.And(sc.scan.Pred, bound)
				pushed = true
				break
			}
		}
		if !pushed {
			postJoinPred = append(postJoinPred, cj)
		}
	}

	// Left-deep join tree.
	var root Node = scopes[0].scan
	for ji, j := range stmt.Joins {
		right := scopes[ji+1].scan
		node, err := p.buildJoin(root, right, j.On)
		if err != nil {
			return nil, err
		}
		root = node
	}

	// Post-join WHERE remainder.
	if len(postJoinPred) > 0 {
		combined := expr.And(postJoinPred...)
		bound := cloneExpr(combined)
		if err := resolveAndBind(bound, root.Schema()); err != nil {
			return nil, err
		}
		root = &Filter{Input: root, Pred: bound}
	}

	hasAgg := false
	for _, it := range items {
		if it.Agg != nil {
			hasAgg = true
		}
	}

	var outputNames []string
	if hasAgg || len(stmt.GroupBy) > 0 {
		root, outputNames, err = p.buildAggregation(stmt, items, root)
		if err != nil {
			return nil, err
		}
	} else {
		// Plain projection.
		var exprs []expr.Expr
		var names []string
		for _, it := range items {
			e := cloneExpr(it.Expr)
			if err := resolveAndBind(e, root.Schema()); err != nil {
				return nil, err
			}
			exprs = append(exprs, e)
			names = append(names, outputName(it))
		}
		proj := &Project{Input: root, Exprs: exprs, Names: names}
		proj.out = make(types.Schema, len(exprs))
		for i, e := range exprs {
			proj.out[i] = types.Column{Name: names[i], Type: e.Type()}
		}
		root = proj
		outputNames = names
		if stmt.Having != nil {
			return nil, fmt.Errorf("planner: HAVING requires aggregation")
		}
	}

	if stmt.Distinct {
		root = distinctOver(root)
	}

	// ORDER BY against the output schema.
	if len(stmt.OrderBy) > 0 {
		keys, err := p.orderKeys(stmt.OrderBy, root.Schema(), outputNames)
		if err != nil {
			return nil, err
		}
		root = &Sort{Input: root, Keys: keys}
	}
	if stmt.Limit >= 0 {
		root = &Limit{Input: root, N: stmt.Limit}
	}

	return &Plan{Root: root, OutputNames: outputNames}, nil
}

func joinRefs(joins []sql.Join) []sql.TableRef {
	out := make([]sql.TableRef, len(joins))
	for i, j := range joins {
		out[i] = j.Table
	}
	return out
}

// expandStar rewrites SELECT * into explicit column items.
func (p *sessionPlanner) expandStar(stmt *sql.Select) ([]sql.SelectItem, error) {
	var out []sql.SelectItem
	for _, it := range stmt.Items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		refs := append([]sql.TableRef{stmt.From}, joinRefs(stmt.Joins)...)
		for _, r := range refs {
			tbl, _, ok := p.resolveTable(r.Table)
			if !ok {
				return nil, fmt.Errorf("planner: unknown table %q", r.Table)
			}
			for _, c := range tbl.Columns {
				name := c.Name
				if len(refs) > 1 {
					name = qualify(r.Name(), c.Name)
				}
				out = append(out, sql.SelectItem{Expr: expr.Col(name), Alias: c.Name})
			}
		}
	}
	return out, nil
}

// collectColumns finds, per table scope, the set of its columns the query
// references (needed) and those used as join or group keys (interesting).
func (p *sessionPlanner) collectColumns(stmt *sql.Select, items []sql.SelectItem, scopes []*tableScope) (needed []map[string]bool, interesting []map[string]bool, err error) {
	needed = make([]map[string]bool, len(scopes))
	interesting = make([]map[string]bool, len(scopes))
	for i := range scopes {
		needed[i] = map[string]bool{}
		interesting[i] = map[string]bool{}
	}
	// resolveOwner finds which scope a reference belongs to.
	resolveOwner := func(ref string) (int, string, error) {
		low := strings.ToLower(ref)
		if i := strings.LastIndexByte(low, '.'); i >= 0 {
			alias, col := low[:i], low[i+1:]
			for si, sc := range scopes {
				if strings.ToLower(sc.ref.Name()) == alias {
					if sc.tbl.Columns.ColumnIndex(col) < 0 {
						return 0, "", fmt.Errorf("planner: table %q has no column %q", sc.ref.Name(), col)
					}
					return si, col, nil
				}
			}
			return 0, "", fmt.Errorf("planner: unknown table alias in %q", ref)
		}
		found := -1
		for si, sc := range scopes {
			if sc.tbl.Columns.ColumnIndex(low) >= 0 {
				if found >= 0 {
					return 0, "", fmt.Errorf("planner: ambiguous column %q", ref)
				}
				found = si
			}
		}
		if found < 0 {
			return 0, "", fmt.Errorf("planner: unknown column %q", ref)
		}
		return found, low, nil
	}
	addRefs := func(e expr.Expr, markInteresting bool) error {
		for _, name := range columnRefNames(e) {
			si, col, err := resolveOwner(name)
			if err != nil {
				return err
			}
			needed[si][col] = true
			if markInteresting {
				interesting[si][col] = true
			}
		}
		return nil
	}
	for _, it := range items {
		if it.Expr != nil {
			if err := addRefs(it.Expr, false); err != nil {
				return nil, nil, err
			}
		}
		if it.Agg != nil && it.Agg.Arg != nil {
			if err := addRefs(it.Agg.Arg, false); err != nil {
				return nil, nil, err
			}
		}
	}
	if stmt.Where != nil {
		if err := addRefs(stmt.Where, false); err != nil {
			return nil, nil, err
		}
	}
	for _, j := range stmt.Joins {
		if err := addRefs(j.On, true); err != nil {
			return nil, nil, err
		}
	}
	for _, g := range stmt.GroupBy {
		if err := addRefs(g, true); err != nil {
			return nil, nil, err
		}
	}
	for _, o := range stmt.OrderBy {
		if o.Expr != nil {
			// Order keys may reference aliases; ignore resolution
			// failures here (handled against the output schema later).
			_ = addRefs(o.Expr, false)
		}
	}
	return needed, interesting, nil
}

// buildScan chooses a projection and constructs the scan node.
func (p *sessionPlanner) buildScan(sc *tableScope, needed, interesting map[string]bool) (*Scan, error) {
	// Virtual tables have no projections: the scan reads the synthesized
	// schema directly and materializes on the initiator (Replicated), so
	// joins against them are always local and predicate pushdown applies
	// to the materialized batch.
	if sc.virtual {
		if len(needed) == 0 && len(sc.tbl.Columns) > 0 {
			needed = map[string]bool{strings.ToLower(sc.tbl.Columns[0].Name): true}
		}
		var cols []string
		var outSchema types.Schema
		for _, c := range sc.tbl.Columns {
			if !needed[strings.ToLower(c.Name)] {
				continue
			}
			cols = append(cols, c.Name)
			outSchema = append(outSchema, types.Column{
				Name: qualify(sc.ref.Name(), c.Name),
				Type: c.Type,
			})
		}
		return &Scan{
			Table:      sc.tbl,
			Alias:      sc.ref.Name(),
			Cols:       cols,
			OutSchema:  outSchema,
			Replicated: true,
			Virtual:    true,
		}, nil
	}

	snap := p.opts.Snapshot
	projs := snap.ProjectionsOf(sc.tbl.OID)
	if len(projs) == 0 {
		return nil, fmt.Errorf("planner: table %q has no projections", sc.tbl.Name)
	}
	var best *catalog.Projection
	bestScore := -1 << 30
	for _, proj := range projs {
		if proj.BuddyOffset > 0 && !p.opts.UseBuddies {
			continue
		}
		if proj.IsLiveAggregate() {
			// Live aggregates answer only matching aggregate queries,
			// handled by the rewrite path; their row counts differ from
			// the base table.
			continue
		}
		if !projectionCovers(proj, needed) {
			continue
		}
		score := 0
		if len(proj.SegmentCols) > 0 {
			all := true
			for _, s := range proj.SegmentCols {
				if !interesting[strings.ToLower(s)] {
					all = false
					break
				}
			}
			if all && len(interesting) > 0 {
				score += 8
			}
		} else {
			score += 4 // replicated: always local
		}
		// Narrower projections win ties.
		score -= len(proj.Columns)
		if score > bestScore || (score == bestScore && best != nil && proj.OID < best.OID) {
			best, bestScore = proj, score
		}
	}
	if best == nil {
		return nil, fmt.Errorf("planner: no projection of %q covers columns %v", sc.tbl.Name, keys(needed))
	}

	// A query referencing no columns (e.g. SELECT COUNT(*)) still scans
	// one column to drive row counts; pick the projection's first.
	if len(needed) == 0 && len(best.Columns) > 0 {
		needed = map[string]bool{strings.ToLower(best.Columns[0]): true}
	}

	// Scan columns in projection order, qualified output names.
	var cols []string
	var outSchema types.Schema
	for _, c := range best.Columns {
		if !needed[strings.ToLower(c)] {
			continue
		}
		idx := sc.tbl.Columns.ColumnIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("planner: projection %q column %q missing from table", best.Name, c)
		}
		cols = append(cols, c)
		outSchema = append(outSchema, types.Column{
			Name: qualify(sc.ref.Name(), c),
			Type: sc.tbl.Columns[idx].Type,
		})
	}
	scan := &Scan{
		Table:      sc.tbl,
		Proj:       best,
		Alias:      sc.ref.Name(),
		Cols:       cols,
		OutSchema:  outSchema,
		Replicated: best.Replicated(),
	}
	if !best.Replicated() && !p.opts.AssumeNoSegmentation {
		for _, s := range best.SegmentCols {
			pos := outSchema.ColumnIndex(qualify(sc.ref.Name(), s))
			if pos < 0 {
				// Segmentation column not read by the query; scan still
				// knows its segmentation but positions are unusable.
				scan.SegmentCols = nil
				break
			}
			scan.SegmentCols = append(scan.SegmentCols, pos)
		}
	}
	return scan, nil
}

func projectionCovers(p *catalog.Projection, needed map[string]bool) bool {
	have := map[string]bool{}
	for _, c := range p.Columns {
		have[strings.ToLower(c)] = true
	}
	for n := range needed {
		if !have[n] {
			return false
		}
	}
	return true
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// buildJoin extracts equi-join keys from the ON condition and picks a
// strategy.
func (p *sessionPlanner) buildJoin(left Node, right *Scan, on expr.Expr) (*Join, error) {
	outSchema := append(append(types.Schema{}, left.Schema()...), right.Schema()...)
	j := &Join{Left: left, Right: right, outSchema: outSchema}

	var residual []expr.Expr
	for _, cj := range splitConjuncts(on) {
		b, ok := cj.(*expr.Binary)
		if ok && b.Op == expr.OpEq {
			lc, lok := b.L.(*expr.ColumnRef)
			rc, rok := b.R.(*expr.ColumnRef)
			if lok && rok {
				lName, lErr := resolveName(lc.Name, left.Schema())
				rName, rErr := resolveName(rc.Name, right.Schema())
				if lErr == nil && rErr == nil {
					j.LeftKeys = append(j.LeftKeys, left.Schema().ColumnIndex(lName))
					j.RightKeys = append(j.RightKeys, right.Schema().ColumnIndex(rName))
					continue
				}
				// Maybe the sides are swapped.
				lName2, lErr2 := resolveName(rc.Name, left.Schema())
				rName2, rErr2 := resolveName(lc.Name, right.Schema())
				if lErr2 == nil && rErr2 == nil {
					j.LeftKeys = append(j.LeftKeys, left.Schema().ColumnIndex(lName2))
					j.RightKeys = append(j.RightKeys, right.Schema().ColumnIndex(rName2))
					continue
				}
			}
		}
		residual = append(residual, cj)
	}
	if len(j.LeftKeys) == 0 {
		return nil, fmt.Errorf("planner: join requires at least one equi-join condition")
	}
	if len(residual) > 0 {
		combined := expr.And(residual...)
		bound := cloneExpr(combined)
		if err := resolveAndBind(bound, outSchema); err != nil {
			return nil, err
		}
		j.ResidualPred = bound
	}

	leftSeg := segmentColsOf(left)
	j.Strategy = p.pickJoinStrategy(j, leftSeg, right)
	j.OutSegmentCols = p.joinOutputSegmentation(j, leftSeg, right)
	return j, nil
}

func (p *sessionPlanner) pickJoinStrategy(j *Join, leftSeg []int, right *Scan) JoinStrategy {
	// Replicated right side: every node holds it entirely.
	if right.Replicated {
		return JoinLocal
	}
	// Co-segmentation: both sides segmented on aligned join keys (§4:
	// "identical values will be hashed to same value, be stored in the
	// same shard, and served by the same node").
	if len(leftSeg) > 0 && len(right.SegmentCols) > 0 && len(leftSeg) == len(right.SegmentCols) {
		aligned := true
		for i := range leftSeg {
			li := indexOf(j.LeftKeys, leftSeg[i])
			ri := indexOf(j.RightKeys, right.SegmentCols[i])
			if li < 0 || ri < 0 || li != ri {
				aligned = false
				break
			}
		}
		if aligned {
			return JoinLocal
		}
	}
	// Small right side: broadcast.
	if p.opts.BroadcastRowLimit > 0 && p.tableRows(right) <= p.opts.BroadcastRowLimit {
		return JoinBroadcastRight
	}
	return JoinReshuffleBoth
}

// joinOutputSegmentation reports how the join output stays segmented.
func (p *sessionPlanner) joinOutputSegmentation(j *Join, leftSeg []int, right *Scan) []int {
	switch j.Strategy {
	case JoinLocal, JoinBroadcastRight:
		return leftSeg // left rows stay where they were
	case JoinReshuffleBoth:
		// Output is partitioned by the join keys (left positions).
		return append([]int(nil), j.LeftKeys...)
	}
	return nil
}

func (p *sessionPlanner) tableRows(s *Scan) int64 {
	var rows int64
	for _, sc := range p.opts.Snapshot.ContainersOf(s.Proj.OID, catalog.GlobalShard) {
		rows += sc.RowCount
	}
	return rows
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// distinctOver deduplicates input. A distinct compares every column, so
// any segmentation the stream keeps is covered: equal rows are on one
// node and the per-node pass is final (§4).
func distinctOver(input Node) *DistinctNode {
	return &DistinctNode{Input: input, Local: len(segmentColsOf(input)) > 0}
}

// segmentColsOf tracks segmentation positions through the plan.
func segmentColsOf(n Node) []int {
	switch t := n.(type) {
	case *Scan:
		return t.SegmentCols
	case *Join:
		return t.OutSegmentCols
	case *Filter:
		return segmentColsOf(t.Input)
	case *Project:
		// A segmentation column survives only as a bare column output.
		in := segmentColsOf(t.Input)
		out := make([]int, len(in))
		for i, sc := range in {
			out[i] = slices.IndexFunc(t.Exprs, func(e expr.Expr) bool {
				c, ok := e.(*expr.ColumnRef)
				return ok && c.Index == sc
			})
			if out[i] < 0 {
				return nil
			}
		}
		return out
	}
	return nil
}

func outputName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if it.Agg != nil {
		if it.Agg.Arg != nil {
			return strings.ToLower(it.Agg.Op.String()) + "(" + it.Agg.Arg.String() + ")"
		}
		return "count(*)"
	}
	if c, ok := it.Expr.(*expr.ColumnRef); ok {
		return baseColumn(c.Name)
	}
	return it.Expr.String()
}
