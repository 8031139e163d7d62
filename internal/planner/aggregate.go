package planner

import (
	"fmt"
	"strings"

	"eon/internal/exec"
	"eon/internal/expr"
	"eon/internal/sql"
	"eon/internal/types"
)

// outMap records whether a select item maps to a group key or an
// aggregate, and its position within that group.
type outMap struct {
	isKey bool
	pos   int
}

// buildAggregation plans GROUP BY / aggregate queries: the Aggregate node
// over the input stream, a final Project mapping select items to the
// aggregate output, and HAVING as a filter over that output.
func (p *sessionPlanner) buildAggregation(stmt *sql.Select, items []sql.SelectItem, input Node) (Node, []string, error) {
	inSchema := input.Schema()

	// Group keys, bound to the input stream.
	var keyExprs []expr.Expr
	var keyNames []string
	keyText := map[string]int{} // rendered expr -> key position
	for _, g := range stmt.GroupBy {
		bound := cloneExpr(g)
		if err := resolveAndBind(bound, inSchema); err != nil {
			return nil, nil, err
		}
		keyText[bound.String()] = len(keyExprs)
		keyExprs = append(keyExprs, bound)
		keyNames = append(keyNames, fmt.Sprintf("_k%d", len(keyExprs)-1))
	}

	// Plain select items must match a group key; aggregates become
	// AggDefs.
	var outs []outMap
	var aggs []exec.AggDef
	countDistincts := 0
	for _, it := range items {
		if it.Agg == nil {
			bound := cloneExpr(it.Expr)
			if err := resolveAndBind(bound, inSchema); err != nil {
				return nil, nil, err
			}
			pos, ok := keyText[bound.String()]
			if !ok {
				return nil, nil, fmt.Errorf("planner: %s must appear in GROUP BY", bound)
			}
			outs = append(outs, outMap{isKey: true, pos: pos})
			continue
		}
		def := exec.AggDef{Name: fmt.Sprintf("_a%d", len(aggs))}
		if it.Agg.Arg != nil {
			bound := cloneExpr(it.Agg.Arg)
			if err := resolveAndBind(bound, inSchema); err != nil {
				return nil, nil, err
			}
			def.Arg = bound
		}
		switch it.Agg.Op {
		case sql.AggCountStar:
			def.Kind = exec.AggCountStar
		case sql.AggCount:
			def.Kind = exec.AggCount
		case sql.AggCountDistinct:
			def.Kind = exec.AggCount
			countDistincts++
		case sql.AggSum:
			def.Kind = exec.AggSum
		case sql.AggAvg:
			def.Kind = exec.AggAvg
		case sql.AggMin:
			def.Kind = exec.AggMin
		case sql.AggMax:
			def.Kind = exec.AggMax
		default:
			return nil, nil, fmt.Errorf("planner: unsupported aggregate %v", it.Agg.Op)
		}
		outs = append(outs, outMap{isKey: false, pos: len(aggs)})
		aggs = append(aggs, def)
	}

	// Distribution mode: if the stream's segmentation columns are all
	// group keys, groups are node-disjoint (§4).
	mode := AggTwoPhase
	segCols := segmentColsOf(input)
	if len(segCols) > 0 && len(keyExprs) > 0 && segColsCovered(segCols, keyExprs, inSchema) {
		mode = AggLocalFinal
	}

	var aggNode Node
	if countDistincts > 0 {
		if len(aggs) != 1 {
			return nil, nil, fmt.Errorf("planner: COUNT(DISTINCT) cannot be combined with other aggregates")
		}
		// Deduplicate (keys, arg) first, then count per key group.
		distinctExprs := append(append([]expr.Expr{}, keyExprs...), aggs[0].Arg)
		distinctNames := append(append([]string{}, keyNames...), "_dv")
		proj := &Project{Input: input, Exprs: distinctExprs, Names: distinctNames}
		proj.out = make(types.Schema, len(distinctExprs))
		for i, e := range distinctExprs {
			proj.out[i] = types.Column{Name: distinctNames[i], Type: e.Type()}
		}
		// Local when keys ∪ arg cover the segmentation: each node's
		// distinct pairs are then final and its counts add up.
		dn := distinctOver(proj)
		// Rebind keys and the count arg against the distinct output.
		var keys2 []expr.Expr
		for i := range keyExprs {
			c := expr.Col(distinctNames[i])
			if err := expr.Bind(c, proj.out); err != nil {
				return nil, nil, err
			}
			keys2 = append(keys2, c)
		}
		argRef := expr.Col("_dv")
		if err := expr.Bind(argRef, proj.out); err != nil {
			return nil, nil, err
		}
		countMode := AggInitiatorOnly
		if mode == AggLocalFinal {
			countMode = AggLocalFinal
		} else if dn.Local {
			countMode = AggTwoPhase
		}
		agg := &Aggregate{
			Input:    dn,
			Keys:     keys2,
			KeyNames: keyNames,
			Aggs:     []exec.AggDef{{Kind: exec.AggCount, Arg: argRef, Name: "_a0"}},
			Mode:     countMode,
		}
		agg.out = aggOutputSchema(agg)
		aggNode = agg
	} else {
		agg := &Aggregate{Input: input, Keys: keyExprs, KeyNames: keyNames, Aggs: aggs, Mode: mode}
		agg.out = aggOutputSchema(agg)
		aggNode = agg
	}

	// Final projection: select items in order over the aggregate output.
	aggSchema := aggNode.Schema()
	var exprs []expr.Expr
	var names []string
	for i, it := range items {
		var ref *expr.ColumnRef
		if outs[i].isKey {
			ref = expr.Col(keyNames[outs[i].pos])
		} else {
			ref = expr.Col(fmt.Sprintf("_a%d", outs[i].pos))
		}
		if err := expr.Bind(ref, aggSchema); err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, ref)
		names = append(names, outputName(it))
	}

	var root Node = aggNode

	// HAVING filters the aggregate output; references use select aliases
	// or group-by expressions.
	if stmt.Having != nil {
		having := cloneExpr(stmt.Having)
		if err := p.bindHaving(having, items, outs, keyNames, aggSchema); err != nil {
			return nil, nil, err
		}
		root = &Filter{Input: root, Pred: having}
	}

	proj := &Project{Input: root, Exprs: exprs, Names: names}
	proj.out = make(types.Schema, len(exprs))
	for i, e := range exprs {
		proj.out[i] = types.Column{Name: names[i], Type: e.Type()}
	}
	return proj, names, nil
}

// aggOutputSchema computes the logical (final) output schema of an
// aggregate node: key columns then aggregate columns. Execution may emit
// a different partial schema in two-phase mode; this is the post-merge
// shape.
func aggOutputSchema(a *Aggregate) types.Schema {
	var out types.Schema
	for i, k := range a.Keys {
		out = append(out, types.Column{Name: a.KeyNames[i], Type: k.Type()})
	}
	for _, d := range a.Aggs {
		out = append(out, types.Column{Name: d.Name, Type: aggResultType(d)})
	}
	return out
}

func aggResultType(d exec.AggDef) types.Type {
	switch d.Kind {
	case exec.AggCountStar, exec.AggCount, exec.AggCountMerge:
		return types.Int64
	case exec.AggAvg, exec.AggAvgMerge:
		return types.Float64
	case exec.AggSum:
		if d.Arg != nil && d.Arg.Type().Physical() == types.Float64 {
			return types.Float64
		}
		return types.Int64
	default:
		if d.Arg != nil {
			return d.Arg.Type()
		}
		return types.Unknown
	}
}

// segColsCovered reports whether every segmentation column position
// appears as a plain column-reference group key.
func segColsCovered(segCols []int, keys []expr.Expr, schema types.Schema) bool {
	for _, sc := range segCols {
		covered := false
		for _, k := range keys {
			if c, ok := k.(*expr.ColumnRef); ok && c.Index == sc {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// bindHaving resolves HAVING references: select aliases map to the
// aggregate output columns; bare column names map to group keys.
func (p *sessionPlanner) bindHaving(e expr.Expr, items []sql.SelectItem, outs []outMap, keyNames []string, aggSchema types.Schema) error {
	aliasTo := map[string]string{}
	for i, it := range items {
		var target string
		if outs[i].isKey {
			target = keyNames[outs[i].pos]
		} else {
			target = fmt.Sprintf("_a%d", outs[i].pos)
		}
		aliasTo[strings.ToLower(outputName(it))] = target
		if it.Alias != "" {
			aliasTo[strings.ToLower(it.Alias)] = target
		}
	}
	var rewrite func(expr.Expr) error
	rewrite = func(x expr.Expr) error {
		switch n := x.(type) {
		case *expr.ColumnRef:
			if t, ok := aliasTo[strings.ToLower(n.Name)]; ok {
				n.Name = t
			}
			return nil
		case *expr.Binary:
			if err := rewrite(n.L); err != nil {
				return err
			}
			return rewrite(n.R)
		case *expr.Unary:
			return rewrite(n.E)
		case *expr.IsNull:
			return rewrite(n.E)
		case *expr.In:
			if err := rewrite(n.E); err != nil {
				return err
			}
			for _, a := range n.List {
				if err := rewrite(a); err != nil {
					return err
				}
			}
			return nil
		case *expr.Like:
			return rewrite(n.E)
		case *expr.Case:
			for _, w := range n.Whens {
				if err := rewrite(w.Cond); err != nil {
					return err
				}
				if err := rewrite(w.Then); err != nil {
					return err
				}
			}
			if n.Else != nil {
				return rewrite(n.Else)
			}
			return nil
		case *expr.Func:
			for _, a := range n.Args {
				if err := rewrite(a); err != nil {
					return err
				}
			}
			return nil
		}
		return nil
	}
	if err := rewrite(e); err != nil {
		return err
	}
	return resolveAndBind(e, aggSchema)
}

// orderKeys resolves ORDER BY items to output column positions.
func (p *sessionPlanner) orderKeys(orderBy []sql.OrderItem, outSchema types.Schema, outputNames []string) ([]exec.SortSpec, error) {
	var keys []exec.SortSpec
	for _, o := range orderBy {
		if o.Position > 0 {
			if o.Position > len(outSchema) {
				return nil, fmt.Errorf("planner: ORDER BY position %d out of range", o.Position)
			}
			keys = append(keys, exec.SortSpec{Col: o.Position - 1, Desc: o.Desc})
			continue
		}
		// Match an output name / alias first.
		if c, ok := o.Expr.(*expr.ColumnRef); ok {
			matched := -1
			for i, n := range outputNames {
				if strings.EqualFold(n, c.Name) || strings.EqualFold(baseColumn(n), baseColumn(c.Name)) {
					matched = i
					break
				}
			}
			if matched >= 0 {
				keys = append(keys, exec.SortSpec{Col: matched, Desc: o.Desc})
				continue
			}
		}
		return nil, fmt.Errorf("planner: ORDER BY must reference an output column (got %s)", o.Expr)
	}
	return keys, nil
}
