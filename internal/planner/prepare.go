// Prepared-plan support: a planned SELECT containing bind parameters
// ("?" placeholders) is cached once and specialized per execution by
// BindParams, which substitutes literal argument values into copies of
// only the parameter-bearing nodes. Nodes without parameters are shared
// between the cached plan and every specialization, so executors must
// treat plan nodes as read-only (they do — execution state lives in
// exec operators, not plan nodes).
package planner

import (
	"fmt"

	"eon/internal/exec"
	"eon/internal/expr"
	"eon/internal/types"
)

// NumParams returns the highest bind-parameter ordinal referenced
// anywhere in the plan (0 for a parameter-free plan).
func NumParams(p *Plan) int {
	max := 0
	visit := func(e expr.Expr) {
		if e == nil {
			return
		}
		if n := expr.MaxParam(e); n > max {
			max = n
		}
	}
	walkNodes(p.Root, func(n Node) {
		forEachExpr(n, visit)
	})
	return max
}

// BindParams specializes a cached plan for one execution: every Param
// node is replaced by a Literal holding the corresponding argument, and
// the affected expressions are re-bound so operator result types (which
// could not be computed while the parameter value was unknown) are
// resolved. Only nodes on the path to a parameter are copied; the rest
// of the tree is shared with the cached plan and MUST NOT be mutated.
// A parameter-free plan is returned unchanged.
func BindParams(p *Plan, args []types.Datum) (*Plan, error) {
	need := NumParams(p)
	if need == 0 {
		if len(args) > 0 {
			return nil, fmt.Errorf("planner: statement takes no parameters, got %d", len(args))
		}
		return p, nil
	}
	if len(args) < need {
		return nil, fmt.Errorf("planner: statement takes %d parameters, got %d", need, len(args))
	}
	root, _, err := bindNodeParams(p.Root, args)
	if err != nil {
		return nil, err
	}
	return &Plan{Root: root, OutputNames: p.OutputNames}, nil
}

// bindExpr substitutes parameters into one expression and re-binds the
// substituted copy against schema. Expressions without parameters are
// returned as-is (still bound, shared with the cached plan) and are
// never re-bound: Bind mutates column references in place, and the
// shared original may be executing concurrently.
func bindExpr(e expr.Expr, args []types.Datum, schema types.Schema) (expr.Expr, bool, error) {
	if e == nil || !expr.HasParams(e) {
		return e, false, nil
	}
	out, err := expr.SubstituteParams(e, args)
	if err != nil {
		return nil, false, err
	}
	if err := expr.Bind(out, schema); err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// bindNodeParams returns a parameter-free copy of n (sharing untouched
// subtrees) and whether anything changed.
func bindNodeParams(n Node, args []types.Datum) (Node, bool, error) {
	switch t := n.(type) {
	case *Scan:
		pred, changed, err := bindExpr(t.Pred, args, t.OutSchema)
		if err != nil || !changed {
			return n, false, err
		}
		c := *t
		c.Pred = pred
		return &c, true, nil
	case *Filter:
		in, inChanged, err := bindNodeParams(t.Input, args)
		if err != nil {
			return nil, false, err
		}
		pred, predChanged, err := bindExpr(t.Pred, args, in.Schema())
		if err != nil {
			return nil, false, err
		}
		if !inChanged && !predChanged {
			return n, false, nil
		}
		c := *t
		c.Input = in
		c.Pred = pred
		return &c, true, nil
	case *Join:
		l, lc, err := bindNodeParams(t.Left, args)
		if err != nil {
			return nil, false, err
		}
		r, rc, err := bindNodeParams(t.Right, args)
		if err != nil {
			return nil, false, err
		}
		res, resc, err := bindExpr(t.ResidualPred, args, t.outSchema)
		if err != nil {
			return nil, false, err
		}
		if !lc && !rc && !resc {
			return n, false, nil
		}
		c := *t
		c.Left = l
		c.Right = r
		c.ResidualPred = res
		// The join output schema is the concatenation of the child
		// schemas; child columns cannot change shape from parameter
		// substitution, so outSchema carries over.
		return &c, true, nil
	case *Project:
		in, inChanged, err := bindNodeParams(t.Input, args)
		if err != nil {
			return nil, false, err
		}
		exprs := t.Exprs
		anyExpr := false
		for i, e := range t.Exprs {
			ne, changed, err := bindExpr(e, args, in.Schema())
			if err != nil {
				return nil, false, err
			}
			if changed && !anyExpr {
				exprs = append([]expr.Expr(nil), t.Exprs...)
				anyExpr = true
			}
			if anyExpr {
				exprs[i] = ne
			}
		}
		if !inChanged && !anyExpr {
			return n, false, nil
		}
		c := *t
		c.Input = in
		c.Exprs = exprs
		// Result types may have been unresolvable with unknown parameter
		// types; recompute the output schema from the bound expressions.
		c.out = make(types.Schema, len(exprs))
		for i, e := range exprs {
			c.out[i] = types.Column{Name: t.Names[i], Type: e.Type()}
		}
		return &c, true, nil
	case *Aggregate:
		in, inChanged, err := bindNodeParams(t.Input, args)
		if err != nil {
			return nil, false, err
		}
		keys := t.Keys
		anyKey := false
		for i, k := range t.Keys {
			nk, changed, err := bindExpr(k, args, in.Schema())
			if err != nil {
				return nil, false, err
			}
			if changed && !anyKey {
				keys = append([]expr.Expr(nil), t.Keys...)
				anyKey = true
			}
			if anyKey {
				keys[i] = nk
			}
		}
		aggs := t.Aggs
		anyAgg := false
		for i, d := range t.Aggs {
			na, ac, err := bindExpr(d.Arg, args, in.Schema())
			if err != nil {
				return nil, false, err
			}
			nc, cc, err := bindExpr(d.ArgCount, args, in.Schema())
			if err != nil {
				return nil, false, err
			}
			if (ac || cc) && !anyAgg {
				aggs = append([]exec.AggDef(nil), t.Aggs...)
				anyAgg = true
			}
			if anyAgg {
				aggs[i].Arg = na
				aggs[i].ArgCount = nc
			}
		}
		if !inChanged && !anyKey && !anyAgg {
			return n, false, nil
		}
		c := *t
		c.Input = in
		c.Keys = keys
		c.Aggs = aggs
		c.out = aggOutputSchema(&c)
		return &c, true, nil
	case *DistinctNode:
		in, changed, err := bindNodeParams(t.Input, args)
		if err != nil || !changed {
			return n, false, err
		}
		c := *t
		c.Input = in
		return &c, true, nil
	case *Sort:
		in, changed, err := bindNodeParams(t.Input, args)
		if err != nil || !changed {
			return n, false, err
		}
		c := *t
		c.Input = in
		return &c, true, nil
	case *Limit:
		in, changed, err := bindNodeParams(t.Input, args)
		if err != nil || !changed {
			return n, false, err
		}
		c := *t
		c.Input = in
		return &c, true, nil
	}
	return n, false, nil
}

// walkNodes visits every node of the plan tree, children first.
func walkNodes(n Node, fn func(Node)) {
	switch t := n.(type) {
	case *Filter:
		walkNodes(t.Input, fn)
	case *Join:
		walkNodes(t.Left, fn)
		walkNodes(t.Right, fn)
	case *Project:
		walkNodes(t.Input, fn)
	case *Aggregate:
		walkNodes(t.Input, fn)
	case *DistinctNode:
		walkNodes(t.Input, fn)
	case *Sort:
		walkNodes(t.Input, fn)
	case *Limit:
		walkNodes(t.Input, fn)
	}
	fn(n)
}

// forEachExpr visits every expression attached to a single plan node.
func forEachExpr(n Node, fn func(expr.Expr)) {
	switch t := n.(type) {
	case *Scan:
		fn(t.Pred)
	case *Filter:
		fn(t.Pred)
	case *Join:
		fn(t.ResidualPred)
	case *Project:
		for _, e := range t.Exprs {
			fn(e)
		}
	case *Aggregate:
		for _, k := range t.Keys {
			fn(k)
		}
		for _, d := range t.Aggs {
			fn(d.Arg)
			fn(d.ArgCount)
		}
	}
}

// Scans collects every Scan node in the plan, in child-first order.
func Scans(p *Plan) []*Scan {
	var out []*Scan
	walkNodes(p.Root, func(n Node) {
		if s, ok := n.(*Scan); ok {
			out = append(out, s)
		}
	})
	return out
}
