package exec

import (
	"eon/internal/expr"
	"eon/internal/types"
)

// Filter passes through rows satisfying a bound boolean predicate. On
// the vectorized engine it produces (batch, selection) pairs and never
// gathers unless a plain-Operator consumer forces it to.
type Filter struct {
	input Operator
	pred  expr.Expr
	Eng   Engine
}

// NewFilter wraps input with a predicate (already bound to the input
// schema).
func NewFilter(input Operator, pred expr.Expr) *Filter {
	return &Filter{input: input, pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() types.Schema { return f.input.Schema() }

// nextSel implements selOperator: the surviving rows are reported as a
// selection vector over the input batch, with no copying.
func (f *Filter) nextSel() (*types.Batch, []int, error) {
	if f.Eng.Row {
		b, err := f.Next()
		return b, nil, err
	}
	for {
		b, sel, err := pullSel(f.input)
		if err != nil || b == nil {
			return nil, nil, err
		}
		out, err := expr.FilterVec(f.pred, b, sel, f.Eng.Stats)
		if err != nil {
			return nil, nil, err
		}
		if len(out) > 0 {
			return b, out, nil
		}
	}
}

// Next implements Operator.
func (f *Filter) Next() (*types.Batch, error) {
	if f.Eng.Row {
		for {
			b, err := f.input.Next()
			if err != nil || b == nil {
				return nil, err
			}
			sel, err := expr.FilterBatch(f.pred, b)
			if err != nil {
				return nil, err
			}
			if len(sel) == b.NumRows() {
				return b, nil
			}
			if len(sel) > 0 {
				return b.Gather(sel), nil
			}
		}
	}
	b, sel, err := f.nextSel()
	if err != nil || b == nil {
		return nil, err
	}
	if len(sel) == b.NumRows() {
		// An ascending selection covering every row is the identity.
		return b, nil
	}
	return b.Gather(sel), nil
}

// Project computes one output column per bound expression.
type Project struct {
	input  Operator
	exprs  []expr.Expr
	schema types.Schema
	Eng    Engine
}

// NewProject wraps input with expression evaluation. names supplies the
// output column names (aliases).
func NewProject(input Operator, exprs []expr.Expr, names []string) *Project {
	schema := make(types.Schema, len(exprs))
	for i, e := range exprs {
		schema[i] = types.Column{Name: names[i], Type: e.Type()}
	}
	return &Project{input: input, exprs: exprs, schema: schema}
}

// Schema implements Operator.
func (p *Project) Schema() types.Schema { return p.schema }

// Next implements Operator.
func (p *Project) Next() (*types.Batch, error) {
	if p.Eng.Row {
		b, err := p.input.Next()
		if err != nil || b == nil {
			return nil, err
		}
		out := &types.Batch{Cols: make([]*types.Vector, len(p.exprs))}
		for i, e := range p.exprs {
			v, err := expr.EvalBatch(e, b)
			if err != nil {
				return nil, err
			}
			v.Typ = p.schema[i].Type
			out.Cols[i] = v
		}
		return out, nil
	}
	// Vectorized: consume the upstream selection directly — expressions
	// evaluate densely over the selected rows, so the filtered input is
	// never materialized.
	b, sel, err := pullSel(p.input)
	if err != nil || b == nil {
		return nil, err
	}
	out := &types.Batch{Cols: make([]*types.Vector, len(p.exprs))}
	for i, e := range p.exprs {
		v, err := expr.EvalVec(e, b, sel, p.Eng.Stats)
		if err != nil {
			return nil, err
		}
		if v.Typ != p.schema[i].Type {
			// EvalVec may return an input column unchanged; retype a
			// shallow copy rather than mutating shared storage.
			nv := *v
			nv.Typ = p.schema[i].Type
			v = &nv
		}
		out.Cols[i] = v
	}
	return out, nil
}
