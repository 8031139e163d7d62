package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eon/internal/expr"
	"eon/internal/types"
)

// lendingSource replays copies of its batches the way a scan lends its
// vectors: each batch it returns is poisoned (types.Poison) as soon as it
// is pulled again, so a consumer that keeps a batch past its next pull
// without copying it reads poison instead of the rows it was handed.
type lendingSource struct {
	schema  types.Schema
	batches []*types.Batch
	lent    *types.Batch
}

func lend(schema types.Schema, batches ...*types.Batch) *lendingSource {
	return &lendingSource{schema: schema, batches: batches}
}

func (s *lendingSource) Schema() types.Schema { return s.schema }

func (s *lendingSource) Next() (*types.Batch, error) {
	if s.lent != nil {
		types.Poison(s.lent.Cols)
		s.lent = nil
	}
	for len(s.batches) > 0 {
		b := s.batches[0]
		s.batches = s.batches[1:]
		if b.NumRows() > 0 {
			s.lent = types.NewBatch(s.schema, b.NumRows())
			s.lent.AppendBatch(b)
			return s.lent, nil
		}
	}
	return nil, nil
}

// TestOperatorsKeepNoBatchPastItsPull runs each operator over sources
// that poison a batch once it is pulled again (the exec.Operator
// contract), with a free list that poisons what is given back to it,
// and checks it returns what it returns over plain sources without a
// list, on both engines: whatever an operator holds past its next pull —
// a join's buffered sides, a sort's input, the groups of an aggregate, a
// groupjoin or a distinct — it must have copied, and what it gives back to the list
// it must no longer need. Then the other side of the contract: a
// consumer that keeps an aggregate's, a groupjoin's or a distinct's output past the
// pull that returns end-of-stream reads poison, because the key table
// those columns are views of has gone back to the list.
func TestOperatorsKeepNoBatchPastItsPull(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	side := func(rows ...int) []*types.Batch {
		var out []*types.Batch
		for i, n := range rows {
			if i%2 == 1 {
				out = append(out, trickyOpBatch(r, n))
			} else {
				out = append(out, randOpBatch(r, n, 0.2))
			}
		}
		return out
	}
	small, large := side(7, 5, 9), side(30, 25, 40, 12)
	col := func(name string) expr.Expr { return mustBind(t, &expr.ColumnRef{Name: name}, diffOpSchema) }
	cases := []struct {
		name  string
		build func(eng Engine, src func(...*types.Batch) Operator) Operator
	}{
		{"filter", func(eng Engine, src func(...*types.Batch) Operator) Operator {
			f := NewFilter(src(large...), mustBind(t, randPred(r), diffOpSchema))
			f.Eng = eng
			return f
		}},
		{"project over filter", func(eng Engine, src func(...*types.Batch) Operator) Operator {
			f := NewFilter(src(large...), mustBind(t, randPred(r), diffOpSchema))
			f.Eng = eng
			p := NewProject(f, []expr.Expr{col("s"), col("k"), mustBind(t, expr.Bin(expr.OpMul, expr.Col("v"), expr.Col("v")), diffOpSchema)}, []string{"s", "k", "vv"})
			p.Eng = eng
			return p
		}},
		{"join first builds", func(eng Engine, src func(...*types.Batch) Operator) Operator {
			j := NewHashJoin(src(small...), src(large...), []int{0}, []int{0})
			j.Eng = eng
			return j
		}},
		{"join second builds", func(eng Engine, src func(...*types.Batch) Operator) Operator {
			j := NewHashJoin(src(large...), src(small...), []int{0, 2}, []int{0, 2})
			j.Eng, j.Build = eng, 1
			return j
		}},
		{"join both exchanged, larger builds", func(eng Engine, src func(...*types.Batch) Operator) Operator {
			j := NewHashJoin(src(large...), src(small...), []int{2}, []int{2})
			j.Eng, j.Exchanged = eng, [2]bool{true, true}
			return j
		}},
		{"aggregate", func(eng Engine, src func(...*types.Batch) Operator) Operator {
			aggs := []AggDef{
				{Kind: AggCountStar, Name: "n"},
				{Kind: AggSum, Arg: col("v"), Name: "sumv"},
				{Kind: AggMin, Arg: col("s"), Name: "mins"},
				{Kind: AggMax, Arg: col("d"), Name: "maxd"},
			}
			h := NewHashAggregate(src(large...), []expr.Expr{col("s"), col("k")}, []string{"s", "k"}, aggs, false)
			h.Eng = eng
			return h
		}},
		{"groupjoin", func(eng Engine, src func(...*types.Batch) Operator) Operator {
			// Fused on the vectorized engine; the row engine, which never
			// fuses, is the reference.
			gj := func(name string) expr.Expr { return mustBind(t, expr.Col(name), gjSchema) }
			j := NewHashJoin(src(small...), src(large...), []int{0}, []int{0})
			j.Eng = eng
			f := NewFilter(j, mustBind(t, expr.Bin(expr.OpLt, expr.Col("d"), expr.Col("d2")), gjSchema))
			f.Eng = eng
			aggs := []AggDef{{Kind: AggSum, Arg: gj("v2"), Name: "sumv"}, {Kind: AggMax, Arg: gj("s2"), Name: "maxs"}}
			h := NewHashAggregate(f, []expr.Expr{gj("s")}, []string{"s"}, aggs, false)
			h.Eng = eng
			if g := NewGroupJoin(h, f); g != nil {
				return g
			}
			return h
		}},
		{"distinct", func(eng Engine, src func(...*types.Batch) Operator) Operator {
			d := NewDistinct(src(large...))
			d.Eng = eng
			return d
		}},
		{"sort", func(_ Engine, src func(...*types.Batch) Operator) Operator {
			return NewSort(src(large...), []SortSpec{{Col: 2}, {Col: 0, Desc: true}, {Col: 1}, {Col: 3}})
		}},
		{"limit", func(_ Engine, src func(...*types.Batch) Operator) Operator {
			return NewLimit(src(large...), 50)
		}},
		{"collect", func(_ Engine, src func(...*types.Batch) Operator) Operator {
			return src(large...)
		}},
	}
	plain := func(b ...*types.Batch) Operator { return NewSource(diffOpSchema, b...) }
	lending := func(b ...*types.Batch) Operator { return lend(diffOpSchema, b...) }
	for _, c := range cases {
		for _, eng := range []Engine{{}, {Row: true}} {
			label := fmt.Sprintf("%s row=%v", c.name, eng.Row)
			// One seed per pair, so both runs draw the same predicate.
			seed := r.Int63()
			r.Seed(seed)
			want, err := Collect(c.build(eng, plain))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			r.Seed(seed)
			listed := eng
			listed.Free = NewFreeList(1)
			got, err := Collect(c.build(listed, lending))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if want.NumRows() == 0 {
				t.Fatalf("%s: the reference returned no row", label)
			}
			batchesEqual(t, label, want, got)
		}
	}

	for _, c := range cases {
		if c.name != "aggregate" && c.name != "groupjoin" && c.name != "distinct" {
			continue
		}
		op := c.build(Engine{Free: NewFreeList(1)}, lending)
		var kept []*types.Batch
		for {
			b, err := op.Next()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if b == nil {
				break
			}
			kept = append(kept, b)
		}
		if len(kept) == 0 {
			t.Fatalf("%s: no batch", c.name)
		}
		for _, b := range kept {
			for ci, v := range b.Cols {
				if at := unpoisoned(v); at >= 0 {
					t.Fatalf("%s: column %d row %d reads %v after end-of-stream, want poison", c.name, ci, at, v.Datum(at))
				}
			}
		}
	}
}

// unpoisoned returns the first row of v whose value is not the poison
// types.Poison writes, -1 if there is none. Null bitmaps are not read:
// poisoned, they mark every row NULL.
func unpoisoned(v *types.Vector) int {
	for i := range v.Len() {
		ok := false
		switch v.Typ.Physical() {
		case types.Int64:
			ok = v.Ints[i] == types.PoisonInt
		case types.Float64:
			ok = math.IsNaN(v.Floats[i])
		case types.Varchar:
			ok = v.Strs[i] == "☠"
		case types.Bool:
			ok = v.Bools[i]
		}
		if !ok {
			return i
		}
	}
	return -1
}
