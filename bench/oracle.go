package main

import (
	"fmt"
	"math"

	"eon/internal/core"
	"eon/internal/types"
)

// floatTol is the relative difference allowed between a measured float
// and its reference. Distributed aggregation sums in a different order
// per cluster shape, so the last bits legitimately differ. Rounding both
// sides to a fixed number of digits would not do: the generated prices
// and discounts are short decimals, their sums land exactly on rounding
// boundaries, and the two sides then round apart.
const floatTol = 1e-9

func sameDatum(a, b types.Datum) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	if a.K.Physical() == types.Float64 && b.K.Physical() == types.Float64 {
		return math.Abs(a.F-b.F) <= floatTol*math.Max(math.Abs(a.F), math.Abs(b.F))
	}
	return a.Equal(b)
}

func sameRow(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameDatum(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameRows compares two result sets as multisets: equal row counts and
// a one-to-one pairing of rows. Results here have at most a few dozen
// rows, so the quadratic pairing costs nothing.
func sameRows(got, want []types.Row) bool {
	if len(got) != len(want) {
		return false
	}
	used := make([]bool, len(want))
next:
	for _, g := range got {
		for i, w := range want {
			if !used[i] && sameRow(g, w) {
				used[i] = true
				continue next
			}
		}
		return false
	}
	return true
}

// fillOracle sets the reference answer of every TPC-H-table query in
// the lists. The reference is a 1-node Enterprise-mode cluster (no
// shards, no shared storage, no depot) loaded with the same tables;
// each distinct (template, parameters) pair is executed there once.
// Queries over readingsTable already carry an arithmetic reference.
func fillOracle(w *workloadSpec, data *dataset, lists ...[][]op) error {
	if w.tpchScale == 0 {
		return nil
	}
	ref, err := core.Create(core.Config{Mode: core.ModeEnterprise, Nodes: []core.NodeSpec{{Name: "ref"}}})
	if err != nil {
		return fmt.Errorf("oracle: create: %w", err)
	}
	s := ref.NewSession()
	for _, stmt := range data.tpch.DDL() {
		if _, err := s.Execute(stmt); err != nil {
			return fmt.Errorf("oracle: ddl: %w", err)
		}
	}
	for _, name := range data.tpchNames {
		if err := ref.LoadRows(name, data.tpchData[name]); err != nil {
			return fmt.Errorf("oracle: load %s: %w", name, err)
		}
	}
	answers := map[string][]types.Row{}
	for _, clients := range lists {
		for _, ops := range clients {
			for i := range ops {
				o := &ops[i]
				if o.kind != opQuery {
					continue
				}
				key := fmt.Sprintf("%d|%v", o.tmpl, o.args)
				want, ok := answers[key]
				if !ok {
					res, err := s.QueryArgs(w.templates[o.tmpl].sql, o.args...)
					if err != nil {
						return fmt.Errorf("oracle: %s%v: %w", w.templates[o.tmpl].name, o.args, err)
					}
					want = res.Rows()
					answers[key] = want
				}
				o.want = want
			}
		}
	}
	return nil
}
