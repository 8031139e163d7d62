package main

import (
	"context"
	"fmt"
	"time"

	"eon/internal/exec"
	"eon/internal/expr"
	"eon/internal/planner"
	"eon/internal/sql"
	"eon/internal/storage"
	"eon/internal/types"
	"eon/internal/workload"
)

// Stage replays: after the measured loop the harness calls one layer's
// public entry point directly, on the workload's own statements or on a
// seed-derived sample of its data, and times it in isolation. They say
// what a layer costs by itself; the counters and spans say how often the
// workload pays it. Every replay touches only exported functions.

// replays runs every stage replay against the cluster as the measured
// loop left it.
func (e *env) replays(m *metrics) error {
	for _, replay := range []func(*metrics) error{
		e.replayFrontEnd, e.replayStorage, e.replayCacheHit, e.replayQueryFloor, e.replayKernels,
	} {
		if err := replay(m); err != nil {
			return err
		}
	}
	return nil
}

// perCall times fn in 5 chunks of reps calls and returns the median
// chunk's time per call.
func perCall(reps int, fn func() error) (time.Duration, error) {
	var chunks []float64
	for c := 0; c < 5; c++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		chunks = append(chunks, float64(time.Since(start))/float64(reps))
	}
	return time.Duration(median(chunks)), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mrows is millions of rows per second.
func mrows(rows int, d time.Duration) float64 {
	return ratio(float64(rows)/1e6, d.Seconds())
}

// replayFrontEnd times sql.Normalize, sql.Parse and planner.PlanSelect
// round-robin over the workload's query templates.
func (e *env) replayFrontEnd(m *metrics) error {
	var texts []string
	var asts []*sql.Select
	for _, t := range e.w.templates {
		if t.sql == "" {
			continue
		}
		stmt, err := sql.Parse(t.sql)
		if err != nil {
			return fmt.Errorf("replay parse %s: %w", t.name, err)
		}
		texts = append(texts, t.sql)
		asts = append(asts, stmt.(*sql.Select))
	}
	snap := e.db.Nodes()[0].Catalog().Snapshot()
	i := 0
	next := func() int { i++; return i % len(texts) }
	d, err := perCall(400, func() error { _ = sql.Normalize(texts[next()]); return nil })
	if err != nil {
		return err
	}
	m.set("sql.normalize_us_per_stmt", us(d))
	if d, err = perCall(200, func() error { _, err := sql.Parse(texts[next()]); return err }); err != nil {
		return err
	}
	m.set("sql.parse_us_per_stmt", us(d))
	d, err = perCall(200, func() error {
		_, err := planner.PlanSelect(sql.CloneSelect(asts[next()]), planner.Options{Snapshot: snap})
		return err
	})
	if err != nil {
		return err
	}
	m.set("planner.plan_us_per_stmt", us(d))
	return nil
}

// schemaOf returns the schema a CREATE TABLE statement in ddl gives table.
func schemaOf(ddl []string, table string) (types.Schema, error) {
	for _, text := range ddl {
		stmt, err := sql.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if ct, ok := stmt.(*sql.CreateTable); ok && ct.Name == table {
			var s types.Schema
			for _, c := range ct.Cols {
				s = append(s, types.Column{Name: c.Name, Type: c.Type})
			}
			return s, nil
		}
	}
	return nil, fmt.Errorf("replay: no CREATE TABLE %s in DDL", table)
}

func drain(op exec.Operator) error {
	for {
		b, err := op.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
	}
}

// replayKernels times the expression kernels and the pipeline-breaking
// operators on a 40k-row lineitem sample and its part table.
func (e *env) replayKernels(m *metrics) error {
	gen := workload.DefaultTPCH(1)
	gen.Seed = e.seed
	tables := gen.Tables()
	li, part := tables["lineitem"], tables["part"]
	liSchema, err := schemaOf(gen.DDL(), "lineitem")
	if err != nil {
		return err
	}
	partSchema, err := schemaOf(gen.DDL(), "part")
	if err != nil {
		return err
	}
	col := func(name string) expr.Expr {
		c := expr.Col(name)
		if err := expr.Bind(c, liSchema); err != nil {
			panic(err) // the names below are literals from the DDL above
		}
		return c
	}
	rows := li.NumRows()

	pred, err := sql.ParseExpr(`l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
		AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`)
	if err != nil {
		return fmt.Errorf("replay: Q6 predicate: %w", err)
	}
	if err := expr.Bind(pred, liSchema); err != nil {
		return fmt.Errorf("replay: bind Q6 predicate: %w", err)
	}
	d, err := perCall(20, func() error { _, err := expr.FilterVec(pred, li, nil, nil); return err })
	if err != nil {
		return err
	}
	m.set("expr.filter_mrows_s", mrows(rows, d))

	if d, err = perCall(4, func() error {
		return drain(exec.NewHashAggregate(exec.NewSource(liSchema, li),
			[]expr.Expr{col("l_returnflag"), col("l_linestatus")}, []string{"l_returnflag", "l_linestatus"},
			[]exec.AggDef{{Kind: exec.AggSum, Arg: col("l_quantity"), Name: "q"}, {Kind: exec.AggCountStar, Name: "n"}}, false))
	}); err != nil {
		return err
	}
	m.set("exec.hashagg_mrows_s", mrows(rows, d))

	if d, err = perCall(4, func() error {
		return drain(exec.NewHashJoin(exec.NewSource(partSchema, part), exec.NewSource(liSchema, li),
			[]int{partSchema.ColumnIndex("p_partkey")}, []int{liSchema.ColumnIndex("l_partkey")}))
	}); err != nil {
		return err
	}
	m.set("exec.hashjoin_mrows_s", mrows(rows, d))

	if d, err = perCall(4, func() error {
		return drain(exec.NewSort(exec.NewSource(liSchema, li),
			[]exec.SortSpec{{Col: liSchema.ColumnIndex("l_extendedprice"), Desc: true}}))
	}); err != nil {
		return err
	}
	m.set("exec.sort_mrows_s", mrows(rows, d))
	return nil
}

// replayStorage times storage.BuildContainer and storage.ReadColumns on
// one copy-sized batch of readingsTable, the table every workload loads.
func (e *env) replayStorage(m *metrics) error {
	node := e.db.Nodes()[0]
	proj, ok := node.Catalog().Snapshot().ProjectionByName(readingsTable + "_super")
	if !ok {
		return fmt.Errorf("replay: projection %s_super not in catalog", readingsTable)
	}
	iot := workload.IoT{RowsPerLoad: copyRows, Seed: e.seed}
	batch, schema := iot.Batch(0), iot.Schema()
	raw := float64(userBytesOf(batch))
	spec := storage.WriteSpec{Projection: proj, Schema: schema}
	var built *storage.BuiltContainer
	d, err := perCall(10, func() error {
		var err error
		built, err = storage.BuildContainer(node.Catalog(), node.InstanceID(), spec, batch)
		return err
	})
	if err != nil {
		return fmt.Errorf("replay: build container: %w", err)
	}
	m.set("storage.build_mb_s", ratio(raw/1e6, d.Seconds()))
	m.set("colenc.ratio", ratio(float64(built.Meta.SizeBytes), raw))

	fetch := func(_ context.Context, path string) ([]byte, error) {
		data, ok := built.Files[path]
		if !ok {
			return nil, fmt.Errorf("replay: no file %s", path)
		}
		return data, nil
	}
	if d, err = perCall(10, func() error {
		_, err := storage.ReadColumns(context.Background(), built.Meta, schema, fetch, 1)
		return err
	}); err != nil {
		return fmt.Errorf("replay: read columns: %w", err)
	}
	m.set("storage.read_mb_s", ratio(raw/1e6, d.Seconds()))
	return nil
}

// replayCacheHit times Cache.Get on a file resident in a node's depot.
func (e *env) replayCacheHit(m *metrics) error {
	for _, n := range e.db.Nodes() {
		entries := n.Cache().Entries()
		if len(entries) == 0 {
			continue
		}
		path := entries[0].Path
		miss := func(context.Context, string) ([]byte, error) {
			return nil, fmt.Errorf("replay: %s left the depot", path)
		}
		d, err := perCall(200, func() error {
			_, err := n.Cache().Get(context.Background(), path, miss, false)
			return err
		})
		if err != nil {
			return err
		}
		m.set("cache.get_hit_us", us(d))
		return nil
	}
	return fmt.Errorf("replay: every depot is empty")
}

// replayQueryFloor times the cheapest possible query: COUNT(*) over the
// 25-row replicated tiny table, with a fresh parameter each time so the
// result cache never answers it. What is left is the fixed cost of the
// query lifecycle: normalize, plan-cache hit, bind, admission, slots,
// one fragment, gather.
func (e *env) replayQueryFloor(m *metrics) error {
	s := e.db.NewSession()
	k := int64(0)
	d, err := perCall(60, func() error {
		k--
		res, err := s.QueryArgs(tinyCount, types.NewInt(k))
		if err != nil {
			return err
		}
		if got := res.Batch.Cols[0].Ints[0]; got != tinyRows {
			return fmt.Errorf("replay: floor count %d, want %d", got, tinyRows)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("core.query_floor_us", us(d))
	return nil
}
