package planner

import (
	"testing"

	"eon/internal/catalog"
	"eon/internal/sql"
	"eon/internal/types"
)

// testCatalog builds: orders(o_id, o_cust, o_amount, o_date) segmented by
// o_cust; customers(c_id, c_name, c_region) segmented by c_id; dim(d_id,
// d_label) replicated; plus a narrow orders projection (o_cust, o_amount)
// segmented by o_cust.
func testCatalog(t *testing.T) *catalog.Snapshot {
	t.Helper()
	c := catalog.New()
	txn := c.Begin()

	orders := &catalog.Table{OID: c.NewOID(), Name: "orders", Columns: types.Schema{
		{Name: "o_id", Type: types.Int64},
		{Name: "o_cust", Type: types.Int64},
		{Name: "o_amount", Type: types.Float64},
		{Name: "o_date", Type: types.Date},
	}}
	txn.Put(orders)
	ordersP := &catalog.Projection{
		OID: c.NewOID(), TableOID: orders.OID, Name: "orders_super",
		Columns: []string{"o_id", "o_cust", "o_amount", "o_date"},
		SortKey: []string{"o_date"}, SegmentCols: []string{"o_cust"},
	}
	txn.Put(ordersP)
	ordersNarrow := &catalog.Projection{
		OID: c.NewOID(), TableOID: orders.OID, Name: "orders_narrow",
		Columns: []string{"o_cust", "o_amount"},
		SortKey: []string{"o_cust"}, SegmentCols: []string{"o_cust"},
	}
	txn.Put(ordersNarrow)

	customers := &catalog.Table{OID: c.NewOID(), Name: "customers", Columns: types.Schema{
		{Name: "c_id", Type: types.Int64},
		{Name: "c_name", Type: types.Varchar},
		{Name: "c_region", Type: types.Varchar},
	}}
	txn.Put(customers)
	customersP := &catalog.Projection{
		OID: c.NewOID(), TableOID: customers.OID, Name: "customers_super",
		Columns: []string{"c_id", "c_name", "c_region"},
		SortKey: []string{"c_id"}, SegmentCols: []string{"c_id"},
	}
	txn.Put(customersP)

	dim := &catalog.Table{OID: c.NewOID(), Name: "dim", Columns: types.Schema{
		{Name: "d_id", Type: types.Int64},
		{Name: "d_label", Type: types.Varchar},
	}}
	txn.Put(dim)
	dimP := &catalog.Projection{
		OID: c.NewOID(), TableOID: dim.OID, Name: "dim_rep",
		Columns: []string{"d_id", "d_label"}, SortKey: []string{"d_id"},
	}
	txn.Put(dimP)

	if _, err := c.Commit(txn); err != nil {
		t.Fatal(err)
	}
	return c.Snapshot()
}

func planQuery(t *testing.T, snap *catalog.Snapshot, q string) *Plan {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := PlanSelect(stmt.(*sql.Select), Options{Snapshot: snap})
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return plan
}

func findScan(n Node) *Scan {
	switch t := n.(type) {
	case *Scan:
		return t
	case *Filter:
		return findScan(t.Input)
	case *Join:
		return findScan(t.Left)
	case *Project:
		return findScan(t.Input)
	case *Aggregate:
		return findScan(t.Input)
	case *DistinctNode:
		return findScan(t.Input)
	case *Sort:
		return findScan(t.Input)
	case *Limit:
		return findScan(t.Input)
	}
	return nil
}

func findJoin(n Node) *Join {
	switch t := n.(type) {
	case *Join:
		return t
	case *Filter:
		return findJoin(t.Input)
	case *Project:
		return findJoin(t.Input)
	case *Aggregate:
		return findJoin(t.Input)
	case *DistinctNode:
		return findJoin(t.Input)
	case *Sort:
		return findJoin(t.Input)
	case *Limit:
		return findJoin(t.Input)
	}
	return nil
}

func findAgg(n Node) *Aggregate {
	switch t := n.(type) {
	case *Aggregate:
		return t
	case *Filter:
		return findAgg(t.Input)
	case *Project:
		return findAgg(t.Input)
	case *DistinctNode:
		return findAgg(t.Input)
	case *Sort:
		return findAgg(t.Input)
	case *Limit:
		return findAgg(t.Input)
	}
	return nil
}

func TestPlanSimpleScan(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap, `SELECT o_id, o_amount FROM orders WHERE o_amount > 100`)
	scan := findScan(plan.Root)
	if scan == nil {
		t.Fatal("no scan")
	}
	if scan.Proj.Name != "orders_super" {
		t.Errorf("projection = %s", scan.Proj.Name)
	}
	if scan.Pred == nil {
		t.Error("predicate should be pushed to scan")
	}
	if len(scan.Cols) != 2 {
		t.Errorf("scan cols = %v (should read only needed columns)", scan.Cols)
	}
	if len(plan.OutputNames) != 2 || plan.OutputNames[0] != "o_id" {
		t.Errorf("outputs = %v", plan.OutputNames)
	}
}

func TestPlanNarrowProjectionChosen(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap, `SELECT o_cust, o_amount FROM orders`)
	scan := findScan(plan.Root)
	if scan.Proj.Name != "orders_narrow" {
		t.Errorf("narrow projection should win, got %s", scan.Proj.Name)
	}
}

func TestPlanCoSegmentedJoinIsLocal(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap,
		`SELECT o.o_id, c.c_name FROM orders o JOIN customers c ON o.o_cust = c.c_id`)
	j := findJoin(plan.Root)
	if j == nil {
		t.Fatal("no join")
	}
	if j.Strategy != JoinLocal {
		t.Errorf("co-segmented join should be LOCAL, got %v", j.Strategy)
	}
}

func TestPlanReplicatedJoinIsLocal(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap,
		`SELECT o.o_id, d.d_label FROM orders o JOIN dim d ON o.o_id = d.d_id`)
	j := findJoin(plan.Root)
	if j.Strategy != JoinLocal {
		t.Errorf("replicated-side join should be LOCAL, got %v", j.Strategy)
	}
}

func TestPlanNonCoSegmentedJoinReshuffles(t *testing.T) {
	snap := testCatalog(t)
	// Join on o_id (orders segmented by o_cust): not co-segmented.
	plan := planQuery(t, snap,
		`SELECT o.o_amount, c.c_name FROM orders o JOIN customers c ON o.o_id = c.c_id`)
	j := findJoin(plan.Root)
	if j.Strategy == JoinLocal {
		t.Errorf("join on non-segmentation key must not be LOCAL")
	}
}

func TestPlanBroadcastSmallTable(t *testing.T) {
	snap := testCatalog(t)
	stmt, _ := sql.Parse(`SELECT o.o_amount, c.c_name FROM orders o JOIN customers c ON o.o_id = c.c_id`)
	plan, err := PlanSelect(stmt.(*sql.Select), Options{Snapshot: snap, BroadcastRowLimit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	j := findJoin(plan.Root)
	// customers has no containers (0 rows) -> broadcast under the limit.
	if j.Strategy != JoinBroadcastRight {
		t.Errorf("small right side should broadcast, got %v", j.Strategy)
	}
}

func TestPlanGroupByOnSegmentationIsLocal(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap,
		`SELECT o_cust, SUM(o_amount) AS total FROM orders GROUP BY o_cust`)
	agg := findAgg(plan.Root)
	if agg == nil {
		t.Fatal("no aggregate")
	}
	if agg.Mode != AggLocalFinal {
		t.Errorf("group by segmentation column should be LOCAL, got %v", agg.Mode)
	}
}

func TestPlanGroupByOtherColumnTwoPhase(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap,
		`SELECT o_date, SUM(o_amount) AS total FROM orders GROUP BY o_date`)
	agg := findAgg(plan.Root)
	if agg.Mode != AggTwoPhase {
		t.Errorf("group by non-segmentation column should be TWO-PHASE, got %v", agg.Mode)
	}
}

func TestPlanGlobalAggregate(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap, `SELECT COUNT(*), SUM(o_amount) FROM orders`)
	agg := findAgg(plan.Root)
	if agg == nil || len(agg.Keys) != 0 {
		t.Fatal("global aggregate expected")
	}
	if agg.Mode != AggTwoPhase {
		t.Errorf("global agg mode = %v", agg.Mode)
	}
}

func TestPlanCountDistinct(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap,
		`SELECT o_date, COUNT(DISTINCT o_id) AS n FROM orders GROUP BY o_date`)
	agg := findAgg(plan.Root)
	if agg == nil {
		t.Fatal("no aggregate")
	}
	if agg.Mode != AggInitiatorOnly {
		t.Errorf("count distinct on non-seg keys should be INITIATOR, got %v", agg.Mode)
	}
	// There must be a DistinctNode below the aggregate.
	if _, ok := agg.Input.(*DistinctNode); !ok {
		t.Errorf("aggregate input should be DistinctNode, got %T", agg.Input)
	}
}

func TestPlanCountDistinctCoSegmented(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap,
		`SELECT o_cust, COUNT(DISTINCT o_id) AS n FROM orders GROUP BY o_cust`)
	agg := findAgg(plan.Root)
	if agg.Mode != AggLocalFinal {
		t.Errorf("count distinct grouped by segmentation should be LOCAL, got %v", agg.Mode)
	}
}

func TestPlanCountDistinctMixedRejected(t *testing.T) {
	snap := testCatalog(t)
	stmt, _ := sql.Parse(`SELECT o_date, COUNT(DISTINCT o_id), SUM(o_amount) FROM orders GROUP BY o_date`)
	if _, err := PlanSelect(stmt.(*sql.Select), Options{Snapshot: snap}); err == nil {
		t.Error("mixed COUNT DISTINCT should be rejected")
	}
}

func TestPlanHaving(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap,
		`SELECT o_cust, SUM(o_amount) AS total FROM orders GROUP BY o_cust HAVING total > 100`)
	// Root should be Project over Filter over Aggregate.
	proj, ok := plan.Root.(*Project)
	if !ok {
		t.Fatalf("root = %T", plan.Root)
	}
	if _, ok := proj.Input.(*Filter); !ok {
		t.Errorf("expected HAVING filter under projection, got %T", proj.Input)
	}
}

func TestPlanOrderByAndLimit(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap,
		`SELECT o_cust, SUM(o_amount) AS total FROM orders GROUP BY o_cust ORDER BY total DESC LIMIT 10`)
	lim, ok := plan.Root.(*Limit)
	if !ok || lim.N != 10 {
		t.Fatalf("root = %T", plan.Root)
	}
	srt, ok := lim.Input.(*Sort)
	if !ok || len(srt.Keys) != 1 || !srt.Keys[0].Desc || srt.Keys[0].Col != 1 {
		t.Errorf("sort = %+v", srt)
	}
}

func TestPlanOrderByPosition(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap, `SELECT o_id, o_amount FROM orders ORDER BY 2 DESC`)
	var srt *Sort
	if l, ok := plan.Root.(*Limit); ok {
		srt = l.Input.(*Sort)
	} else {
		srt = plan.Root.(*Sort)
	}
	if srt.Keys[0].Col != 1 || !srt.Keys[0].Desc {
		t.Errorf("sort = %+v", srt.Keys)
	}
}

func TestPlanSelectStar(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap, `SELECT * FROM customers`)
	if len(plan.OutputNames) != 3 {
		t.Errorf("star expansion = %v", plan.OutputNames)
	}
}

func TestPlanDistinct(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap, `SELECT DISTINCT c_region FROM customers`)
	if _, ok := plan.Root.(*DistinctNode); !ok {
		t.Errorf("root = %T, want DistinctNode", plan.Root)
	}
}

// findDistinct returns the first DistinctNode on the plan's input spine.
func findDistinct(n Node) *DistinctNode {
	switch t := n.(type) {
	case *DistinctNode:
		return t
	case *Filter:
		return findDistinct(t.Input)
	case *Project:
		return findDistinct(t.Input)
	case *Aggregate:
		return findDistinct(t.Input)
	case *Sort:
		return findDistinct(t.Input)
	case *Limit:
		return findDistinct(t.Input)
	}
	return nil
}

// TestPlanDistinctLocality pins where a distinct finishes: on the node
// that holds the rows when its columns cover the stream's segmentation
// (through a projection of bare columns or a reshuffle join's keys), on
// the initiator otherwise — and the COUNT over a local distinct merges
// per-node counts instead of counting on the initiator.
func TestPlanDistinctLocality(t *testing.T) {
	snap := testCatalog(t)
	for _, c := range []struct {
		q        string
		local    bool
		aggMode  AggMode
		hasCount bool
	}{
		{q: `SELECT o_date, COUNT(DISTINCT o_cust) AS n FROM orders GROUP BY o_date`,
			local: true, aggMode: AggTwoPhase, hasCount: true},
		{q: `SELECT COUNT(DISTINCT o_cust) FROM orders`,
			local: true, aggMode: AggTwoPhase, hasCount: true},
		{q: `SELECT o_cust, COUNT(DISTINCT o_id) AS n FROM orders GROUP BY o_cust`,
			local: true, aggMode: AggLocalFinal, hasCount: true},
		{q: `SELECT o_date, COUNT(DISTINCT o_id) AS n FROM orders GROUP BY o_date`,
			local: false, aggMode: AggInitiatorOnly, hasCount: true},
		{q: `SELECT COUNT(DISTINCT o_cust + 1) FROM orders`,
			local: false, aggMode: AggInitiatorOnly, hasCount: true},
		{q: `SELECT DISTINCT o_cust, o_date FROM orders`, local: true},
		{q: `SELECT DISTINCT o_cust + 0 AS c, o_date FROM orders`, local: false},
		{q: `SELECT DISTINCT o_date FROM orders`, local: false},
		{q: `SELECT DISTINCT c_region FROM customers`, local: false},
		{q: `SELECT DISTINCT d_label FROM dim`, local: false},
		{q: `SELECT DISTINCT o.o_id FROM orders o JOIN customers c ON o.o_id = c.c_id`, local: true},
		{q: `SELECT DISTINCT c.c_name FROM orders o JOIN customers c ON o.o_id = c.c_id`, local: false},
	} {
		plan := planQuery(t, snap, c.q)
		d := findDistinct(plan.Root)
		if d == nil {
			t.Errorf("%s: no DistinctNode", c.q)
			continue
		}
		if d.Local != c.local {
			t.Errorf("%s: distinct Local = %v, want %v", c.q, d.Local, c.local)
		}
		if agg := findAgg(plan.Root); c.hasCount && (agg == nil || agg.Mode != c.aggMode) {
			t.Errorf("%s: count aggregate = %+v, want mode %v", c.q, agg, c.aggMode)
		}
	}
}

// TestPlanQ11LocalDistinct plans the benchmark's Q11 over lineitem
// segmented by HASH(l_orderkey): every (l_returnflag, l_orderkey) pair
// lives on one node, so the distinct is final there and the count is
// two-phase.
func TestPlanQ11LocalDistinct(t *testing.T) {
	c := catalog.New()
	txn := c.Begin()
	li := &catalog.Table{OID: c.NewOID(), Name: "lineitem", Columns: types.Schema{
		{Name: "l_orderkey", Type: types.Int64},
		{Name: "l_returnflag", Type: types.Varchar},
		{Name: "l_shipdate", Type: types.Date},
	}}
	txn.Put(li)
	txn.Put(&catalog.Projection{
		OID: c.NewOID(), TableOID: li.OID, Name: "lineitem_super",
		Columns: []string{"l_orderkey", "l_returnflag", "l_shipdate"},
		SortKey: []string{"l_shipdate"}, SegmentCols: []string{"l_orderkey"},
	})
	if _, err := c.Commit(txn); err != nil {
		t.Fatal(err)
	}
	plan := planQuery(t, c.Snapshot(), `SELECT l_returnflag, COUNT(DISTINCT l_orderkey) AS orders
		FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`)
	agg := findAgg(plan.Root)
	if agg == nil || agg.Mode != AggTwoPhase {
		t.Fatalf("count aggregate = %+v, want AggTwoPhase", agg)
	}
	if d, ok := agg.Input.(*DistinctNode); !ok || !d.Local {
		t.Errorf("aggregate input = %+v, want a Local DistinctNode", agg.Input)
	}
}

func TestPlanErrors(t *testing.T) {
	snap := testCatalog(t)
	bad := []string{
		`SELECT x FROM orders`,
		`SELECT o_id FROM nosuch`,
		`SELECT o_id FROM orders GROUP BY o_cust`, // o_id not in group by
		`SELECT o.o_id, c.c_name FROM orders o JOIN customers c ON o.o_id > c.c_id`, // no equi key
		`SELECT o_id FROM orders HAVING o_id > 1`,                                   // having without agg
		`SELECT o_id FROM orders ORDER BY nosuchcol`,
	}
	for _, q := range bad {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := PlanSelect(stmt.(*sql.Select), Options{Snapshot: snap}); err == nil {
			t.Errorf("PlanSelect(%q) should fail", q)
		}
	}
}

func TestPlanAmbiguousColumn(t *testing.T) {
	snap := testCatalog(t)
	// Self-join: bare o_id is ambiguous.
	stmt, _ := sql.Parse(`SELECT o_id FROM orders a JOIN orders b ON a.o_cust = b.o_cust`)
	if _, err := PlanSelect(stmt.(*sql.Select), Options{Snapshot: snap}); err == nil {
		t.Error("ambiguous column should fail")
	}
}

func TestPlanQualifiedDisambiguation(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap,
		`SELECT a.o_id, b.o_id FROM orders a JOIN orders b ON a.o_cust = b.o_cust`)
	if len(plan.OutputNames) != 2 {
		t.Errorf("outputs = %v", plan.OutputNames)
	}
}

func TestPlanResidualJoinPredicate(t *testing.T) {
	snap := testCatalog(t)
	plan := planQuery(t, snap,
		`SELECT o.o_id, c.c_name FROM orders o JOIN customers c ON o.o_cust = c.c_id AND o.o_amount > 10`)
	j := findJoin(plan.Root)
	if j.ResidualPred == nil {
		t.Error("non-equi conjunct should become residual predicate")
	}
	if len(j.LeftKeys) != 1 {
		t.Errorf("keys = %v", j.LeftKeys)
	}
}
