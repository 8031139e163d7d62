package core

import (
	"testing"

	"eon/internal/types"
)

// LIMIT without ORDER BY: any N rows, exercised distributed.
func TestLimitWithoutSort(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 100)
	s := db.NewSession()
	res := mustQuery(t, s, `SELECT sale_id FROM sales LIMIT 7`)
	if res.NumRows() != 7 {
		t.Errorf("rows = %d", res.NumRows())
	}
	// LIMIT larger than the data.
	res = mustQuery(t, s, `SELECT sale_id FROM sales LIMIT 1000`)
	if res.NumRows() != 100 {
		t.Errorf("rows = %d", res.NumRows())
	}
	// LIMIT over an aggregate (gathered input).
	res = mustQuery(t, s, `SELECT region, COUNT(*) AS n FROM sales GROUP BY region LIMIT 1`)
	if res.NumRows() != 1 {
		t.Errorf("rows = %d", res.NumRows())
	}
}

// INSERT literal coercions: ints into float columns, exact floats into
// int columns, and rejections.
func TestInsertCoercions(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE c (i INTEGER, f FLOAT, d DATE)`)
	mustExec(t, s, `INSERT INTO c VALUES (3.0, 4, DATE '2020-01-01')`)
	res := mustQuery(t, s, `SELECT i, f FROM c`)
	r := res.Row(t, 0)
	if r[0].I != 3 || r[1].F != 4.0 {
		t.Errorf("coerced row = %v", r)
	}
	// Lossy float into int must fail.
	if _, err := s.Execute(`INSERT INTO c VALUES (3.5, 1.0, NULL)`); err == nil {
		t.Error("lossy coercion should fail")
	}
	// String into int must fail.
	if _, err := s.Execute(`INSERT INTO c VALUES ('x', 1.0, NULL)`); err == nil {
		t.Error("string to int should fail")
	}
	// Arity mismatch must fail.
	if _, err := s.Execute(`INSERT INTO c VALUES (1)`); err == nil {
		t.Error("arity mismatch should fail")
	}
}

// Self-joins through the reshuffle path on a gathered side.
func TestThreeWayJoin(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE a (k INTEGER, v INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION a_p AS SELECT * FROM a ORDER BY k SEGMENTED BY HASH(k) ALL NODES`)
	mustExec(t, s, `CREATE TABLE b (k INTEGER, w INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION b_p AS SELECT * FROM b ORDER BY k SEGMENTED BY HASH(k) ALL NODES`)
	mustExec(t, s, `CREATE TABLE c (k INTEGER, x INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION c_p AS SELECT * FROM c ORDER BY k SEGMENTED BY HASH(k) ALL NODES`)
	for i := 0; i < 10; i++ {
		mustExec(t, s, insertKV("a", i, i))
		mustExec(t, s, insertKV("b", i, i*2))
		mustExec(t, s, insertKV("c", i, i*3))
	}
	res := mustQuery(t, s, `SELECT COUNT(*) FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k`)
	if res.Row(t, 0)[0].I != 10 {
		t.Errorf("3-way join count = %v", res.Rows())
	}
	// With residual predicates on the join.
	res = mustQuery(t, s, `SELECT COUNT(*) FROM a JOIN b ON a.k = b.k AND a.v < 5`)
	if res.Row(t, 0)[0].I != 5 {
		t.Errorf("residual join count = %v", res.Rows())
	}
}

// Query-level cache bypass combined with a LIMIT+ORDER pushdown (TopK on
// fragments) over real data.
func TestTopKPushdownDistributed(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 200)
	s := db.NewSession()
	res := mustQuery(t, s, `SELECT sale_id, price FROM sales ORDER BY price DESC, sale_id LIMIT 5`)
	if res.NumRows() != 5 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	// Verify against the full ordering.
	all := mustQuery(t, s, `SELECT sale_id, price FROM sales ORDER BY price DESC, sale_id`)
	for i := 0; i < 5; i++ {
		if res.Row(t, i).String() != all.Row(t, i).String() {
			t.Errorf("top-k row %d: %v vs %v", i, res.Row(t, i), all.Row(t, i))
		}
	}
}

// Batch arity/order through LoadRows with Date columns.
func TestLoadDateColumns(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE d (id INTEGER, day DATE)`)
	schema := types.Schema{{Name: "id", Type: types.Int64}, {Name: "day", Type: types.Date}}
	b := types.NewBatch(schema, 3)
	for i := 0; i < 3; i++ {
		b.AppendRow(types.Row{types.NewInt(int64(i)), types.NewDate(int64(18000 + i))})
	}
	if err := db.LoadRows("d", b); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, s, `SELECT COUNT(*) FROM d WHERE day >= DATE '2019-04-15'`)
	// 18000 days = 2019-04-14; so days 18001, 18002 match.
	if res.Row(t, 0)[0].I != 2 {
		t.Errorf("date filter count = %v", res.Rows())
	}
}
