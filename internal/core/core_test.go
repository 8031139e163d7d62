package core

import (
	"fmt"
	"testing"
	"time"

	"eon/internal/types"
)

// newTestDB creates a database with n nodes in the given mode.
func newTestDB(t *testing.T, mode Mode, n int, shards int) *DB {
	t.Helper()
	var specs []NodeSpec
	for i := 0; i < n; i++ {
		specs = append(specs, NodeSpec{Name: fmt.Sprintf("node%d", i+1)})
	}
	db, err := Create(Config{
		Mode:       mode,
		Nodes:      specs,
		ShardCount: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// setupSales creates the sales table/projections and loads rows.
func setupSales(t *testing.T, db *DB, rows int) {
	t.Helper()
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE sales (sale_id INTEGER, customer VARCHAR, price FLOAT, region VARCHAR)`)
	mustExec(t, s, `CREATE PROJECTION sales_p1 AS SELECT * FROM sales ORDER BY sale_id SEGMENTED BY HASH(sale_id) ALL NODES`)
	batch := types.NewBatch(types.Schema{
		{Name: "sale_id", Type: types.Int64},
		{Name: "customer", Type: types.Varchar},
		{Name: "price", Type: types.Float64},
		{Name: "region", Type: types.Varchar},
	}, rows)
	customers := []string{"ada", "grace", "barbara", "shafi", "frances"}
	regions := []string{"east", "west"}
	for i := 0; i < rows; i++ {
		batch.AppendRow(types.Row{
			types.NewInt(int64(i + 1)),
			types.NewString(customers[i%len(customers)]),
			types.NewFloat(float64((i % 50) + 1)),
			types.NewString(regions[i%len(regions)]),
		})
	}
	if err := db.LoadRows("sales", batch); err != nil {
		t.Fatal(err)
	}
}

func mustExec(t *testing.T, s *Session, q string) *Result {
	t.Helper()
	res, err := s.Execute(q)
	if err != nil {
		t.Fatalf("Execute(%q): %v", q, err)
	}
	return res
}

func mustQuery(t *testing.T, s *Session, q string) *Result {
	t.Helper()
	res, err := s.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return res
}

func modes() map[string]Mode {
	return map[string]Mode{"eon": ModeEon, "enterprise": ModeEnterprise}
}

func TestLoadAndCount(t *testing.T) {
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, mode, 3, 3)
			setupSales(t, db, 100)
			s := db.NewSession()
			res := mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
			if res.NumRows() != 1 || res.Batch.Cols[0].Ints[0] != 100 {
				t.Fatalf("count = %v", res.Rows())
			}
		})
	}
}

func TestFilterAndProject(t *testing.T) {
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, mode, 3, 3)
			setupSales(t, db, 100)
			s := db.NewSession()
			res := mustQuery(t, s, `SELECT sale_id, price FROM sales WHERE price > 45 ORDER BY sale_id`)
			for _, r := range res.Rows() {
				if r[1].F <= 45 {
					t.Errorf("row %v violates predicate", r)
				}
			}
			if res.NumRows() != 10 { // prices cycle 1..50; 46..50 = 5 of 50 -> 10 of 100
				t.Errorf("rows = %d", res.NumRows())
			}
		})
	}
}

func TestGroupByOnSegmentationColumn(t *testing.T) {
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, mode, 3, 3)
			setupSales(t, db, 100)
			s := db.NewSession()
			res := mustQuery(t, s, `SELECT sale_id, COUNT(*) AS n FROM sales GROUP BY sale_id ORDER BY sale_id LIMIT 5`)
			if res.NumRows() != 5 {
				t.Fatalf("rows = %d", res.NumRows())
			}
			for i, r := range res.Rows() {
				if r[0].I != int64(i+1) || r[1].I != 1 {
					t.Errorf("row = %v", r)
				}
			}
		})
	}
}

func TestGroupByTwoPhase(t *testing.T) {
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, mode, 3, 3)
			setupSales(t, db, 100)
			s := db.NewSession()
			res := mustQuery(t, s, `SELECT region, COUNT(*) AS n, SUM(price) AS total, AVG(price) AS mean FROM sales GROUP BY region ORDER BY region`)
			if res.NumRows() != 2 {
				t.Fatalf("rows = %v", res.Rows())
			}
			east := res.Row(t, 0)
			if east[0].S != "east" || east[1].I != 50 {
				t.Errorf("east = %v", east)
			}
			// AVG must equal SUM/COUNT.
			if east[3].F != east[2].F/float64(east[1].I) {
				t.Errorf("avg mismatch: %v", east)
			}
		})
	}
}

// Row fetches one row of a result for test assertions.
func (r *Result) Row(t *testing.T, i int) types.Row {
	t.Helper()
	if i >= r.NumRows() {
		t.Fatalf("row %d out of %d", i, r.NumRows())
	}
	return r.Batch.Row(i)
}

func TestOrderByLimitDesc(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 100)
	s := db.NewSession()
	res := mustQuery(t, s, `SELECT sale_id, price FROM sales ORDER BY price DESC, sale_id LIMIT 3`)
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if res.Row(t, 0)[1].F != 50 {
		t.Errorf("top price = %v", res.Row(t, 0))
	}
}

func TestInsertAndQuery(t *testing.T) {
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, mode, 2, 2)
			s := db.NewSession()
			mustExec(t, s, `CREATE TABLE t (id INTEGER, name VARCHAR)`)
			mustExec(t, s, `INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, NULL)`)
			res := mustQuery(t, s, `SELECT id, name FROM t ORDER BY id`)
			if res.NumRows() != 3 {
				t.Fatalf("rows = %v", res.Rows())
			}
			if !res.Row(t, 2)[1].Null {
				t.Error("null value lost")
			}
		})
	}
}

func TestDelete(t *testing.T) {
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, mode, 2, 2)
			setupSales(t, db, 50)
			s := db.NewSession()
			res := mustExec(t, s, `DELETE FROM sales WHERE price <= 10`)
			deleted := res.Row(t, 0)[0].I
			if deleted == 0 {
				t.Fatal("nothing deleted")
			}
			cnt := mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
			if cnt.Row(t, 0)[0].I != 50-deleted {
				t.Errorf("count after delete = %v (deleted %d)", cnt.Rows(), deleted)
			}
			// Deleted rows must be invisible.
			rem := mustQuery(t, s, `SELECT COUNT(*) FROM sales WHERE price <= 10`)
			if rem.Row(t, 0)[0].I != 0 {
				t.Errorf("deleted rows visible: %v", rem.Rows())
			}
		})
	}
}

func TestUpdate(t *testing.T) {
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, mode, 2, 2)
			s := db.NewSession()
			mustExec(t, s, `CREATE TABLE t (id INTEGER, v INTEGER)`)
			mustExec(t, s, `INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`)
			mustExec(t, s, `UPDATE t SET v = v + 100 WHERE id >= 2`)
			res := mustQuery(t, s, `SELECT id, v FROM t ORDER BY id`)
			want := []int64{10, 120, 130}
			if res.NumRows() != 3 {
				t.Fatalf("rows = %v", res.Rows())
			}
			for i, w := range want {
				if res.Row(t, i)[1].I != w {
					t.Errorf("row %d = %v, want v=%d", i, res.Row(t, i), w)
				}
			}
		})
	}
}

func TestJoinCoSegmented(t *testing.T) {
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, mode, 3, 3)
			s := db.NewSession()
			mustExec(t, s, `CREATE TABLE orders (o_id INTEGER, cust INTEGER, amount FLOAT)`)
			mustExec(t, s, `CREATE PROJECTION orders_p AS SELECT * FROM orders ORDER BY o_id SEGMENTED BY HASH(cust) ALL NODES`)
			mustExec(t, s, `CREATE TABLE customers (c_id INTEGER, name VARCHAR)`)
			mustExec(t, s, `CREATE PROJECTION customers_p AS SELECT * FROM customers ORDER BY c_id SEGMENTED BY HASH(c_id) ALL NODES`)
			for i := 1; i <= 20; i++ {
				mustExec(t, s, fmt.Sprintf(`INSERT INTO customers VALUES (%d, 'cust%d')`, i, i))
				mustExec(t, s, fmt.Sprintf(`INSERT INTO orders VALUES (%d, %d, %d.5)`, i*10, (i%5)+1, i))
			}
			res := mustQuery(t, s, `SELECT c.name, COUNT(*) AS n FROM orders o JOIN customers c ON o.cust = c.c_id GROUP BY c.name ORDER BY c.name`)
			if res.NumRows() != 5 {
				t.Fatalf("join groups = %v", res.Rows())
			}
			for _, r := range res.Rows() {
				if r[1].I != 4 {
					t.Errorf("group = %v, want 4 orders each", r)
				}
			}
		})
	}
}

func TestJoinWithReplicatedDimension(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE facts (id INTEGER, dim_id INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION facts_p AS SELECT * FROM facts ORDER BY id SEGMENTED BY HASH(id) ALL NODES`)
	mustExec(t, s, `CREATE TABLE dims (d_id INTEGER, label VARCHAR)`)
	mustExec(t, s, `CREATE PROJECTION dims_p AS SELECT * FROM dims ORDER BY d_id UNSEGMENTED ALL NODES`)
	mustExec(t, s, `INSERT INTO dims VALUES (1, 'one'), (2, 'two')`)
	for i := 1; i <= 10; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO facts VALUES (%d, %d)`, i, (i%2)+1))
	}
	res := mustQuery(t, s, `SELECT d.label, COUNT(*) AS n FROM facts f JOIN dims d ON f.dim_id = d.d_id GROUP BY d.label ORDER BY d.label`)
	if res.NumRows() != 2 {
		t.Fatalf("rows = %v", res.Rows())
	}
	if res.Row(t, 0)[1].I != 5 || res.Row(t, 1)[1].I != 5 {
		t.Errorf("counts = %v", res.Rows())
	}
}

func TestJoinReshuffle(t *testing.T) {
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, mode, 3, 3)
			s := db.NewSession()
			// Both tables segmented by their id, joined on non-seg cols.
			mustExec(t, s, `CREATE TABLE a (a_id INTEGER, k INTEGER)`)
			mustExec(t, s, `CREATE PROJECTION a_p AS SELECT * FROM a ORDER BY a_id SEGMENTED BY HASH(a_id) ALL NODES`)
			mustExec(t, s, `CREATE TABLE b (b_id INTEGER, k INTEGER)`)
			mustExec(t, s, `CREATE PROJECTION b_p AS SELECT * FROM b ORDER BY b_id SEGMENTED BY HASH(b_id) ALL NODES`)
			for i := 1; i <= 12; i++ {
				mustExec(t, s, fmt.Sprintf(`INSERT INTO a VALUES (%d, %d)`, i, i%4))
				mustExec(t, s, fmt.Sprintf(`INSERT INTO b VALUES (%d, %d)`, 100+i, i%4))
			}
			res := mustQuery(t, s, `SELECT COUNT(*) FROM a JOIN b ON a.k = b.k`)
			// Each k in 0..3 has 3 rows in each table: 4 * 3*3 = 36.
			if res.Row(t, 0)[0].I != 36 {
				t.Errorf("reshuffle join count = %v", res.Rows())
			}
		})
	}
}

// TestJoinReshuffleEmptyPartition covers reshuffle joins where a node's
// partition of one side is empty while the other side sends it more
// batches than an exchange edge holds: the join that ends early there
// must still drain its edge, or the exchange drivers block on it and
// starve every other node. A hang shows up as the session timeout.
func TestJoinReshuffleEmptyPartition(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	s := db.NewSession()
	for _, tbl := range []string{"a", "b"} {
		mustExec(t, s, fmt.Sprintf(`CREATE TABLE %s (id INTEGER, k INTEGER)`, tbl))
		mustExec(t, s, fmt.Sprintf(`CREATE PROJECTION %s_p AS SELECT * FROM %s ORDER BY id SEGMENTED BY HASH(id) ALL NODES`, tbl, tbl))
	}
	mustExec(t, s, `INSERT INTO a VALUES (1, 3)`)
	// Single-row inserts: many small containers, so many small batches
	// cross every exchange edge.
	for i := 1; i <= 200; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO b VALUES (%d, %d)`, i, i%7))
	}
	// a's one row (k=3) matches b's ids congruent to 3 mod 7: 3, 10, …,
	// 199, i.e. 29 rows.
	const want = 29
	for _, q := range []string{
		`SELECT COUNT(*) FROM a JOIN b ON a.k = b.k`,
		`SELECT COUNT(*) FROM b JOIN a ON b.k = a.k`,
	} {
		st := db.NewSession()
		st.Timeout = 20 * time.Second
		res, err := st.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := res.Row(t, 0)[0].I; got != want {
			t.Errorf("%s = %d, want %d", q, got, want)
		}
	}
	if g := db.Metrics().Gauges["exec.mem_bytes"]; g != 0 {
		t.Errorf("exec.mem_bytes = %d after the queries, want 0", g)
	}
}

// TestEmptyBuildSideLeavesNothingLent: a join whose build side turns
// out empty never pulls its probe side; whatever that side's scan pipe
// holds, shutdown gives it back (scan.lent_vectors reads 0 after the
// query), traced or not.
func TestEmptyBuildSideLeavesNothingLent(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 3000)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE vip (sale_id INTEGER, tier INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION vip_p AS SELECT * FROM vip ORDER BY sale_id SEGMENTED BY HASH(sale_id) ALL NODES`)
	mustExec(t, s, `INSERT INTO vip VALUES (5, 1)`)
	for i, trace := range []bool{false, true} { // traced, the inputs are row-counting edges
		s.Trace = trace
		// vip's range excludes its one row, so it builds, empty.
		res := mustQuery(t, s, fmt.Sprintf(`SELECT COUNT(*) FROM vip v JOIN sales x ON v.sale_id = x.sale_id WHERE v.sale_id > %d`, 100+i))
		if got := res.Row(t, 0)[0].I; got != 0 {
			t.Fatalf("trace=%v: COUNT(*) = %d, want 0", trace, got)
		}
		if g := db.Metrics().Gauges["scan.lent_vectors"]; g != 0 {
			t.Errorf("trace=%v: scan.lent_vectors = %d after the query, want 0", trace, g)
		}
	}
}

// TestGroupJoinLiteralArguments: an aggregate over a join whose arguments
// read no column (SUM(1), AVG(2.5)), grouped by a build-side column or
// not, returns what the row engine does; it runs unfused, since over no
// gathered column the pairs would have no rows, and fuses again beside an
// argument that reads one.
func TestGroupJoinLiteralArguments(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 3000)
	s, row := db.NewSession(), db.NewSession()
	mustExec(t, s, `CREATE TABLE vip (sale_id INTEGER, tier INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION vip_p AS SELECT * FROM vip ORDER BY sale_id SEGMENTED BY HASH(sale_id) ALL NODES`)
	mustExec(t, s, `INSERT INTO vip VALUES (5, 1), (6, 2), (7, 1), (2000, 3), (9999, 4)`)
	s.Trace, row.RowEngine = true, true
	for _, tc := range []struct {
		q     string
		fused int64
	}{
		{`SELECT v.tier, SUM(1) AS n, AVG(2.5) AS a FROM vip v JOIN sales x ON v.sale_id = x.sale_id GROUP BY v.tier ORDER BY v.tier`, 0},
		{`SELECT SUM(1) AS n, AVG(2.5) AS a FROM vip v JOIN sales x ON v.sale_id = x.sale_id`, 0},
		{`SELECT v.tier, SUM(1) AS n, SUM(x.price) AS p FROM vip v JOIN sales x ON v.sale_id = x.sale_id GROUP BY v.tier ORDER BY v.tier`, 1},
	} {
		got, want := fmt.Sprint(mustQuery(t, s, tc.q).Rows()), fmt.Sprint(mustQuery(t, row, tc.q).Rows())
		if got != want {
			t.Errorf("%s:\nvectorized %s\nrow engine %s", tc.q, got, want)
		}
		if j := s.LastProfile().Find("join"); j == nil || j.Attrs["groupjoin"] != tc.fused {
			t.Errorf("%s: join span %v, want groupjoin = %d", tc.q, j, tc.fused)
		}
	}
}

func TestCountDistinct(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 100)
	s := db.NewSession()
	res := mustQuery(t, s, `SELECT region, COUNT(DISTINCT customer) AS n FROM sales GROUP BY region ORDER BY region`)
	if res.NumRows() != 2 {
		t.Fatalf("rows = %v", res.Rows())
	}
	// 5 customers cycle with 2 regions over 100 rows: even sale ids get
	// west; customers alternate so each region sees all 5 customers
	// (gcd(5,2)=1).
	for _, r := range res.Rows() {
		if r[1].I != 5 {
			t.Errorf("distinct customers = %v", r)
		}
	}
}

func TestSelectDistinct(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 100)
	s := db.NewSession()
	res := mustQuery(t, s, `SELECT DISTINCT region FROM sales ORDER BY region`)
	if res.NumRows() != 2 {
		t.Errorf("distinct regions = %v", res.Rows())
	}
}

func TestHaving(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	setupSales(t, db, 100)
	s := db.NewSession()
	res := mustQuery(t, s, `SELECT customer, COUNT(*) AS n FROM sales GROUP BY customer HAVING n >= 20 ORDER BY customer`)
	for _, r := range res.Rows() {
		if r[1].I < 20 {
			t.Errorf("having violated: %v", r)
		}
	}
	if res.NumRows() != 5 { // 100 rows / 5 customers = 20 each
		t.Errorf("rows = %v", res.Rows())
	}
}

func TestAlterAddColumn(t *testing.T) {
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, mode, 2, 2)
			s := db.NewSession()
			mustExec(t, s, `CREATE TABLE t (id INTEGER)`)
			mustExec(t, s, `INSERT INTO t VALUES (1), (2), (3), (4), (5)`)
			mustExec(t, s, `ALTER TABLE t ADD COLUMN status VARCHAR DEFAULT 'new'`)
			res := mustQuery(t, s, `SELECT id, status FROM t ORDER BY id`)
			if res.NumRows() != 5 {
				t.Fatalf("rows = %v", res.Rows())
			}
			for _, r := range res.Rows() {
				if r[1].S != "new" {
					t.Errorf("default not applied: %v", r)
				}
			}
			// New loads include the column.
			mustExec(t, s, `INSERT INTO t VALUES (6, 'old')`)
			res = mustQuery(t, s, `SELECT COUNT(*) FROM t WHERE status = 'new'`)
			if res.Row(t, 0)[0].I != 5 {
				t.Errorf("count = %v", res.Rows())
			}
		})
	}
}

func TestDropTable(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	setupSales(t, db, 20)
	s := db.NewSession()
	mustExec(t, s, `DROP TABLE sales`)
	if _, err := s.Query(`SELECT COUNT(*) FROM sales`); err == nil {
		t.Error("dropped table should not be queryable")
	}
}

func TestPartitionedTable(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE events (id INTEGER, month INTEGER) PARTITION BY month`)
	batch := types.NewBatch(types.Schema{
		{Name: "id", Type: types.Int64}, {Name: "month", Type: types.Int64},
	}, 30)
	for i := 0; i < 30; i++ {
		batch.AppendRow(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i%3 + 1))})
	}
	if err := db.LoadRows("events", batch); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, s, `SELECT COUNT(*) FROM events WHERE month = 2`)
	if res.Row(t, 0)[0].I != 10 {
		t.Errorf("count = %v", res.Rows())
	}
	// Partition keys recorded on containers.
	init, _ := db.anyUpNode()
	snap := init.catalog.Snapshot()
	keys := map[string]bool{}
	tbl, _ := snap.TableByName("events")
	for _, p := range snap.ProjectionsOf(tbl.OID) {
		for _, sc := range snap.ContainersOf(p.OID, -1) {
			keys[sc.PartitionKey] = true
		}
	}
	if len(keys) != 3 {
		t.Errorf("partition keys = %v", keys)
	}
}

func TestCommitUploadsBeforeVisible(t *testing.T) {
	// Every committed container's files exist on shared storage (§4.5).
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 200)
	init, _ := db.anyUpNode()
	snap := init.catalog.Snapshot()
	ctx := db.Context()
	checked := 0
	tbl, _ := snap.TableByName("sales")
	for _, p := range snap.ProjectionsOf(tbl.OID) {
		for _, sc := range snap.ContainersOf(p.OID, -1) {
			for _, f := range sc.AllFiles() {
				if _, err := db.SharedStore().Get(ctx, f.Path); err != nil {
					t.Errorf("committed file missing from shared storage: %s", f.Path)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no files checked")
	}
}

func TestQueryUsesCacheSecondTime(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	setupSales(t, db, 100)
	s := db.NewSession()
	mustQuery(t, s, `SELECT COUNT(*) FROM sales WHERE price > 0`)
	// All reads after the write-through load should hit the cache: the
	// shared store sees only the load-time puts, not gets.
	sim, isSim := db.SharedStore().(interface{ Stats() interface{} })
	_ = sim
	_ = isSim
	hits := int64(0)
	for _, n := range db.Nodes() {
		st := n.Cache().Stats()
		hits += st.Hits
	}
	if hits == 0 {
		t.Error("second read should be served from cache")
	}
}
