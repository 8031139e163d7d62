package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"eon/internal/catalog"
	"eon/internal/objstore"
	"eon/internal/storage"
	"eon/internal/types"
)

// Property: any loaded multiset of rows comes back exactly from
// SELECT *, in both modes, regardless of how the loads were batched.
func TestPropertyLoadQueryRoundtrip(t *testing.T) {
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 5; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)))
				db := newTestDB(t, mode, 3, 3)
				s := db.NewSession()
				mustExec(t, s, `CREATE TABLE t (id INTEGER, v VARCHAR, f FLOAT)`)

				schema := types.Schema{
					{Name: "id", Type: types.Int64},
					{Name: "v", Type: types.Varchar},
					{Name: "f", Type: types.Float64},
				}
				want := map[string]int{}
				nLoads := rng.Intn(4) + 1
				for l := 0; l < nLoads; l++ {
					nRows := rng.Intn(40) + 1
					b := types.NewBatch(schema, nRows)
					for r := 0; r < nRows; r++ {
						row := types.Row{
							types.NewInt(rng.Int63n(1000)),
							types.NewString(fmt.Sprintf("s%d", rng.Intn(10))),
							types.NewFloat(float64(rng.Intn(100))),
						}
						if rng.Intn(10) == 0 {
							row[1] = types.NullDatum(types.Varchar)
						}
						b.AppendRow(row)
						want[row.String()]++
					}
					if err := db.LoadRows("t", b); err != nil {
						t.Fatal(err)
					}
				}
				res := mustQuery(t, s, `SELECT id, v, f FROM t`)
				got := map[string]int{}
				for _, r := range res.Rows() {
					got[r.String()]++
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d: distinct rows %d != %d", trial, len(got), len(want))
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("trial %d: row %q count %d != %d", trial, k, got[k], n)
					}
				}
			}
		})
	}
}

// Property: aggregates computed by the engine equal aggregates computed
// directly over the generated data.
func TestPropertyAggregatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := newTestDB(t, ModeEon, 3, 3)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE m (k INTEGER, x INTEGER)`)
	schema := types.Schema{{Name: "k", Type: types.Int64}, {Name: "x", Type: types.Int64}}
	sum := map[int64]int64{}
	count := map[int64]int64{}
	b := types.NewBatch(schema, 500)
	for i := 0; i < 500; i++ {
		k := rng.Int63n(7)
		x := rng.Int63n(100)
		b.AppendRow(types.Row{types.NewInt(k), types.NewInt(x)})
		sum[k] += x
		count[k]++
	}
	if err := db.LoadRows("m", b); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, s, `SELECT k, COUNT(*) AS n, SUM(x) AS sx, MIN(x) AS lo, MAX(x) AS hi FROM m GROUP BY k ORDER BY k`)
	if res.NumRows() != len(sum) {
		t.Fatalf("groups = %d, want %d", res.NumRows(), len(sum))
	}
	for _, r := range res.Rows() {
		k := r[0].I
		if r[1].I != count[k] || r[2].I != sum[k] {
			t.Errorf("group %d: got n=%d sx=%d, want n=%d sx=%d", k, r[1].I, r[2].I, count[k], sum[k])
		}
		if r[3].I > r[4].I {
			t.Errorf("group %d: min %d > max %d", k, r[3].I, r[4].I)
		}
	}
}

// Property: DELETE then SELECT never shows deleted rows, and re-running
// the same DELETE deletes nothing.
func TestPropertyDeleteIdempotent(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	setupSales(t, db, 80)
	s := db.NewSession()
	res := mustExec(t, s, `DELETE FROM sales WHERE price > 25`)
	first := res.Row(t, 0)[0].I
	if first == 0 {
		t.Fatal("nothing deleted")
	}
	res = mustExec(t, s, `DELETE FROM sales WHERE price > 25`)
	if second := res.Row(t, 0)[0].I; second != 0 {
		t.Errorf("second identical delete removed %d rows", second)
	}
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM sales WHERE price > 25`).Row(t, 0)[0].I; n != 0 {
		t.Errorf("%d deleted rows still visible", n)
	}
}

// Loads succeed through transient shared-storage failures via the
// balanced retry loop (§5.3).
func TestLoadSurvivesTransientS3Failures(t *testing.T) {
	sim := objstore.NewSim(objstore.NewMem(), objstore.SimConfig{
		FailureRate: 0.3, Seed: 5,
	})
	db, err := Create(Config{
		Mode:   ModeEon,
		Nodes:  []NodeSpec{{Name: "n1"}, {Name: "n2"}},
		Shared: sim, ShardCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (id INTEGER)`)
	rows := make([]types.Row, 100)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	if err := db.LoadRows("t", types.BatchFromRows(types.Schema{{Name: "id", Type: types.Int64}}, rows)); err != nil {
		t.Fatalf("load through 30%% failure rate: %v", err)
	}
	if sim.Stats().Failed == 0 {
		t.Skip("no failures were injected; nothing exercised")
	}
	// Cold reads also retry.
	for _, n := range db.Nodes() {
		n.cache.Clear(db.Context())
	}
	res := mustQuery(t, s, `SELECT COUNT(*) FROM t`)
	if res.Row(t, 0)[0].I != 100 {
		t.Errorf("count = %v", res.Rows())
	}
}

// Partition + min/max pruning: a selective date predicate must not fetch
// every container from shared storage.
func TestPredicatePruningReducesFetches(t *testing.T) {
	sim := objstore.NewSim(objstore.NewMem(), objstore.SimConfig{})
	db, err := Create(Config{
		Mode:   ModeEon,
		Nodes:  []NodeSpec{{Name: "n1"}, {Name: "n2"}},
		Shared: sim, ShardCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE ev (id INTEGER, bucket INTEGER) PARTITION BY bucket`)
	mustExec(t, s, `CREATE PROJECTION ev_p AS SELECT * FROM ev ORDER BY bucket SEGMENTED BY HASH(id) ALL NODES`)
	schema := types.Schema{{Name: "id", Type: types.Int64}, {Name: "bucket", Type: types.Int64}}
	b := types.NewBatch(schema, 1000)
	for i := 0; i < 1000; i++ {
		b.AppendRow(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 10))})
	}
	if err := db.LoadRows("ev", b); err != nil {
		t.Fatal(err)
	}
	// Cold caches + bypass so every fetch hits the (counted) store.
	for _, n := range db.Nodes() {
		n.cache.Clear(db.Context())
	}
	cold := db.NewSession()
	cold.BypassCache = true

	sim.ResetStats()
	full := mustQuery(t, cold, `SELECT COUNT(*) FROM ev`)
	fullGets := sim.Stats().Gets
	if full.Row(t, 0)[0].I != 1000 {
		t.Fatalf("full count = %v", full.Rows())
	}

	sim.ResetStats()
	one := mustQuery(t, cold, `SELECT COUNT(*) FROM ev WHERE bucket = 3`)
	prunedGets := sim.Stats().Gets
	if one.Row(t, 0)[0].I != 100 {
		t.Fatalf("bucket count = %v", one.Rows())
	}
	if prunedGets*2 > fullGets {
		t.Errorf("pruning ineffective: %d gets with predicate vs %d full scan", prunedGets, fullGets)
	}
}

// A killed node mid-query stream never produces wrong results — queries
// either succeed (with a new assignment) or fail cleanly.
func TestKillDuringQueryStream(t *testing.T) {
	db := newTestDB(t, ModeEon, 4, 3)
	setupSales(t, db, 300)
	stop := time.Now().Add(300 * time.Millisecond)
	killed := false
	for time.Now().Before(stop) {
		if !killed && time.Now().Add(-150*time.Millisecond).Before(stop) {
			go db.KillNode("node4")
			killed = true
		}
		res, err := db.NewSession().Query(`SELECT COUNT(*) FROM sales`)
		if err != nil {
			continue // clean failure is acceptable mid-kill
		}
		if res.Row(t, 0)[0].I != 300 {
			t.Fatalf("wrong answer during node kill: %v", res.Rows())
		}
	}
}

// sortInvariant: containers store tuples sorted by the projection sort
// key (verified through the storage layer).
func TestContainersSortedByProjectionKey(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (a INTEGER, b INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION t_p AS SELECT * FROM t ORDER BY b SEGMENTED BY HASH(a) ALL NODES`)
	rng := rand.New(rand.NewSource(3))
	schema := types.Schema{{Name: "a", Type: types.Int64}, {Name: "b", Type: types.Int64}}
	b := types.NewBatch(schema, 200)
	for i := 0; i < 200; i++ {
		b.AppendRow(types.Row{types.NewInt(rng.Int63n(1000)), types.NewInt(rng.Int63n(1000))})
	}
	if err := db.LoadRows("t", b); err != nil {
		t.Fatal(err)
	}
	// Scanning with ORDER BY b per shard should already be sorted within
	// containers; verify via a full read and per-container check.
	init, _ := db.anyUpNode()
	env, err := (&Session{db: db}).selectParticipants(init)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := env.snapshots[init.name].ProjectionByName("t_p")
	checked := 0
	err = env.eachContainer(p, func(node *Node, sc *catalog.StorageContainer) error {
		batch, err := readWholeContainer(t, db, node, sc)
		if err != nil {
			return err
		}
		vals := batch.Cols[1].Ints
		if !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) {
			t.Errorf("container %d not sorted by b", sc.OID)
		}
		checked++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no containers checked")
	}
}

// readWholeContainer materializes a container's full projection contents.
func readWholeContainer(t *testing.T, db *DB, node *Node, sc *catalog.StorageContainer) (*types.Batch, error) {
	t.Helper()
	snap := node.catalog.Snapshot()
	po, ok := snap.Get(sc.ProjOID)
	if !ok {
		t.Fatalf("projection %d missing", sc.ProjOID)
	}
	proj := po.(*catalog.Projection)
	to, _ := snap.Get(proj.TableOID)
	tbl := to.(*catalog.Table)
	return storage.ReadColumns(db.Context(), sc, projectionSchema(tbl, proj.Columns), db.trackedFetch(node, false, nil), 4)
}
