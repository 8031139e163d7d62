package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"eon/internal/catalog"
	"eon/internal/cluster"
	"eon/internal/objstore"
	"eon/internal/sql"
	"eon/internal/types"
)

func TestNodeDownQueriesStillWork(t *testing.T) {
	db := newTestDB(t, ModeEon, 4, 3)
	setupSales(t, db, 200)
	s := db.NewSession()
	before := mustQuery(t, s, `SELECT COUNT(*) FROM sales`).Row(t, 0)[0].I

	if err := db.KillNode("node2"); err != nil {
		t.Fatal(err)
	}
	// Shards are never down: other subscribers serve immediately (§6.1).
	after := mustQuery(t, s, `SELECT COUNT(*) FROM sales`).Row(t, 0)[0].I
	if after != before {
		t.Errorf("count with node down = %d, want %d", after, before)
	}
}

func TestEnterpriseNodeDownUsesBuddy(t *testing.T) {
	db := newTestDB(t, ModeEnterprise, 3, 3)
	setupSales(t, db, 200)
	s := db.NewSession()
	before := mustQuery(t, s, `SELECT COUNT(*) FROM sales`).Row(t, 0)[0].I

	if err := db.KillNode("node3"); err != nil {
		t.Fatal(err)
	}
	after := mustQuery(t, s, `SELECT COUNT(*) FROM sales`).Row(t, 0)[0].I
	if after != before {
		t.Errorf("buddy read count = %d, want %d", after, before)
	}
}

func TestNodeRecovery(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 100)
	db.KillNode("node3")

	// More data loads while the node is down.
	s := db.NewSession()
	mustExec(t, s, `INSERT INTO sales VALUES (1001, 'zeta', 9.5, 'north')`)

	if err := db.RecoverNode("node3"); err != nil {
		t.Fatal(err)
	}
	n3, _ := db.Node("node3")
	init, _ := db.anyUpNode()
	if n3.catalog.Version() != init.catalog.Version() {
		t.Errorf("recovered node at v%d, cluster at v%d", n3.catalog.Version(), init.catalog.Version())
	}
	// All its subscriptions back to ACTIVE.
	for _, sub := range init.catalog.Snapshot().Subscriptions("node3") {
		if sub.State != catalog.SubActive {
			t.Errorf("subscription %d state %v after recovery", sub.ShardIndex, sub.State)
		}
	}
	res := mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	if res.Row(t, 0)[0].I != 101 {
		t.Errorf("count = %v", res.Rows())
	}
	checkSubscribersAgree(t, db)
}

func TestRecoveredNodeCacheWarm(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 500)
	s := db.NewSession()
	mustQuery(t, s, `SELECT COUNT(*) FROM sales WHERE price > 0`) // warm caches

	db.KillNode("node2")
	n2, _ := db.Node("node2")
	n2.cache.Clear(db.Context()) // simulate losing the instance
	if err := db.RecoverNode("node2"); err != nil {
		t.Fatal(err)
	}
	if n2.cache.Stats().Files == 0 {
		t.Error("recovered node should have a warmed cache (peer warming, §6.1)")
	}
}

func TestClusterShutsDownOnInvariantViolation(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 50)
	db.KillNode("node1")
	db.KillNode("node2") // 1 of 3 up: no quorum -> shutdown (§3.4)
	if !db.IsShutdown() {
		t.Fatal("cluster should shut down without quorum")
	}
	s := db.NewSession()
	if _, err := s.Query(`SELECT COUNT(*) FROM sales`); err == nil {
		t.Error("queries must fail after shutdown")
	}
}

func TestAddNodeElasticity(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 300)
	if err := db.AddNode(NodeSpec{Name: "node4"}); err != nil {
		t.Fatal(err)
	}
	init, _ := db.anyUpNode()
	snap := init.catalog.Snapshot()
	subs := snap.Subscriptions("node4")
	if len(subs) == 0 {
		t.Fatal("new node should receive subscriptions")
	}
	for _, sub := range subs {
		if sub.State != catalog.SubActive {
			t.Errorf("subscription to shard %d is %v, want ACTIVE", sub.ShardIndex, sub.State)
		}
	}
	// Queries immediately usable; no data was redistributed (shared
	// storage unchanged).
	s := db.NewSession()
	res := mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	if res.Row(t, 0)[0].I != 300 {
		t.Errorf("count = %v", res.Rows())
	}
	checkSubscribersAgree(t, db)
}

func TestRemoveNode(t *testing.T) {
	db := newTestDB(t, ModeEon, 4, 3)
	setupSales(t, db, 200)
	if err := db.RemoveNode("node4"); err != nil {
		t.Fatal(err)
	}
	init, _ := db.anyUpNode()
	snap := init.catalog.Snapshot()
	if len(snap.Subscriptions("node4")) != 0 {
		t.Error("removed node should have no subscriptions")
	}
	if _, ok := snap.NodeByName("node4"); ok {
		t.Error("removed node still in catalog")
	}
	// Every shard still fault tolerant.
	for _, sh := range snap.Shards() {
		if len(snap.SubscribersOf(sh.Index, catalog.SubActive)) < 1 {
			t.Errorf("shard %d lost coverage", sh.Index)
		}
	}
	s := db.NewSession()
	res := mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	if res.Row(t, 0)[0].I != 200 {
		t.Errorf("count = %v", res.Rows())
	}
	checkSubscribersAgree(t, db)
}

func TestSubclusterIsolation(t *testing.T) {
	db, err := Create(Config{
		Mode: ModeEon,
		Nodes: []NodeSpec{
			{Name: "a1", Subcluster: "A"}, {Name: "a2", Subcluster: "A"},
			{Name: "b1", Subcluster: "B"}, {Name: "b2", Subcluster: "B"},
		},
		ShardCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ensure both subclusters cover all shards.
	if err := db.Rebalance(); err != nil {
		t.Fatal(err)
	}
	setupSales(t, db, 100)

	// Session pinned to subcluster B: participating nodes must be b1/b2.
	s := db.NewSessionOn("B")
	env, err := s.selectParticipants(mustUp(t, db))
	if err != nil {
		t.Fatal(err)
	}
	for shard, node := range env.assignment {
		if node != "b1" && node != "b2" {
			t.Errorf("shard %d escaped subcluster B to %s (§4.3)", shard, node)
		}
	}
	res := mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	if res.Row(t, 0)[0].I != 100 {
		t.Errorf("count = %v", res.Rows())
	}
}

func mustUp(t *testing.T, db *DB) *Node {
	t.Helper()
	n, err := db.anyUpNode()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMergeoutCompactsContainers(t *testing.T) {
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, mode, 2, 2)
			s := db.NewSession()
			mustExec(t, s, `CREATE TABLE t (id INTEGER, v INTEGER)`)
			// Many small loads -> many containers.
			for i := 0; i < 12; i++ {
				rows := make([]types.Row, 10)
				for j := range rows {
					rows[j] = types.Row{types.NewInt(int64(i*10 + j)), types.NewInt(int64(j))}
				}
				if err := db.LoadRows("t", types.BatchFromRows(types.Schema{
					{Name: "id", Type: types.Int64}, {Name: "v", Type: types.Int64},
				}, rows)); err != nil {
					t.Fatal(err)
				}
			}
			countContainers := func() int {
				init, _ := db.anyUpNode()
				snap := init.catalog.Snapshot()
				tbl, _ := snap.TableByName("t")
				n := 0
				for _, p := range snap.ProjectionsOf(tbl.OID) {
					n += len(snap.ContainersOf(p.OID, catalog.GlobalShard))
				}
				return n
			}
			before := countContainers()
			stats, err := db.RunMergeout()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Jobs == 0 {
				t.Fatalf("expected mergeout jobs for %d containers", before)
			}
			after := countContainers()
			if after >= before {
				t.Errorf("containers %d -> %d, expected reduction", before, after)
			}
			res := mustQuery(t, s, `SELECT COUNT(*) FROM t`)
			if res.Row(t, 0)[0].I != 120 {
				t.Errorf("count after mergeout = %v", res.Rows())
			}
		})
	}
}

func TestMergeoutPurgesDeletes(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (id INTEGER)`)
	rows := make([]types.Row, 100)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	if err := db.LoadRows("t", types.BatchFromRows(types.Schema{{Name: "id", Type: types.Int64}}, rows)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `DELETE FROM t WHERE id < 50`)
	stats, err := db.RunMergeout()
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsPurged == 0 {
		t.Error("mergeout should purge deleted rows")
	}
	res := mustQuery(t, s, `SELECT COUNT(*) FROM t`)
	if res.Row(t, 0)[0].I != 50 {
		t.Errorf("count = %v", res.Rows())
	}
	// No delete vectors should remain on merged containers.
	init, _ := db.anyUpNode()
	snap := init.catalog.Snapshot()
	snap.ForEach(catalog.KindDeleteVector, func(o catalog.Object) bool {
		t.Errorf("stale delete vector %d", o.GetOID())
		return true
	})
}

func TestGCDeletesDroppedFilesSafely(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (id INTEGER)`)
	rows := make([]types.Row, 200)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	schema := types.Schema{{Name: "id", Type: types.Int64}}
	for k := 0; k < 4; k++ {
		if err := db.LoadRows("t", types.BatchFromRows(schema, rows)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.RunMergeout(); err != nil {
		t.Fatal(err)
	}
	if db.PendingDeletes() == 0 {
		t.Fatal("mergeout should queue dropped files")
	}
	// Without a metadata sync the truncation version is 0: nothing may
	// be deleted yet (a revive could resurrect the old catalog).
	n, err := db.RunGC()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("GC deleted %d files before truncation advanced", n)
	}
	if err := db.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	n, err = db.RunGC()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("GC should delete after truncation passes the drop version")
	}
	// Queries still correct after GC.
	res := mustQuery(t, s, `SELECT COUNT(*) FROM t`)
	if res.Row(t, 0)[0].I != 800 {
		t.Errorf("count = %v", res.Rows())
	}
}

func TestScrubLeakedFiles(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	setupSales(t, db, 50)
	ctx := db.Context()
	// Leak a file: a crashed instance's orphan (prefix not of any
	// running instance).
	leaked := "data/ff/deadbeef00000000000000000000ff_0000000000000001_x"
	if err := db.SharedStore().Put(ctx, leaked, []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	removed, err := db.ScrubLeakedFiles()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range removed {
		if r == leaked {
			found = true
		}
	}
	if !found {
		t.Errorf("leaked file not scrubbed: removed=%v", removed)
	}
	// Referenced files must survive.
	s := db.NewSession()
	res := mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	if res.Row(t, 0)[0].I != 50 {
		t.Errorf("scrub removed live data: %v", res.Rows())
	}
}

func TestScrubSkipsRunningInstanceFiles(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	setupSales(t, db, 10)
	ctx := db.Context()
	// A file being written by a running instance (not yet committed).
	n1, _ := db.Node("node1")
	inflight := fmt.Sprintf("data/%s_%016x_y", string(n1.InstanceID())[:2]+"/"+string(n1.InstanceID()), 999)
	if err := db.SharedStore().Put(ctx, inflight, []byte("inflight")); err != nil {
		t.Fatal(err)
	}
	removed, err := db.ScrubLeakedFiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range removed {
		if r == inflight {
			t.Error("scrub must skip running-instance files (§6.5)")
		}
	}
}

func TestSyncAndTruncationVersion(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 100)
	if db.TruncationVersion() != 0 {
		t.Error("truncation starts at 0")
	}
	if err := db.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	init, _ := db.anyUpNode()
	if db.TruncationVersion() != init.catalog.Version() {
		t.Errorf("truncation = %d, cluster version = %d", db.TruncationVersion(), init.catalog.Version())
	}
	// The commit point exists with the right content.
	info, _, err := cluster.ReadInfo(db.Context(), db.SharedStore())
	if err != nil {
		t.Fatal(err)
	}
	if info.TruncationVersion != db.TruncationVersion() || info.Incarnation != db.Incarnation() {
		t.Errorf("commit point = %+v, want truncation %d of incarnation %s", info, db.TruncationVersion(), db.Incarnation())
	}
}

func TestShutdownAndRevive(t *testing.T) {
	shared := objstore.NewMem()
	db, err := Create(Config{
		Mode:   ModeEon,
		Nodes:  []NodeSpec{{Name: "node1"}, {Name: "node2"}, {Name: "node3"}},
		Shared: shared, ShardCount: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	setupSales(t, db, 150)
	oldIncarnation := db.Incarnation()
	if err := db.Shutdown(); err != nil {
		t.Fatal(err)
	}

	db2, err := Revive(Config{Shared: shared})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Incarnation() == oldIncarnation {
		t.Error("revive must adopt a new incarnation id")
	}
	s := db2.NewSession()
	res := mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	if res.Row(t, 0)[0].I != 150 {
		t.Errorf("revived count = %v", res.Rows())
	}
	// The revived cluster accepts new writes.
	mustExec(t, s, `INSERT INTO sales VALUES (9999, 'omega', 1.5, 'south')`)
	res = mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	if res.Row(t, 0)[0].I != 151 {
		t.Errorf("post-revive count = %v", res.Rows())
	}
}

func TestReviveDiscardsUnsyncedCommits(t *testing.T) {
	shared := objstore.NewMem()
	db, err := Create(Config{
		Mode:   ModeEon,
		Nodes:  []NodeSpec{{Name: "node1"}, {Name: "node2"}},
		Shared: shared, ShardCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	setupSales(t, db, 100)
	if err := db.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	// This commit happens after the last sync: its metadata never
	// reaches shared storage (the data files do).
	s := db.NewSession()
	mustExec(t, s, `INSERT INTO sales VALUES (777, 'lost', 1.0, 'x')`)
	// Simulate catastrophic loss of all instances: no clean shutdown.
	for _, n := range db.Nodes() {
		n.up.Store(false)
	}
	db.shutdown.Store(true)

	db2, err := Revive(Config{Shared: shared, Now: func() time.Time {
		return time.Now().Add(time.Hour) // lease from the dead cluster expired
	}})
	if err != nil {
		t.Fatal(err)
	}
	s2 := db2.NewSession()
	res := mustQuery(t, s2, `SELECT COUNT(*) FROM sales`)
	// The unsynced commit is discarded by truncation: 100 rows, not 101.
	if res.Row(t, 0)[0].I != 100 {
		t.Errorf("revived count = %v, want truncated 100", res.Rows())
	}
}

func TestReviveRespectsLease(t *testing.T) {
	shared := objstore.NewMem()
	db, err := Create(Config{
		Mode:   ModeEon,
		Nodes:  []NodeSpec{{Name: "node1"}, {Name: "node2"}},
		Shared: shared, ShardCount: 2, LeaseDuration: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	setupSales(t, db, 10)
	if err := db.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	// The original cluster still "runs": its lease is fresh.
	_, err = Revive(Config{Shared: shared})
	if !errors.Is(err, ErrLeaseHeld) {
		t.Errorf("revive should abort on a live lease, got %v", err)
	}
}

func TestOCCConflictOnConcurrentSchemaChange(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (id INTEGER)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)

	// Two concurrent ALTERs race; OCC must let exactly one win per
	// column name and serialize correctly overall (§6.3).
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stmt, _ := sql.Parse(fmt.Sprintf(`ALTER TABLE t ADD COLUMN c%d INTEGER DEFAULT %d`, i, i))
			errs[i] = db.AlterAddColumn(stmt.(*sql.AlterAddColumn))
		}(i)
	}
	wg.Wait()
	// At least one succeeds; a failure must be a clean conflict.
	okCount := 0
	for _, err := range errs {
		if err == nil {
			okCount++
		} else if !errors.Is(err, catalog.ErrConflict) {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if okCount == 0 {
		t.Fatal("both ALTERs failed")
	}
}

func TestLoadRollsBackOnSubscriptionChange(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (id INTEGER)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`) // creates default projection

	// Validation hook failure path: craft a load whose writer loses its
	// subscription before commit by committing a subscription change
	// concurrently. Simulate directly via validateWriters.
	validate := db.validateWriters([]writerShard{{node: "node1", shard: 0}})
	init, _ := db.anyUpNode()
	snap := init.catalog.Snapshot()
	if err := validate(snap); err != nil {
		t.Fatalf("current subscription should validate: %v", err)
	}
	// Drop node1's shard-0 subscription.
	txn := init.catalog.Begin()
	for _, sub := range snap.Subscriptions("node1") {
		if sub.ShardIndex == 0 {
			txn.Delete(sub)
		}
	}
	if _, err := db.commit(init, txn, nil); err != nil {
		t.Fatal(err)
	}
	if err := validate(init.catalog.Snapshot()); err == nil {
		t.Error("validation should fail after unsubscription (§4.5)")
	}
}

func TestConcurrentQueriesAndLoads(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 200)
	var wg sync.WaitGroup
	errCh := make(chan error, 40)
	for i := 0; i < 10; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			if _, err := s.Query(`SELECT region, COUNT(*) AS n FROM sales GROUP BY region`); err != nil {
				errCh <- err
			}
		}()
		go func(i int) {
			defer wg.Done()
			s := db.NewSession()
			if _, err := s.Execute(fmt.Sprintf(`INSERT INTO sales VALUES (%d, 'c', 1.0, 'z')`, 10000+i)); err != nil {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("concurrent op failed: %v", err)
	}
	s := db.NewSession()
	res := mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	if res.Row(t, 0)[0].I != 210 {
		t.Errorf("final count = %v", res.Rows())
	}
}

func TestCacheBypassSession(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	setupSales(t, db, 100)
	// Clear all caches so reads must hit shared storage.
	for _, n := range db.Nodes() {
		n.cache.Clear(db.Context())
	}
	s := db.NewSession()
	s.BypassCache = true
	mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	for _, n := range db.Nodes() {
		if n.cache.Stats().Files != 0 {
			t.Error("bypass session must not populate the cache")
		}
	}
}
