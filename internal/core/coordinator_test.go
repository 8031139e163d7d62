package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eon/internal/catalog"
	"eon/internal/objstore"
	"eon/internal/types"
)

// The catalogs of one database draw OIDs from one counter: allocations
// interleaved on two nodes never return the same OID, so a transaction
// in flight on one initiator cannot name an object another commits.
func TestOIDsUniqueAcrossInitiators(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	n1, _ := db.Node("node1")
	n2, _ := db.Node("node2")
	seen := map[catalog.OID]string{}
	for i := 0; i < 100; i++ {
		for _, n := range []*Node{n1, n2} {
			oid := n.catalog.NewOID()
			if by, dup := seen[oid]; dup {
				t.Fatalf("OID %d handed out by %s and by %s", oid, by, n.name)
			}
			seen[oid] = n.name
		}
	}
}

// containersPerShard counts each segment shard's containers of table in
// the catalog of one up ACTIVE subscriber of that shard.
func containersPerShard(t *testing.T, db *DB, table string) []int {
	t.Helper()
	init, err := db.anyUpNode()
	if err != nil {
		t.Fatal(err)
	}
	snap := init.catalog.Snapshot()
	tbl, _ := snap.TableByName(table)
	out := make([]int, db.cfg.ShardCount)
	for sh := range out {
		for _, sub := range snap.SubscribersOf(sh, catalog.SubActive) {
			n, ok := db.Node(sub.Node)
			if !ok || !n.Up() {
				continue
			}
			own := n.catalog.Snapshot()
			for _, p := range own.ProjectionsOf(tbl.OID) {
				out[sh] += len(own.ContainersOf(p.OID, sh))
			}
			break
		}
	}
	return out
}

// After a node recovers, its catalog holds the containers of the shards
// it subscribes to and nothing loaded meanwhile in the others. Each
// mergeout job lists and commits on its shard's coordinator, so one pass
// still merges every shard. Eon, 4 nodes, 4 shards, k=2: eight 40-row
// loads while node1 is down put eight containers in each shard.
func TestMergeoutCoversEveryShardAfterRecovery(t *testing.T) {
	db := newTestDB(t, ModeEon, 4, 4)
	mustExec(t, db.NewSession(), `CREATE TABLE t (id INTEGER)`)
	if err := db.KillNode("node1"); err != nil {
		t.Fatal(err)
	}
	schema := types.Schema{{Name: "id", Type: types.Int64}}
	for l := 0; l < 8; l++ {
		b := types.NewBatch(schema, 40)
		for i := 0; i < 40; i++ {
			b.AppendRow(types.Row{types.NewInt(int64(l*40 + i))})
		}
		if err := db.LoadRows("t", b); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.RecoverNode("node1"); err != nil {
		t.Fatal(err)
	}
	st, err := db.RunMergeout()
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 4 {
		t.Errorf("mergeout ran %d jobs, want 4 (one per shard)", st.Jobs)
	}
	for sh, n := range containersPerShard(t, db, "t") {
		if n != 1 {
			t.Errorf("shard %d holds %d containers after mergeout, want 1", sh, n)
		}
	}
	if n := mustQuery(t, db.NewSession(), `SELECT COUNT(*) FROM t`).Row(t, 0)[0].I; n != 320 {
		t.Errorf("COUNT(*) = %d, want 320", n)
	}
	checkSubscribersAgree(t, db)
}

// A DELETE that commits while a mergeout uploads its output lands delete
// vectors on the mergeout's inputs. The mergeout's commit sees that its
// inputs no longer carry the delete vectors it applied, fails with a
// conflict and leaves the job to the next pass, so the DELETE's rows stay
// deleted. Eon, 2 nodes, 2 shards, four 25-row loads.
func TestMergeoutKeepsConcurrentDelete(t *testing.T) {
	shared := &holdLoadStore{Store: objstore.NewMem(), reached: make(chan struct{}), release: make(chan struct{})}
	db, err := Create(Config{
		Mode:       ModeEon,
		Nodes:      []NodeSpec{{Name: "node1"}, {Name: "node2"}},
		ShardCount: 2,
		Shared:     shared,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (id INTEGER)`)
	schema := types.Schema{{Name: "id", Type: types.Int64}}
	for l := 0; l < 4; l++ {
		b := types.NewBatch(schema, 25)
		for i := 0; i < 25; i++ {
			b.AppendRow(types.Row{types.NewInt(int64(l*25 + i))})
		}
		if err := db.LoadRows("t", b); err != nil {
			t.Fatal(err)
		}
	}
	shared.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := db.RunMergeout()
		done <- err
	}()
	<-shared.reached
	shared.armed.Store(false)
	if n := mustExec(t, s, `DELETE FROM t WHERE id < 10`).Row(t, 0)[0].I; n != 10 {
		t.Errorf("DELETE reported %d rows, want 10", n)
	}
	close(shared.release)
	if err := <-done; err != nil {
		t.Fatalf("mergeout: %v", err)
	}
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM t WHERE id < 10`).Row(t, 0)[0].I; n != 0 {
		t.Errorf("%d rows with id < 10 after the DELETE, want 0", n)
	}
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM t`).Row(t, 0)[0].I; n != 90 {
		t.Errorf("COUNT(*) = %d, want 90", n)
	}
	st, err := db.RunMergeout()
	if err != nil || st.Jobs == 0 {
		t.Errorf("second mergeout pass ran %d jobs, err %v; want the skipped job", st.Jobs, err)
	}
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM t`).Row(t, 0)[0].I; n != 90 {
		t.Errorf("COUNT(*) after the second pass = %d, want 90", n)
	}
	checkSubscribersAgree(t, db)
}

// A SET USING lookup reads the whole dimension through the query's
// participants. Loaded while node1 was down, a segmented dimension's rows
// sit in shards node1 does not subscribe to, yet a load that node1
// initiates after its recovery labels every fact row. Eon, 4 nodes, 4
// shards, k=2.
func TestFlattenAfterRecoveryLabelsEveryRow(t *testing.T) {
	db := newTestDB(t, ModeEon, 4, 4)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE dims (d_id INTEGER, label VARCHAR)`)
	mustExec(t, s, `CREATE PROJECTION dims_p AS SELECT * FROM dims ORDER BY d_id SEGMENTED BY HASH(d_id) ALL NODES`)
	mustExec(t, s, `CREATE TABLE facts (
		id INTEGER, dim_id INTEGER,
		dim_label VARCHAR SET USING dims.label ON dim_id = dims.d_id
	)`)
	if err := db.KillNode("node1"); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 20; id++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO dims VALUES (%d, 'd%d')`, id, id))
	}
	if err := db.RecoverNode("node1"); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 20; id++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO facts VALUES (%d, %d, NULL)`, 100+id, id))
	}
	if n := mustQuery(t, s, `SELECT COUNT(dim_label) FROM facts`).Row(t, 0)[0].I; n != 20 {
		t.Errorf("%d of 20 fact rows labelled", n)
	}
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM facts WHERE dim_label = 'd7'`).Row(t, 0)[0].I; n != 1 {
		t.Errorf("%d rows labelled d7, want 1", n)
	}
}

// A load and a mergeout whose initiators are killed and recovered in
// turn still count every acknowledged row exactly once: no commit puts a
// container or delete-vector OID another commit already put. Eon, 3
// nodes, 3 shards. For 150 ms a loader commits tagged 20-row batches, a
// mergeout loop runs, and node1, which initiates every load while it is
// up, is killed and recovered, with no pause and with a 1 ms pause
// between the two; 40 runs of each.
func TestInitiatorKillKeepsAcknowledgedRows(t *testing.T) {
	const perLoad = 20
	schema := types.Schema{{Name: "id", Type: types.Int64}, {Name: "tag", Type: types.Int64}}
	for _, pause := range []time.Duration{0, time.Millisecond} {
		for iter := 0; iter < 40; iter++ {
			db := newTestDB(t, ModeEon, 3, 3)
			mustExec(t, db.NewSession(), `CREATE TABLE t (id INTEGER, tag INTEGER)`)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			loop := func(step func()) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							step()
						}
					}
				}()
			}
			var (
				mu    sync.Mutex
				acked = map[int64]bool{}
				tag   int64 // the loader's alone
			)
			loop(func() {
				tag++
				b := types.NewBatch(schema, perLoad)
				for i := 0; i < perLoad; i++ {
					b.AppendRow(types.Row{types.NewInt(tag*perLoad + int64(i)), types.NewInt(tag)})
				}
				if db.LoadRows("t", b) == nil {
					mu.Lock()
					acked[tag] = true
					mu.Unlock()
				}
			})
			loop(func() { db.RunMergeout() })
			var recoverErr atomic.Value
			loop(func() {
				db.KillNode("node1")
				time.Sleep(pause)
				if err := db.RecoverNode("node1"); err != nil {
					recoverErr.Store(err)
				}
			})
			time.Sleep(150 * time.Millisecond)
			close(stop)
			wg.Wait()

			where := fmt.Sprintf("pause %v, run %d", pause, iter)
			if err, _ := recoverErr.Load().(error); err != nil {
				t.Fatalf("%s: recover: %v", where, err)
			}
			got := map[int64]int64{}
			for _, row := range mustQuery(t, db.NewSession(), `SELECT tag, COUNT(*) FROM t GROUP BY tag`).Rows() {
				got[row[0].I] = row[1].I
			}
			for tag, n := range got {
				if n != perLoad {
					t.Errorf("%s: tag %d has %d rows, want %d", where, tag, n, perLoad)
				}
			}
			for tag := range acked {
				if got[tag] != perLoad {
					t.Errorf("%s: acknowledged tag %d has %d rows, want %d", where, tag, got[tag], perLoad)
				}
			}
			put := map[catalog.OID]uint64{}
			for _, rec := range db.recordsAfter(0) {
				for _, op := range rec.Ops {
					if op.Delete || (op.Kind != catalog.KindStorageContainer && op.Kind != catalog.KindDeleteVector) {
						continue
					}
					if v, dup := put[op.OID]; dup {
						t.Errorf("%s: %s %d put by the commits of v%d and v%d", where, op.Kind, op.OID, v, rec.Version)
					}
					put[op.OID] = rec.Version
				}
			}
			checkSubscribersAgree(t, db)
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// After a revive the database's one OID counter continues past every
// object the revived catalogs hold, whichever node draws next.
func TestReviveOIDsAboveEveryLiveOID(t *testing.T) {
	mem := objstore.NewMem()
	db := reviveHistory(t, mem, 60)
	if err := db.Shutdown(); err != nil {
		t.Fatal(err)
	}
	rdb, err := Revive(Config{Shared: mem, Resilience: plainResilience()})
	if err != nil {
		t.Fatal(err)
	}
	var next catalog.OID
	for _, n := range rdb.Nodes() {
		next = max(next, catalog.MaxOID(n.catalog.Snapshot()))
	}
	for _, n := range rdb.Nodes() {
		if oid := n.catalog.NewOID(); oid < next {
			t.Errorf("%s hands out OID %d; a live object holds OID %d", n.name, oid, next-1)
		}
	}
}
