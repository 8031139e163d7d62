package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"eon/internal/catalog"
	"eon/internal/objstore"
	"eon/internal/types"
)

// DELETE, UPDATE and ADD COLUMN rewrite every container of the table, and
// CREATE PROJECTION's empty-table check reads every one, not only those in
// the initiator's catalog: an Eon node's catalog holds the shards it
// subscribes to plus whatever it committed itself, so after a failover or
// a recovery no single node lists every container. Setup:
// 4 nodes, 4 shards, two subscribers per shard, sales rows 1..400 with
// price ((sale_id-1) % 50) + 1, loaded while node1 initiates.
func TestDMLSeesEveryShard(t *testing.T) {
	count := func(t *testing.T, s *Session, q string) int64 {
		t.Helper()
		return mustQuery(t, s, q).Row(t, 0)[0].I
	}
	// recovered kills node1, inserts sale_ids 401..406 through node2, and
	// brings node1 back: node1 initiates again and holds all 400 loaded
	// rows' containers but only the new ones of its own two shards.
	recovered := func(t *testing.T) (*DB, *Session) {
		db := newTestDB(t, ModeEon, 4, 4)
		setupSales(t, db, 400)
		if err := db.KillNode("node1"); err != nil {
			t.Fatal(err)
		}
		s := db.NewSession()
		for id := 401; id <= 406; id++ {
			mustExec(t, s, fmt.Sprintf(`INSERT INTO sales VALUES (%d, 'new', 1.0, 'east')`, id))
		}
		if err := db.RecoverNode("node1"); err != nil {
			t.Fatal(err)
		}
		return db, s
	}

	t.Run("delete_with_initiator_down", func(t *testing.T) {
		db := newTestDB(t, ModeEon, 4, 4)
		setupSales(t, db, 400)
		if err := db.KillNode("node1"); err != nil {
			t.Fatal(err)
		}
		s := db.NewSession()
		if n := mustExec(t, s, `DELETE FROM sales WHERE sale_id > 0`).Row(t, 0)[0].I; n != 400 {
			t.Errorf("DELETE reported %d rows, want 400", n)
		}
		if n := count(t, s, `SELECT COUNT(*) FROM sales`); n != 0 {
			t.Errorf("%d rows left, want 0", n)
		}
	})

	t.Run("delete_after_recovery", func(t *testing.T) {
		_, s := recovered(t)
		if n := mustExec(t, s, `DELETE FROM sales WHERE sale_id > 0`).Row(t, 0)[0].I; n != 406 {
			t.Errorf("DELETE reported %d rows, want 406", n)
		}
		if n := count(t, s, `SELECT COUNT(*) FROM sales`); n != 0 {
			t.Errorf("%d rows left, want 0", n)
		}
	})

	t.Run("update_after_recovery", func(t *testing.T) {
		_, s := recovered(t)
		if n := mustExec(t, s, `UPDATE sales SET price = 0.0 WHERE sale_id > 346`).Row(t, 0)[0].I; n != 60 {
			t.Errorf("UPDATE reported %d rows, want 60", n)
		}
		if n := count(t, s, `SELECT COUNT(*) FROM sales WHERE price = 0.0`); n != 60 {
			t.Errorf("%d rows updated, want 60", n)
		}
		if n := count(t, s, `SELECT COUNT(*) FROM sales`); n != 406 {
			t.Errorf("%d rows, want 406", n)
		}
	})

	t.Run("add_column_after_recovery", func(t *testing.T) {
		_, s := recovered(t)
		mustExec(t, s, `ALTER TABLE sales ADD COLUMN c2 INTEGER DEFAULT sale_id + 1`)
		// Sum over 1..406 of (sale_id + 1) = 406*407/2 + 406.
		if n := count(t, s, `SELECT SUM(c2) FROM sales`); n != 406*407/2+406 {
			t.Errorf("SUM(c2) = %d, want %d", n, 406*407/2+406)
		}
		if n := count(t, s, `SELECT COUNT(*) FROM sales WHERE c2 = sale_id + 1`); n != 406 {
			t.Errorf("%d rows with c2 = sale_id + 1, want 406", n)
		}
	})

	// node2 deletes 1..100 while node1 is down; node1 recovers only the
	// delete vectors of its own shards, so its copies of the other shards'
	// containers miss them. An UPDATE through node1 must still see those
	// rows as deleted and neither count nor re-insert them.
	t.Run("update_sees_deletes_node1_missed", func(t *testing.T) {
		db := newTestDB(t, ModeEon, 4, 4)
		setupSales(t, db, 400)
		if err := db.KillNode("node1"); err != nil {
			t.Fatal(err)
		}
		s := db.NewSession()
		if n := mustExec(t, s, `DELETE FROM sales WHERE sale_id <= 100`).Row(t, 0)[0].I; n != 100 {
			t.Errorf("DELETE reported %d rows, want 100", n)
		}
		if err := db.RecoverNode("node1"); err != nil {
			t.Fatal(err)
		}
		if n := mustExec(t, s, `UPDATE sales SET price = 0.0 WHERE sale_id <= 200`).Row(t, 0)[0].I; n != 100 {
			t.Errorf("UPDATE reported %d rows, want 100", n)
		}
		if n := count(t, s, `SELECT COUNT(*) FROM sales`); n != 300 {
			t.Errorf("%d rows, want 300", n)
		}
		if n := count(t, s, `SELECT COUNT(*) FROM sales WHERE price = 0.0`); n != 100 {
			t.Errorf("%d rows updated, want 100", n)
		}
	})
	// One row inserted while node1 is down lands in one shard; node1
	// initiates again after recovery and may not hold it. The table has
	// data, so a second projection must be refused — an accepted one
	// starts empty, and the narrower projection would answer COUNT(*).
	t.Run("create_projection_after_recovery", func(t *testing.T) {
		for id := 1; id <= 8; id++ {
			db := newTestDB(t, ModeEon, 4, 4)
			s := db.NewSession()
			mustExec(t, s, `CREATE TABLE t (id INTEGER, v INTEGER)`)
			mustExec(t, s, `CREATE PROJECTION t_p1 AS SELECT * FROM t ORDER BY id SEGMENTED BY HASH(id) ALL NODES`)
			if err := db.KillNode("node1"); err != nil {
				t.Fatal(err)
			}
			mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 1)`, id))
			if err := db.RecoverNode("node1"); err != nil {
				t.Fatal(err)
			}
			_, err := s.Execute(`CREATE PROJECTION t_p2 AS SELECT v FROM t ORDER BY v SEGMENTED BY HASH(v) ALL NODES`)
			if err == nil || !strings.Contains(err.Error(), "already has data") {
				t.Errorf("id %d: CREATE PROJECTION on a loaded table: err = %v, want already has data", id, err)
			}
			if n := count(t, s, `SELECT COUNT(*) FROM t WHERE v = 1`); n != 1 {
				t.Errorf("id %d: %d rows with v = 1, want 1", id, n)
			}
		}
	})
}

// holdDVStore holds every delete-vector PUT from the first one until
// release is closed, and closes reached when the first one arrives.
type holdDVStore struct {
	objstore.Store
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func (h *holdDVStore) Put(ctx context.Context, key string, data []byte) error {
	if strings.HasSuffix(key, "_dv") {
		h.once.Do(func() { close(h.reached) })
		<-h.release
	}
	return h.Store.Put(ctx, key, data)
}

// A DELETE whose container a mergeout replaces between the DELETE's cut
// and its commit must not commit its delete vectors onto the dropped
// container, or the rows survive in the merged one: it fails with a
// conflict, or it leaves no matching row.
func TestDeleteConflictsWithMergeout(t *testing.T) {
	shared := &holdDVStore{Store: objstore.NewMem(), reached: make(chan struct{}), release: make(chan struct{})}
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
	// Four loads: four containers per shard, one mergeout job each.
	for l := 0; l < 4; l++ {
		rows := make([]types.Row, 25)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(l*25 + i))}
		}
		if err := db.LoadRows("t", types.BatchFromRows(types.Schema{{Name: "id", Type: types.Int64}}, rows)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Execute(`DELETE FROM t WHERE id < 10`)
		done <- err
	}()
	<-shared.reached
	st, err := db.RunMergeout()
	if err != nil || st.Jobs == 0 {
		t.Fatalf("mergeout ran %d jobs, err %v; want some", st.Jobs, err)
	}
	close(shared.release)
	if err := <-done; err != nil {
		if !errors.Is(err, catalog.ErrConflict) {
			t.Fatalf("DELETE failed with %v, want a conflict", err)
		}
		return
	}
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM t WHERE id < 10`).Row(t, 0)[0].I; n != 0 {
		t.Errorf("DELETE reported success, but %d of its rows survive", n)
	}
}

// An UPDATE the table cannot take (no projection holds every column)
// fails before it writes anything to shared storage.
func TestUpdateWithoutFullProjectionWritesNothing(t *testing.T) {
	shared := objstore.NewMem()
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
	mustExec(t, s, `CREATE TABLE u (a INTEGER, b INTEGER, c INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION u_ab AS SELECT a, b FROM u ORDER BY a SEGMENTED BY HASH(a) ALL NODES`)
	mustExec(t, s, `CREATE PROJECTION u_ac AS SELECT a, c FROM u ORDER BY a SEGMENTED BY HASH(a) ALL NODES`)
	mustExec(t, s, `INSERT INTO u VALUES (1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)`)
	keys := func() int {
		t.Helper()
		infos, err := shared.List(context.Background(), "")
		if err != nil {
			t.Fatal(err)
		}
		return len(infos)
	}
	before := keys()
	_, err = s.Execute(`UPDATE u SET b = 0 WHERE a > 0`)
	if err == nil || !strings.Contains(err.Error(), "requires a projection containing every column") {
		t.Fatalf("UPDATE without a full-column projection: err = %v", err)
	}
	if after := keys(); after != before {
		t.Errorf("shared storage went from %d to %d keys on a failed UPDATE", before, after)
	}
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM u WHERE b > 0`).Row(t, 0)[0].I; n != 4 {
		t.Errorf("%d rows with b > 0, want 4", n)
	}
}

// An Enterprise node's own copy of a table is listed only on that node,
// and recovery copies it back unchanged: every statement that writes
// storage — DELETE, UPDATE, ADD COLUMN, DROP TABLE, DROP_PARTITION,
// MOVE_PARTITIONS_TO_TABLE, copy_table and the SET USING refresh — is
// refused with a node down before it writes anything, and after the
// recovery a DELETE removes its rows from every copy, so none comes
// back, and an added column is in every copy.
func TestEnterpriseDMLNeedsEveryNode(t *testing.T) {
	db := newTestDB(t, ModeEnterprise, 3, 3)
	setupSales(t, db, 300)
	setupFlattened(t, db)
	s := db.NewSession()
	mustExec(t, s, `INSERT INTO facts VALUES (1, 1, NULL), (2, 2, NULL)`)
	mustExec(t, s, `CREATE TABLE sales2 (sale_id INTEGER, customer VARCHAR, price FLOAT, region VARCHAR)`)
	mustExec(t, s, `CREATE PROJECTION sales2_p1 AS SELECT * FROM sales2 ORDER BY sale_id SEGMENTED BY HASH(sale_id) ALL NODES`)
	count := func(q string) int64 {
		t.Helper()
		return mustQuery(t, s, q).Row(t, 0)[0].I
	}
	if err := db.KillNode("node2"); err != nil {
		t.Fatal(err)
	}
	// written sums up what the nodes hold: the catalog version and the
	// local files.
	written := func() string {
		var files, bytes int64
		for _, n := range db.Nodes() {
			infos, err := n.fs.List(db.Context(), "")
			if err != nil {
				t.Fatal(err)
			}
			for _, fi := range infos {
				files, bytes = files+1, bytes+fi.Size
			}
		}
		return fmt.Sprintf("v%d, %d files, %d bytes", mustUp(t, db).catalog.Version(), files, bytes)
	}
	exec := func(q string) func() error {
		return func() error {
			_, err := s.Execute(q)
			return err
		}
	}
	before := written()
	for _, st := range []struct {
		name string
		run  func() error
	}{
		{"delete", exec(`DELETE FROM sales WHERE sale_id <= 100`)},
		{"update", exec(`UPDATE sales SET price = 0.0 WHERE sale_id <= 100`)},
		{"add_column", exec(`ALTER TABLE sales ADD COLUMN tag INTEGER DEFAULT 7`)},
		{"drop_table", exec(`DROP TABLE sales`)},
		{"drop_partition", func() error { _, err := db.DropPartition("sales", ""); return err }},
		{"move_partition", func() error { _, err := db.MovePartition("sales", "sales2", ""); return err }},
		{"copy_table", func() error { return db.CopyTable("sales", "sales_copy") }},
		{"refresh", func() error { _, err := db.RefreshColumns("facts"); return err }},
	} {
		if err := st.run(); err == nil || !strings.Contains(err.Error(), "every node up") {
			t.Errorf("%s with node2 down: err = %v, want every node up", st.name, err)
		}
		if after := written(); after != before {
			t.Errorf("%s with node2 down wrote: before %s, after %s", st.name, before, after)
			before = after
		}
	}
	if n := count(`SELECT COUNT(*) FROM sales WHERE sale_id <= 100 AND price > 0.0`); n != 100 {
		t.Errorf("%d of the refused statements' rows left unchanged, want 100", n)
	}
	if err := db.RecoverNode("node2"); err != nil {
		t.Fatal(err)
	}
	if n := mustExec(t, s, `DELETE FROM sales WHERE sale_id <= 100`).Row(t, 0)[0].I; n != 100 {
		t.Errorf("DELETE after recovery reported %d rows, want 100", n)
	}
	if n := count(`SELECT COUNT(*) FROM sales WHERE sale_id <= 100`); n != 0 {
		t.Errorf("%d deleted rows came back, want 0", n)
	}
	mustExec(t, s, `ALTER TABLE sales ADD COLUMN tag INTEGER DEFAULT 7`)
	if n := count(`SELECT COUNT(*) FROM sales WHERE tag = 7`); n != 200 {
		t.Errorf("%d rows with the added column, want 200", n)
	}
}

// A DELETE conflicts only with a mergeout of a container it deletes from:
// one that merges containers the DELETE read but found nothing in does
// not fail it. Partition 0 has one container per shard, where the
// matching rows are; partition 1 has four per shard, which the DELETE
// reads (its predicate cannot prune them) and the mergeout merges.
func TestDeleteIgnoresMergeoutOfUnmatchedContainers(t *testing.T) {
	shared := &holdDVStore{Store: objstore.NewMem(), reached: make(chan struct{}), release: make(chan struct{})}
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
	mustExec(t, s, `CREATE TABLE t (id INTEGER, bucket INTEGER) PARTITION BY bucket`)
	schema := types.Schema{{Name: "id", Type: types.Int64}, {Name: "bucket", Type: types.Int64}}
	for l := 0; l < 5; l++ {
		bucket := int64(min(l, 1))
		rows := make([]types.Row, 25)
		for i := range rows {
			// Partition 1's ids are 50..99 modulo 100, none of which matches.
			id := int64(l*100 + i)
			if bucket == 1 {
				id += 50
			}
			rows[i] = types.Row{types.NewInt(id), types.NewInt(bucket)}
		}
		if err := db.LoadRows("t", types.BatchFromRows(schema, rows)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Execute(`DELETE FROM t WHERE id % 100 < 10`)
		done <- err
	}()
	<-shared.reached
	st, err := db.RunMergeout()
	if err != nil || st.Jobs == 0 {
		t.Fatalf("mergeout ran %d jobs, err %v; want some", st.Jobs, err)
	}
	close(shared.release)
	if err := <-done; err != nil {
		t.Fatalf("DELETE failed with %v, want success", err)
	}
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM t WHERE id % 100 < 10`).Row(t, 0)[0].I; n != 0 {
		t.Errorf("%d of the DELETE's rows survive, want 0", n)
	}
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM t`).Row(t, 0)[0].I; n != 115 {
		t.Errorf("%d rows, want 115", n)
	}
}

// holdLoadStore, once armed, holds every container-file PUT (a data file
// that is not a delete vector) from the first one until release is
// closed, and closes reached when the first one arrives.
type holdLoadStore struct {
	objstore.Store
	armed   atomic.Bool
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func (h *holdLoadStore) Put(ctx context.Context, key string, data []byte) error {
	if h.armed.Load() && strings.HasPrefix(key, "data/") && !strings.HasSuffix(key, "_dv") {
		h.once.Do(func() { close(h.reached) })
		<-h.release
	}
	return h.Store.Put(ctx, key, data)
}

// An UPDATE is one commit: while its re-inserted rows are still on their
// way to shared storage, its delete vectors are not committed either, so
// a reader sees every row.
func TestUpdateCommitsOnce(t *testing.T) {
	shared := &holdLoadStore{Store: objstore.NewMem(), reached: make(chan struct{}), release: make(chan struct{})}
	db, err := Create(Config{
		Mode:       ModeEon,
		Nodes:      []NodeSpec{{Name: "node1"}, {Name: "node2"}, {Name: "node3"}},
		ShardCount: 3,
		Shared:     shared,
	})
	if err != nil {
		t.Fatal(err)
	}
	setupSales(t, db, 100)
	shared.armed.Store(true)
	s := db.NewSession()
	done := make(chan error, 1)
	go func() {
		_, err := s.Execute(`UPDATE sales SET price = price + 1 WHERE sale_id <= 50`)
		done <- err
	}()
	select {
	case <-shared.reached:
	case err := <-done:
		close(shared.release)
		t.Fatalf("UPDATE ended (err %v) without writing a container", err)
	}
	r := db.NewSession()
	res, err := r.Query(`SELECT COUNT(*) FROM sales`)
	close(shared.release)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Row(t, 0)[0].I; n != 100 {
		t.Errorf("COUNT(*) = %d while the UPDATE's containers were uploading, want 100", n)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// price is ((sale_id-1) % 50) + 1: sum 2 * 1275, plus 1 for each of
	// the 50 updated rows.
	if got := mustQuery(t, r, `SELECT COUNT(*), SUM(price) FROM sales`).Row(t, 0); got[0].I != 100 || got[1].F != 2600 {
		t.Errorf("after the UPDATE: COUNT(*), SUM(price) = %v, want 100, 2600", got)
	}
}

// Readers running alongside a stream of UPDATEs never see the table's
// row count change, in either mode.
func TestUpdateReadersSeeNoGap(t *testing.T) {
	for _, mode := range []Mode{ModeEon, ModeEnterprise} {
		t.Run(mode.String(), func(t *testing.T) {
			db := newTestDB(t, mode, 3, 3)
			setupSales(t, db, 100)
			stop := make(chan struct{})
			var reads, wrong atomic.Int64
			var wg sync.WaitGroup
			halt := sync.OnceFunc(func() {
				close(stop)
				wg.Wait()
			})
			defer halt()
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := db.NewSession()
				for {
					select {
					case <-stop:
						return
					default:
					}
					res, err := r.Query(`SELECT COUNT(*) FROM sales`)
					if err != nil {
						t.Error(err)
						return
					}
					reads.Add(1)
					if res.Batch.Row(0)[0].I != 100 {
						wrong.Add(1)
					}
				}
			}()
			s := db.NewSession()
			for i := 0; i < 20; i++ {
				mustExec(t, s, `UPDATE sales SET price = price + 1 WHERE sale_id <= 50`)
			}
			halt()
			if reads.Load() == 0 {
				t.Error("the reader ran no query alongside the UPDATEs")
			}
			if wrong.Load() > 0 {
				t.Errorf("%d of %d concurrent reads saw a row count other than 100", wrong.Load(), reads.Load())
			}
			if got := mustQuery(t, s, `SELECT SUM(price) FROM sales`).Row(t, 0)[0].F; got != 2*1275+20*50 {
				t.Errorf("SUM(price) = %v after 20 UPDATEs, want %d", got, 2*1275+20*50)
			}
		})
	}
}
