package core

import (
	"fmt"
	"strings"
	"testing"
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
