package core

import (
	"fmt"
	"strings"
	"testing"

	"eon/internal/catalog"
	"eon/internal/types"
)

// Every statement that changes storage — DROP TABLE, DROP_PARTITION,
// MOVE_PARTITIONS_TO_TABLE, copy_table and the SET USING refresh — lists
// the containers it drops, moves, copies or rewrites as a query's scans
// list them (queryEnv.eachContainer): each shard from a node that
// subscribes to it, each Enterprise copy from its owner. The initiator's
// own catalog is not enough: an Eon node holds only its own shards, and
// after a mergeout committed on each shard's coordinator, or a recovery,
// no single node holds every container.

// orphanContainers counts, over every up node's catalog, the containers
// whose projection that catalog no longer holds.
func orphanContainers(db *DB) int {
	orphans := 0
	for _, n := range db.Nodes() {
		if !n.Up() {
			continue
		}
		snap := n.catalog.Snapshot()
		snap.ForEach(catalog.KindStorageContainer, func(o catalog.Object) bool {
			if _, ok := snap.Get(o.(*catalog.StorageContainer).ProjOID); !ok {
				orphans++
			}
			return true
		})
	}
	return orphans
}

// setupStatementTables creates ev (i) partitioned on i % 3 and loads
// loads batches of 60 rows into it, then a flattened table facts whose
// facts rows arrive in factLoads INSERTs, with their dimension rows
// (segmented, so read through the participants) only after them: every
// fact row is unlabelled until a refresh. between runs after the
// tables are created and before any row is loaded.
func setupStatementTables(t *testing.T, db *DB, loads, facts, factLoads int, between func()) {
	t.Helper()
	s := db.NewSession()
	for _, q := range []string{
		`CREATE TABLE ev (i INTEGER) PARTITION BY i % 3`,
		`CREATE PROJECTION ev_p AS SELECT * FROM ev ORDER BY i SEGMENTED BY HASH(i) ALL NODES`,
		`CREATE TABLE dims (d_id INTEGER, label VARCHAR)`,
		`CREATE PROJECTION dims_p AS SELECT * FROM dims ORDER BY d_id SEGMENTED BY HASH(d_id) ALL NODES`,
		`CREATE TABLE facts (id INTEGER, dim_id INTEGER, dim_label VARCHAR SET USING dims.label ON dim_id = dims.d_id)`,
		`CREATE PROJECTION facts_p AS SELECT * FROM facts ORDER BY id SEGMENTED BY HASH(id) ALL NODES`,
	} {
		mustExec(t, s, q)
	}
	between()
	schema := types.Schema{{Name: "i", Type: types.Int64}}
	for l := 0; l < loads; l++ {
		b := types.NewBatch(schema, 60)
		for i := 0; i < 60; i++ {
			b.AppendRow(types.Row{types.NewInt(int64(l*60 + i))})
		}
		if err := db.LoadRows("ev", b); err != nil {
			t.Fatal(err)
		}
	}
	per := facts / factLoads
	for l := 0; l < factLoads; l++ {
		var vals []string
		for id := l*per + 1; id <= (l+1)*per; id++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, NULL)", id, id))
		}
		mustExec(t, s, `INSERT INTO facts VALUES `+strings.Join(vals, ", "))
	}
	var dims []string
	for id := 1; id <= facts; id++ {
		dims = append(dims, fmt.Sprintf("(%d, 'd%d')", id, id))
	}
	mustExec(t, s, `INSERT INTO dims VALUES `+strings.Join(dims, ", "))
}

// checkStorageStatements runs each storage statement on a fresh database
// from setup, which holds rows rows of ev (a third in each partition) and
// facts fact rows, and checks every row of it.
func checkStorageStatements(t *testing.T, setup func(t *testing.T) *DB, rows, facts int64) {
	count := func(t *testing.T, db *DB, q string) int64 {
		t.Helper()
		return mustQuery(t, db.NewSession(), q).Row(t, 0)[0].I
	}
	part := rows / 3
	for _, tc := range []struct {
		name  string
		run   func(t *testing.T, db *DB)
		check map[string]int64
	}{
		{"drop_partition", func(t *testing.T, db *DB) {
			if _, err := db.DropPartition("ev", "1"); err != nil {
				t.Fatal(err)
			}
		}, map[string]int64{
			`SELECT COUNT(*) FROM ev WHERE i % 3 = 1`: 0,
			`SELECT COUNT(*) FROM ev`:                 rows - part,
		}},
		{"move_partition", func(t *testing.T, db *DB) {
			mustExec(t, db.NewSession(), `CREATE TABLE ev2 (i INTEGER) PARTITION BY i % 3`)
			mustExec(t, db.NewSession(), `CREATE PROJECTION ev2_p AS SELECT * FROM ev2 ORDER BY i SEGMENTED BY HASH(i) ALL NODES`)
			if _, err := db.MovePartition("ev", "ev2", "1"); err != nil {
				t.Fatal(err)
			}
		}, map[string]int64{
			`SELECT COUNT(*) FROM ev2 WHERE i % 3 = 1`: part,
			`SELECT COUNT(*) FROM ev2`:                 part,
			`SELECT COUNT(*) FROM ev`:                  rows - part,
		}},
		{"copy_table", func(t *testing.T, db *DB) {
			if err := db.CopyTable("ev", "evc"); err != nil {
				t.Fatal(err)
			}
		}, map[string]int64{
			`SELECT COUNT(*) FROM evc`: rows,
			`SELECT COUNT(*) FROM ev`:  rows,
		}},
		{"drop_table", func(t *testing.T, db *DB) {
			mustExec(t, db.NewSession(), `DROP TABLE ev`)
		}, nil},
		{"refresh", func(t *testing.T, db *DB) {
			n, err := db.RefreshColumns("facts")
			if err != nil {
				t.Fatal(err)
			}
			if int64(n) != facts {
				t.Errorf("refresh reported %d rows, want %d", n, facts)
			}
		}, map[string]int64{
			`SELECT COUNT(dim_label) FROM facts`: facts,
			`SELECT COUNT(*) FROM facts`:         facts,
			`SELECT COUNT(*) FROM facts f JOIN dims d ON f.dim_id = d.d_id WHERE f.dim_label = d.label`: facts,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := setup(t)
			tc.run(t, db)
			for q, want := range tc.check {
				if got := count(t, db, q); got != want {
					t.Errorf("%s = %d, want %d", q, got, want)
				}
			}
			if n := orphanContainers(db); n != 0 {
				t.Errorf("%d containers left whose projection is gone", n)
			}
		})
	}
}

// TestStorageStatementsAfterMergeout: 3 nodes, 3 shards, both modes. Six
// 60-row loads of ev and 30 fact rows in six INSERTs, then one mergeout
// pass, whose jobs each commit on their shard's coordinator.
func TestStorageStatementsAfterMergeout(t *testing.T) {
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			checkStorageStatements(t, func(t *testing.T) *DB {
				db := newTestDB(t, mode, 3, 3)
				setupStatementTables(t, db, 6, 30, 6, func() {})
				if st, err := db.RunMergeout(); err != nil || st.Jobs == 0 {
					t.Fatalf("mergeout ran %d jobs, err %v", st.Jobs, err)
				}
				return db
			}, 360, 30)
		})
	}
}

// TestStorageStatementsAfterRecovery: Eon, 4 nodes, 4 shards, two
// subscribers per shard. node1 is down while ev's 180 rows and the 10
// fact rows load, is recovered, and then initiates every statement,
// holding only its own two shards of what was loaded.
func TestStorageStatementsAfterRecovery(t *testing.T) {
	checkStorageStatements(t, func(t *testing.T) *DB {
		db := newTestDB(t, ModeEon, 4, 4)
		setupStatementTables(t, db, 3, 10, 2, func() {
			if err := db.KillNode("node1"); err != nil {
				t.Fatal(err)
			}
		})
		if err := db.RecoverNode("node1"); err != nil {
			t.Fatal(err)
		}
		if init, _ := db.anyUpNode(); init.name != "node1" {
			t.Fatalf("%s initiates, want node1", init.name)
		}
		return db
	}, 180, 10)
}

// v_monitor.storage_containers lists every container once, as the
// statements list them: after a mergeout, each table's row counts add up
// to its rows times the copies each projection keeps (one in Eon's
// shared storage, base and buddy in Enterprise).
func TestStorageContainersListsEveryCopy(t *testing.T) {
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, mode, 3, 3)
			setupStatementTables(t, db, 6, 30, 6, func() {})
			if _, err := db.RunMergeout(); err != nil {
				t.Fatal(err)
			}
			copies := int64(1)
			if mode == ModeEnterprise {
				copies = 2
			}
			want := map[string]int64{"ev": 360 * copies, "facts": 30 * copies, "dims": 30 * copies}
			res := mustQuery(t, db.NewSession(), `SELECT table_name, SUM(row_count) FROM v_monitor.storage_containers GROUP BY table_name`)
			got := map[string]int64{}
			for _, r := range res.Rows() {
				got[r[0].S] = r[1].I
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("rows per table = %v, want %v", got, want)
			}
		})
	}
}

// An Enterprise copy keeps its buddy projection linked to its base's
// copy, so with a node down the buddy serves the clone's segments as it
// serves the original's.
func TestCopyTableKeepsBuddy(t *testing.T) {
	db := newTestDB(t, ModeEnterprise, 3, 3)
	loadPartitioned(t, db, "orig")
	if err := db.CopyTable("orig", "clone"); err != nil {
		t.Fatal(err)
	}
	if err := db.KillNode("node2"); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	for _, table := range []string{"orig", "clone"} {
		res, err := s.Query(`SELECT COUNT(*) FROM ` + table)
		if err != nil {
			t.Errorf("%s with node2 down: %v", table, err)
			continue
		}
		if n := res.Row(t, 0)[0].I; n != 180 {
			t.Errorf("%s with node2 down: %d rows, want 180", table, n)
		}
	}
}
