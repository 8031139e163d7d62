package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"eon/internal/catalog"
	"eon/internal/types"
)

// The load races. A load reads its table and projections from its
// transaction's base, writes their containers' files and then commits; a
// DDL statement that commits in between must make the load's commit fail
// with catalog.ErrConflict, never let it commit containers the statement
// did not see. Each test runs a loader looping 20-row loads against the
// statement on an Eon database of 3 nodes and 3 shards.

// raceLoads loads up to 100 20-row batches of t(id, v) until stop is
// closed, counting the rows of the loads that committed. A load may fail
// only because a conflict rolled it back, or because the statement
// committed and the table is gone or has another column. The bound
// lets a statement slower than a load commit at last: while loads commit
// faster than it lists, each of its attempts conflicts.
func raceLoads(t *testing.T, db *DB, stop <-chan struct{}, committed *atomic.Int64) func() error {
	var wg sync.WaitGroup
	var loadErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		schema := types.Schema{{Name: "id", Type: types.Int64}, {Name: "v", Type: types.Int64}}
		for i := int64(0); i < 100; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b := types.NewBatch(schema, 20)
			for r := int64(0); r < 20; r++ {
				b.AppendRow(types.Row{types.NewInt(i*20 + r), types.NewInt(r)})
			}
			switch err := db.LoadRows("t", b); {
			case err == nil:
				committed.Add(20)
			case errors.Is(err, catalog.ErrConflict):
			case strings.Contains(err.Error(), "unknown table"), strings.Contains(err.Error(), "arity"):
				return // the statement committed: t is gone or has another column
			default:
				loadErr = err
				return
			}
		}
	}()
	return func() error { wg.Wait(); return loadErr }
}

// retryConflicts runs q until it commits, retrying while a racing load
// conflicts with it.
func retryConflicts(t *testing.T, s *Session, q string) {
	t.Helper()
	for {
		_, err := s.Execute(q)
		if err == nil {
			return
		}
		if !errors.Is(err, catalog.ErrConflict) {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

func createRaceTable(t *testing.T, db *DB) *Session {
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (id INTEGER, v INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION t_p AS SELECT * FROM t ORDER BY id SEGMENTED BY HASH(id) ALL NODES`)
	for i := 0; i < 3; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 1)`, -1-i))
	}
	return s
}

// unreferencedFiles lists the data files on shared storage that no node's
// catalog references.
func unreferencedFiles(t *testing.T, db *DB) []string {
	t.Helper()
	referenced := map[string]bool{}
	for _, n := range db.Nodes() {
		snap := n.catalog.Snapshot()
		snap.ForEach(catalog.KindStorageContainer, func(o catalog.Object) bool {
			for _, f := range o.(*catalog.StorageContainer).AllFiles() {
				referenced[f.Path] = true
			}
			return true
		})
		snap.ForEach(catalog.KindDeleteVector, func(o catalog.Object) bool {
			referenced[o.(*catalog.DeleteVector).File.Path] = true
			return true
		})
	}
	infos, err := db.shared.List(db.Context(), "data/")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, fi := range infos {
		if !referenced[fi.Key] {
			out = append(out, fi.Key)
		}
	}
	return out
}

// TestLoadRacingDropTableCommitsNothing: after DROP TABLE commits, no
// node's catalog holds a container of a projection that is gone, and
// once the catalog is synced and RunGC has run, shared storage holds no
// file that no catalog references: neither the dropped table's nor those
// of the loads whose commit conflicted.
func TestLoadRacingDropTableCommitsNothing(t *testing.T) {
	for run := 0; run < 5; run++ {
		db := newTestDB(t, ModeEon, 3, 3)
		s := createRaceTable(t, db)
		stop := make(chan struct{})
		var committed atomic.Int64
		wait := raceLoads(t, db, stop, &committed)
		for i := 0; i < 3; i++ {
			mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 2)`, 100+i))
		}
		retryConflicts(t, s, `DROP TABLE t`)
		close(stop)
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		for _, n := range db.Nodes() {
			snap := n.Catalog().Snapshot()
			orphans := 0
			snap.ForEach(catalog.KindStorageContainer, func(o catalog.Object) bool {
				if _, ok := snap.Get(o.(*catalog.StorageContainer).ProjOID); !ok {
					orphans++
				}
				return true
			})
			if orphans > 0 {
				t.Fatalf("run %d: %s holds %d containers of a dropped projection", run, n.name, orphans)
			}
		}
		if err := db.SyncMetadata(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.RunGC(); err != nil {
			t.Fatal(err)
		}
		if leaked := unreferencedFiles(t, db); len(leaked) > 0 {
			t.Fatalf("run %d: %d data files no catalog references, e.g. %s", run, len(leaked), leaked[0])
		}
	}
}

// TestLoadRacingAddColumnKeepsEveryRow: every committed row is read back
// with the new column's default, whichever commit came first.
func TestLoadRacingAddColumnKeepsEveryRow(t *testing.T) {
	for run := 0; run < 5; run++ {
		db := newTestDB(t, ModeEon, 3, 3)
		s := createRaceTable(t, db)
		stop := make(chan struct{})
		var committed atomic.Int64
		committed.Add(3)
		wait := raceLoads(t, db, stop, &committed)
		for i := 0; i < 3; i++ {
			mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 2)`, 100+i))
			committed.Add(1)
		}
		retryConflicts(t, s, `ALTER TABLE t ADD COLUMN w INTEGER DEFAULT 7`)
		close(stop)
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(`SELECT COUNT(*), COUNT(w), SUM(w) FROM t`)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		r := res.Rows()[0]
		if n := committed.Load(); r[0].I != n || r[1].I != n || r[2].I != 7*n {
			t.Fatalf("run %d: COUNT(*), COUNT(w), SUM(w) = %v, want %d committed rows with w = 7", run, r, n)
		}
	}
}
