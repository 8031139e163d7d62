package experiments

import (
	"fmt"
	"testing"
	"time"

	"eon/internal/core"
)

// The reshuffle regression matrix. Two shapes used to break the
// reshuffle exchange: a node that paused pulling its exchange edge
// stalled every node (the gather read node streams in a fixed order),
// and a local join above a reshuffle join answered wrong (the exchange
// routed rows by node count, not by the shard map the planner assumes).
// Both run on tables a and b (id, k), segmented by HASH(id), with rows
// (i, i%7) for i from 0, loaded as single-row INSERTs so many small
// batches cross every edge.

// loadKeyTables creates a and b with the given row counts and, if c is
// set, c(ck, v) segmented by HASH(ck) with one row per key 0..6.
func loadKeyTables(db *core.DB, aRows, bRows int, c bool) error {
	s := db.NewSession()
	var stmts []string
	for _, tbl := range []string{"a", "b"} {
		stmts = append(stmts,
			fmt.Sprintf(`CREATE TABLE %s (id INTEGER, k INTEGER)`, tbl),
			fmt.Sprintf(`CREATE PROJECTION %s_p AS SELECT * FROM %s ORDER BY id SEGMENTED BY HASH(id) ALL NODES`, tbl, tbl))
	}
	for i := 0; i < aRows; i++ {
		stmts = append(stmts, fmt.Sprintf(`INSERT INTO a VALUES (%d, %d)`, i, i%7))
	}
	for i := 0; i < bRows; i++ {
		stmts = append(stmts, fmt.Sprintf(`INSERT INTO b VALUES (%d, %d)`, i, i%7))
	}
	if c {
		stmts = append(stmts,
			`CREATE TABLE c (ck INTEGER, v INTEGER)`,
			`CREATE PROJECTION c_p AS SELECT * FROM c ORDER BY ck SEGMENTED BY HASH(ck) ALL NODES`)
		for ck := 0; ck < 7; ck++ {
			stmts = append(stmts, fmt.Sprintf(`INSERT INTO c VALUES (%d, %d)`, ck, ck*10))
		}
	}
	for _, q := range stmts {
		if _, err := s.Execute(q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	return nil
}

// keyJoinCount is the closed form of COUNT(*) over a ⋈ b ⋈ c on k: the
// sum over keys of (a rows) × (b rows) × 1.
func keyJoinCount(aRows, bRows int) int64 {
	var n int64
	for key := 0; key < 7; key++ {
		n += int64(keysIn(aRows, key) * keysIn(bRows, key))
	}
	return n
}

// keysIn counts i in [0, rows) with i%7 == key.
func keysIn(rows, key int) int {
	return (rows - key + 6) / 7
}

// TestReshuffleMatrix runs a local join above a reshuffle join on six
// layouts under each crunch mode, six sessions per cell: each session's
// shard assignment is drawn afresh, and every one must answer the closed
// form and agree with a 1-node Enterprise database on the row engine.
func TestReshuffleMatrix(t *testing.T) {
	const q = `SELECT COUNT(*) FROM a JOIN b ON a.k = b.k JOIN c ON a.k = c.ck`
	const rows, sessions = 200, 6
	wantCount := keyJoinCount(rows, rows)
	if wantCount != 5716 {
		t.Fatalf("closed form = %d, want 5716", wantCount)
	}
	ref, err := NewEnterpriseCluster(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadKeyTables(ref, rows, rows, true); err != nil {
		t.Fatal(err)
	}
	rs := ref.NewSession()
	rs.RowEngine = true
	want, err := rs.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := want.Batch.Cols[0].Ints[0]; got != wantCount {
		t.Fatalf("reference answered %d, want %d", got, wantCount)
	}
	for _, l := range []struct{ nodes, shards, k int }{
		{1, 2, 1}, {3, 3, 2}, {3, 2, 2}, {4, 4, 2}, {4, 2, 4}, {4, 3, 2},
	} {
		t.Run(fmt.Sprintf("%dn_%ds_k%d", l.nodes, l.shards, l.k), func(t *testing.T) {
			db, _, err := NewEonCluster(l.nodes, l.shards, l.k, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := loadKeyTables(db, rows, rows, true); err != nil {
				t.Fatal(err)
			}
			for _, mode := range []struct {
				name string
				mode core.CrunchMode
			}{{"off", core.CrunchOff}, {"hash_filter", core.CrunchHashFilter}, {"container_split", core.CrunchContainerSplit}} {
				t.Run(mode.name, func(t *testing.T) {
					for i := 0; i < sessions; i++ {
						s := db.NewSession()
						s.Crunch = mode.mode
						s.Timeout = 5 * time.Second
						got, err := s.Query(q)
						if err != nil {
							t.Fatalf("session %d: %v", i, err)
						}
						if n := got.Batch.Cols[0].Ints[0]; n != wantCount {
							t.Errorf("session %d: COUNT(*) = %d, want %d", i, n, wantCount)
							continue
						}
						compareResults(t, fmt.Sprintf("session %d (Eon vs reference)", i), want, got, false)
					}
				})
			}
		})
	}
}

// TestReshuffleGatherNoStall runs the join whose later node used to block
// on its full gather edge while the initiator read an earlier node's
// stream, which stopped it pulling its exchange edge and starved every
// node until the session timed out.
func TestReshuffleGatherNoStall(t *testing.T) {
	const aRows, bRows = 600, 60
	db, _, err := NewEonCluster(3, 3, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadKeyTables(db, aRows, bRows, false); err != nil {
		t.Fatal(err)
	}
	want := keyJoinCount(aRows, bRows)
	if want != 5144 {
		t.Fatalf("closed form = %d, want 5144", want)
	}
	for _, q := range []string{
		`SELECT a.id, b.id FROM b JOIN a ON a.k = b.k`,
		`SELECT a.id, b.id FROM a JOIN b ON a.k = b.k`,
	} {
		s := db.NewSession()
		s.Timeout = 5 * time.Second
		res, err := s.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := int64(res.NumRows()); got != want {
			t.Errorf("%s: %d rows, want %d", q, got, want)
		}
	}
}
