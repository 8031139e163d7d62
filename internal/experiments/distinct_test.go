package experiments

import (
	"fmt"
	"testing"
	"time"

	"eon/internal/core"
	"eon/internal/types"
)

// The distinct matrix. A DISTINCT whose columns cover the stream's
// segmentation finishes on the node that holds the rows; any other
// DISTINCT is deduplicated per node and again at the gather. Each query
// below runs on a and b from the reshuffle matrix (rows (i, i%7),
// segmented by HASH(id)) plus distinctNullRows rows with a NULL k.

const distinctNullRows = 3

// loadDistinctTables loads a and b with rows keyed rows and the NULL-k
// rows after them (ids rows, rows+1, ...).
func loadDistinctTables(db *core.DB, rows int) error {
	if err := loadKeyTables(db, rows, rows, false); err != nil {
		return err
	}
	s := db.NewSession()
	for _, tbl := range []string{"a", "b"} {
		for i := 0; i < distinctNullRows; i++ {
			q := fmt.Sprintf(`INSERT INTO %s VALUES (%d, NULL)`, tbl, rows+i)
			if _, err := s.Execute(q); err != nil {
				return fmt.Errorf("%s: %w", q, err)
			}
		}
	}
	return nil
}

// distinctCase is one matrix query and the closed-form check of its
// answer.
type distinctCase struct {
	name, sql string
	check     func(rows []types.Row) error
}

func distinctCases(rows int) []distinctCase {
	nRows := func(want int) func([]types.Row) error {
		return func(got []types.Row) error {
			if len(got) != want {
				return fmt.Errorf("%d rows, want %d", len(got), want)
			}
			return nil
		}
	}
	count := func(want int64) func([]types.Row) error {
		return func(got []types.Row) error {
			if len(got) != 1 || got[0][0].I != want {
				return fmt.Errorf("answered %v, want %d", got, want)
			}
			return nil
		}
	}
	return []distinctCase{
		{"covered_count_per_key", `SELECT k, COUNT(DISTINCT id) FROM a GROUP BY k`,
			func(got []types.Row) error {
				if len(got) != 8 {
					return fmt.Errorf("%d groups, want 8", len(got))
				}
				for _, r := range got {
					want := int64(distinctNullRows)
					if !r[0].Null {
						want = int64(keysIn(rows, int(r[0].I)))
					}
					if r[1].I != want {
						return fmt.Errorf("k=%v: %d ids, want %d", r[0], r[1].I, want)
					}
				}
				return nil
			}},
		{"uncovered_count", `SELECT COUNT(DISTINCT k) FROM a`, count(7)},
		{"covered_select", `SELECT DISTINCT id, k FROM a`, nRows(rows + distinctNullRows)},
		{"uncovered_select", `SELECT DISTINCT k FROM a`, nRows(8)},
		{"reshuffle_join_count", `SELECT COUNT(DISTINCT a.k) FROM a JOIN b ON a.k = b.k`, count(7)},
	}
}

// TestDistinctMatrix runs covered and uncovered DISTINCT and
// COUNT(DISTINCT) on the reshuffle matrix's six layouts under each
// crunch mode, six sessions per cell (each draws its shard assignment
// afresh). Every answer must match its closed form and a 1-node
// Enterprise database on the row engine, and a per-node LIMIT below a
// local distinct must return distinct rows within the session timeout.
func TestDistinctMatrix(t *testing.T) {
	const rows, sessions = 200, 6
	cases := distinctCases(rows)
	ref, err := NewEnterpriseCluster(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadDistinctTables(ref, rows); err != nil {
		t.Fatal(err)
	}
	rs := ref.NewSession()
	rs.RowEngine = true
	want := map[string]*core.Result{}
	for _, c := range cases {
		res, err := rs.Query(c.sql)
		if err != nil {
			t.Fatalf("reference %s: %v", c.name, err)
		}
		if err := c.check(res.Rows()); err != nil {
			t.Fatalf("reference %s: %v", c.name, err)
		}
		want[c.name] = res
	}
	for _, l := range []struct{ nodes, shards, k int }{
		{1, 2, 1}, {3, 3, 2}, {3, 2, 2}, {4, 4, 2}, {4, 2, 4}, {4, 3, 2},
	} {
		t.Run(fmt.Sprintf("%dn_%ds_k%d", l.nodes, l.shards, l.k), func(t *testing.T) {
			db, _, err := NewEonCluster(l.nodes, l.shards, l.k, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := loadDistinctTables(db, rows); err != nil {
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
						for _, c := range cases {
							got, err := s.Query(c.sql)
							if err != nil {
								t.Fatalf("session %d %s: %v", i, c.name, err)
							}
							if err := c.check(got.Rows()); err != nil {
								t.Errorf("session %d %s: %v", i, c.name, err)
								continue
							}
							compareResults(t, fmt.Sprintf("session %d %s (Eon vs reference)", i, c.name), want[c.name], got, false)
						}
						checkDistinctLimit(t, s, rows)
					}
				})
			}
		})
	}
}

// checkDistinctLimit runs SELECT DISTINCT id FROM a LIMIT 5, whose
// answer is any five distinct ids of a.
func checkDistinctLimit(t *testing.T, s *core.Session, rows int) {
	t.Helper()
	got, err := s.Query(`SELECT DISTINCT id FROM a LIMIT 5`)
	if err != nil {
		t.Fatalf("distinct limit: %v", err)
	}
	seen := map[int64]bool{}
	for _, r := range got.Rows() {
		id := r[0].I
		if r[0].Null || id < 0 || id >= int64(rows+distinctNullRows) || seen[id] {
			t.Fatalf("distinct limit: answered %v", got.Rows())
		}
		seen[id] = true
	}
	if len(seen) != 5 {
		t.Fatalf("distinct limit: %d rows, want 5", len(seen))
	}
}
