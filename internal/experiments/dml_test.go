package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"eon/internal/core"
	"eon/internal/types"
)

// The DML matrix. DELETE and UPDATE find their rows through the
// executor's scan, so each statement below runs on TestReshuffleMatrix's
// layouts under every crunch mode and both engines, applied in turn to
// one table d (id, k, v) sorted and segmented on id: ids 0..dmlRows-1 in
// one load, so each container holds several blocks sorted by id, then
// dmlTail more ids in a second load, so a range on the first load prunes
// the second load's containers. k = id % 7, v = id % 10, NULL when
// id % 13 == 0. A Go model of the table is the closed form.

const (
	dmlRows = 20000
	dmlTail = 300
)

// dmlRow is one row of the model; null marks a NULL v.
type dmlRow struct {
	id, k, v int64
	null     bool
}

// dmlStep is one statement of the sequence: its predicate as SQL ("" for
// none) and on the model (false where SQL is NULL), and for an UPDATE the
// SET clause and its effect on a model row.
type dmlStep struct {
	name  string
	where string
	match func(r dmlRow) bool
	set   string
	apply func(r dmlRow) dmlRow
	// pruned: the predicate lets container and block min/max skip work.
	pruned bool
	// point is the id a point statement pins, whose shard alone it reads.
	point types.Row
}

func (st dmlStep) sql() string {
	q := "DELETE FROM d"
	if st.set != "" {
		q = "UPDATE d SET " + st.set
	}
	if st.where != "" {
		q += " WHERE " + st.where
	}
	return q
}

// countSQL counts the rows the statement's predicate selects.
func (st dmlStep) countSQL() string {
	if st.where == "" {
		return "SELECT COUNT(*) FROM d"
	}
	return "SELECT COUNT(*) FROM d WHERE " + st.where
}

func dmlSteps() []dmlStep {
	all := func(dmlRow) bool { return true }
	return []dmlStep{
		{name: "delete_point", where: "id = 4242", match: func(r dmlRow) bool { return r.id == 4242 }, pruned: true,
			point: types.Row{types.NewInt(4242)}},
		{name: "delete_range", where: "id >= 1000 AND id < 1100",
			match: func(r dmlRow) bool { return r.id >= 1000 && r.id < 1100 }, pruned: true},
		{name: "delete_non_sort", where: "k = 3", match: func(r dmlRow) bool { return r.k == 3 }},
		{name: "delete_null", where: "v > 7", match: func(r dmlRow) bool { return !r.null && r.v > 7 }},
		{name: "delete_none", where: "id < 0", match: func(dmlRow) bool { return false }},
		{name: "update_point", where: "id = 777", match: func(r dmlRow) bool { return r.id == 777 },
			set: "v = 100", apply: func(r dmlRow) dmlRow { r.v, r.null = 100, false; return r }, pruned: true,
			point: types.Row{types.NewInt(777)}},
		{name: "update_range", where: "id >= 2000 AND id < 2100",
			match: func(r dmlRow) bool { return r.id >= 2000 && r.id < 2100 },
			set:   "v = v + 1", apply: func(r dmlRow) dmlRow { r.v++; return r }, pruned: true},
		{name: "update_non_sort", where: "k = 5", match: func(r dmlRow) bool { return r.k == 5 },
			set: "v = 0", apply: func(r dmlRow) dmlRow { r.v, r.null = 0, false; return r }},
		{name: "update_null", where: "v < 2", match: func(r dmlRow) bool { return !r.null && r.v < 2 },
			set: "k = 9", apply: func(r dmlRow) dmlRow { r.k = 9; return r }},
		{name: "update_segmentation", where: "k = 1", match: func(r dmlRow) bool { return r.k == 1 },
			set: "id = id + 100000", apply: func(r dmlRow) dmlRow { r.id += 100000; return r }},
		{name: "update_none", where: "id < 0", match: func(dmlRow) bool { return false },
			set: "v = 1", apply: func(r dmlRow) dmlRow { r.v = 1; return r }},
		{name: "update_all", match: all,
			set: "k = k + 1", apply: func(r dmlRow) dmlRow { r.k++; return r }},
		{name: "delete_all", match: all},
	}
}

// loadDML creates d and returns its model.
func loadDML(db *core.DB) ([]dmlRow, error) {
	s := db.NewSession()
	for _, q := range []string{
		`CREATE TABLE d (id INTEGER, k INTEGER, v INTEGER)`,
		`CREATE PROJECTION d_p AS SELECT * FROM d ORDER BY id SEGMENTED BY HASH(id) ALL NODES`,
	} {
		if _, err := s.Execute(q); err != nil {
			return nil, fmt.Errorf("%s: %w", q, err)
		}
	}
	schema := types.Schema{{Name: "id", Type: types.Int64}, {Name: "k", Type: types.Int64}, {Name: "v", Type: types.Int64}}
	var model []dmlRow
	for _, span := range [][2]int64{{0, dmlRows}, {dmlRows, dmlRows + dmlTail}} {
		b := types.NewBatch(schema, int(span[1]-span[0]))
		for id := span[0]; id < span[1]; id++ {
			r := dmlRow{id: id, k: id % 7, v: id % 10, null: id%13 == 0}
			v := types.NewInt(r.v)
			if r.null {
				v = types.NullDatum(types.Int64)
			}
			b.AppendRow(types.Row{types.NewInt(r.id), types.NewInt(r.k), v})
			model = append(model, r)
		}
		if err := db.LoadRows("d", b); err != nil {
			return nil, err
		}
	}
	return model, nil
}

// dmlSummary is what the checks compare of the table: COUNT(*), SUM(id),
// SUM(k), SUM(v) and COUNT(v).
const dmlSummarySQL = `SELECT COUNT(*), SUM(id), SUM(k), SUM(v), COUNT(v) FROM d`

type dmlSummary [5]int64

func summarize(model []dmlRow) dmlSummary {
	var s dmlSummary
	for _, r := range model {
		s[0]++
		s[1] += r.id
		s[2] += r.k
		if !r.null {
			s[3] += r.v
			s[4]++
		}
	}
	return s
}

func querySummary(s *core.Session) (dmlSummary, error) {
	res, err := s.Query(dmlSummarySQL)
	if err != nil {
		return dmlSummary{}, err
	}
	var out dmlSummary
	for i, d := range res.Rows()[0] {
		if !d.Null {
			out[i] = d.I
		}
	}
	return out, nil
}

func queryCount(s *core.Session, q string) (int64, error) {
	res, err := s.Query(q)
	if err != nil {
		return 0, err
	}
	return res.Batch.Cols[0].Ints[0], nil
}

// dmlReference runs the sequence on a 1-node Enterprise database on the
// row engine and returns each statement's reported count and the table
// summary after it.
func dmlReference(t *testing.T) ([]int64, []dmlSummary) {
	ref, err := NewEnterpriseCluster(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadDML(ref); err != nil {
		t.Fatal(err)
	}
	s := ref.NewSession()
	s.RowEngine = true
	var counts []int64
	var sums []dmlSummary
	for _, st := range dmlSteps() {
		res, err := s.Execute(st.sql())
		if err != nil {
			t.Fatalf("reference %s: %v", st.name, err)
		}
		counts = append(counts, res.Batch.Cols[0].Ints[0])
		sum, err := querySummary(s)
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, sum)
	}
	return counts, sums
}

// TestDMLMatrix applies the sequence on six layouts × three crunch modes
// × two engines. Each statement is checked three ways: its count and the
// table after it against the model and the reference; the count
// identity (the count equals a SELECT COUNT(*) of its predicate taken
// just before, and the table shrinks by exactly that for a DELETE); and
// its profile, read back through v_monitor.query_profiles, which must
// show a fragment span on every node that served a shard, emitting the
// statement's rows between them.
func TestDMLMatrix(t *testing.T) {
	refCounts, refSums := dmlReference(t)
	for _, l := range []struct{ nodes, shards, k int }{
		{1, 2, 1}, {3, 3, 2}, {3, 2, 2}, {4, 4, 2}, {4, 2, 4}, {4, 3, 2},
	} {
		for _, mode := range []struct {
			name string
			mode core.CrunchMode
		}{{"off", core.CrunchOff}, {"hash_filter", core.CrunchHashFilter}, {"container_split", core.CrunchContainerSplit}} {
			for _, rowEngine := range []bool{false, true} {
				eng := "vectorized"
				if rowEngine {
					eng = "row"
				}
				t.Run(fmt.Sprintf("%dn_%ds_k%d/%s/%s", l.nodes, l.shards, l.k, mode.name, eng), func(t *testing.T) {
					db, _, err := NewEonCluster(l.nodes, l.shards, l.k, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					model, err := loadDML(db)
					if err != nil {
						t.Fatal(err)
					}
					// Only s traces, so the profiles table holds its statements alone.
					s := db.NewSession()
					s.Crunch, s.RowEngine, s.Timeout, s.Trace = mode.mode, rowEngine, 10*time.Second, true
					mon := db.NewSession()
					mon.Crunch, mon.RowEngine = mode.mode, rowEngine
					for i, st := range dmlSteps() {
						want, err := queryCount(mon, st.countSQL())
						if err != nil {
							t.Fatal(err)
						}
						before, err := querySummary(mon)
						if err != nil {
							t.Fatal(err)
						}
						res, err := s.Execute(st.sql())
						if err != nil {
							t.Fatalf("%s: %v", st.name, err)
						}
						got := res.Batch.Cols[0].Ints[0]
						var next []dmlRow
						var matched int64
						for _, r := range model {
							switch {
							case !st.match(r):
								next = append(next, r)
							case st.apply != nil:
								matched++
								next = append(next, st.apply(r))
							default:
								matched++
							}
						}
						model = next
						after, err := querySummary(mon)
						if err != nil {
							t.Fatal(err)
						}
						if got != want || got != matched || got != refCounts[i] {
							t.Errorf("%s: reported %d rows; SELECT COUNT(*) before %d, model %d, reference %d",
								st.name, got, want, matched, refCounts[i])
						}
						drop := got
						if st.set != "" {
							drop = 0
						}
						if after[0] != before[0]-drop {
							t.Errorf("%s: %d rows before, %d after, reported %d", st.name, before[0], after[0], got)
						}
						if m := summarize(model); after != m || after != refSums[i] {
							t.Errorf("%s: table %v, model %v, reference %v", st.name, after, m, refSums[i])
						}
						if st.pruned {
							if sc := s.LastScanStats(); sc.ContainersPruned == 0 || sc.BlocksPruned == 0 {
								t.Errorf("%s: %d containers and %d blocks pruned, want both > 0",
									st.name, sc.ContainersPruned, sc.BlocksPruned)
							}
						}
						checkDMLProfile(t, db, mon, st, l.nodes, l.shards, mode.mode, got)
					}
				})
			}
		}
	}
}

// checkDMLProfile reads the traced statement's fragment spans from SQL:
// one per serving node — every node under crunch, which spreads each
// shard over all its subscribers, else one per shard up to the node
// count — whose rows out add up to the statement's count. A point
// statement reads only the nodes that can hold its key (keyServers).
func checkDMLProfile(t *testing.T, db *core.DB, mon *core.Session, st dmlStep, nodes, shards int, mode core.CrunchMode, count int64) {
	t.Helper()
	name := st.name
	res, err := mon.Query(`SELECT p.operator, p.rows_out FROM v_monitor.query_profiles p WHERE p.operator LIKE 'fragment:%'`)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var rows int64
	for _, r := range res.Rows() {
		node := strings.TrimPrefix(r[0].S, "fragment:")
		if _, ok := db.Node(node); !ok {
			t.Errorf("%s: fragment span on unknown node %q", name, node)
		}
		seen[node] = true
		rows += r[1].I
	}
	want := min(nodes, shards)
	if mode != core.CrunchOff {
		want = nodes
	}
	if st.point != nil {
		checkKeyFragments(t, db, mon, name, mode, []types.Row{st.point}, seen)
	} else if len(seen) != want {
		t.Errorf("%s: fragment spans on %d nodes %v, want %d", name, len(seen), seen, want)
	}
	if rows != count {
		t.Errorf("%s: fragments emitted %d rows, statement reported %d", name, rows, count)
	}
}
