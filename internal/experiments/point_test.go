package experiments

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"eon/internal/core"
	"eon/internal/hashring"
	"eon/internal/obs"
	"eon/internal/types"
)

// keyHash is the segmentation hash of a key tuple, its columns in
// segmentation order.
func keyHash(key types.Row) uint32 {
	ord := make([]int, len(key))
	for i := range ord {
		ord[i] = i
	}
	return hashring.HashRowCols(key, ord)
}

// keyServers returns the nodes a scan pinned to keys must read on, and
// whether exactly those run fragments (exact) or exactly one of them
// per key shard does. Eon: with crunch off one subscriber of the key's
// shard serves it, and which one the assignment picks; a crunch group is
// the shard's ACTIVE up subscribers in name order, where the hash filter
// keeps the member whose sub-range holds the hash and container split
// keeps them all. Enterprise: the segment's owner, or its buddy when the
// owner is down.
func keyServers(t *testing.T, db *core.DB, mon *core.Session, mode core.CrunchMode, keys []types.Row) (map[string]bool, bool) {
	t.Helper()
	ring := db.Ring()
	want := map[string]bool{}
	exact := true
	for _, key := range keys {
		h := keyHash(key)
		shard := ring.SegmentFor(h)
		if db.Mode() == core.ModeEnterprise {
			nodes := db.Nodes()
			owner := nodes[shard%len(nodes)]
			if !owner.Up() {
				owner = nodes[(shard+1)%len(nodes)]
			}
			want[owner.Name()] = true
			continue
		}
		res, err := mon.Query(fmt.Sprintf(`SELECT node FROM v_monitor.shard_subscriptions
			WHERE shard_index = %d AND state = 'ACTIVE' AND node_up`, shard))
		if err != nil {
			t.Fatal(err)
		}
		var group []string
		for _, r := range res.Rows() {
			group = append(group, r[0].S)
		}
		sort.Strings(group)
		switch {
		case mode == core.CrunchOff || len(group) == 1:
			exact = exact && len(group) == 1
			for _, n := range group {
				want[n] = true
			}
		case mode == core.CrunchHashFilter:
			_, part := ring.Locate(h, len(group))
			want[group[part]] = true
		default:
			for _, n := range group {
				want[n] = true
			}
		}
	}
	return want, exact
}

// checkKeyFragments checks the nodes a point statement ran fragments
// on (seen) against keyServers: exactly its set when exact, else one
// node of it per key shard at most and at least one in all.
func checkKeyFragments(t *testing.T, db *core.DB, mon *core.Session, name string, mode core.CrunchMode, keys []types.Row, seen map[string]bool) {
	t.Helper()
	want, exact := keyServers(t, db, mon, mode, keys)
	inWant := true
	for n := range seen {
		inWant = inWant && want[n]
	}
	shards := map[int]bool{}
	for _, key := range keys {
		shards[db.Ring().SegmentFor(keyHash(key))] = true
	}
	ok := inWant && len(seen) > 0 && len(seen) <= len(shards)
	if exact {
		ok = maps.Equal(seen, want)
	}
	if !ok {
		t.Errorf("%s: fragments on %v, want %v (exact %v)", name, seen, want, exact)
	}
}

// The point-shard matrix. A scan whose predicate pins every segmentation
// column reads only the shards that hold the pinned keys, and only the
// crunch members that can: tables segmented on INTEGER, VARCHAR, DATE,
// two columns and FLOAT, a replicated dimension, and the statements of
// pointCases, on TestReshuffleMatrix's layouts under every crunch mode
// and both engines, and on a 3-node Enterprise database with a node
// down. Each answer must match a 1-node Enterprise database on the row
// engine, and each statement's fragment set and ShardsPruned must be the
// pinned keys'.

// pointCase is one statement. keys are the key tuples its scan of table
// is pinned to, nil when it must read every shard; args bind its
// parameters; check is a query run after it whose answer must match too.
type pointCase struct {
	name, sql, table string
	args             []types.Datum
	keys             []types.Row
	check            string
}

func pointDay(d int64) types.Datum { return types.NewDate(dateDays(1995, 1, 1) + d) }

func dateDays(y int, m time.Month, d int) int64 {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC).Unix() / 86400
}

func pointCases() []pointCase {
	id := func(vs ...int64) []types.Row {
		var out []types.Row
		for _, v := range vs {
			out = append(out, types.Row{types.NewInt(v)})
		}
		return out
	}
	const sums = `SELECT COUNT(*), SUM(v) FROM pi`
	return []pointCase{
		{name: "select", sql: `SELECT id, g, v FROM pi WHERE id = 42`, table: "pi", keys: id(42)},
		{name: "count", sql: `SELECT COUNT(*), SUM(v) FROM pi WHERE id = 42`, table: "pi", keys: id(42)},
		{name: "group_by", sql: `SELECT g, COUNT(*), SUM(v) FROM pi WHERE id = 42 AND v > 0 GROUP BY g`, table: "pi", keys: id(42)},
		{name: "join_replicated", sql: `SELECT d.label, SUM(p.v) FROM pi p JOIN dim d ON p.g = d.g WHERE p.id = 42 GROUP BY d.label`, table: "pi", keys: id(42)},
		{name: "param_a", sql: `SELECT COUNT(*), SUM(v) FROM pi WHERE id = ?`, table: "pi", args: []types.Datum{types.NewInt(7)}, keys: id(7)},
		{name: "param_b", sql: `SELECT COUNT(*), SUM(v) FROM pi WHERE id = ?`, table: "pi", args: []types.Datum{types.NewInt(150)}, keys: id(150)},
		{name: "in_list", sql: `SELECT id, COUNT(*), SUM(v) FROM pi WHERE id IN (3, 42, 77, 150) GROUP BY id`, table: "pi", keys: id(3, 42, 77, 150)},
		{name: "varchar", sql: `SELECT COUNT(*), SUM(v) FROM ps WHERE name = 'k42'`, table: "ps", keys: []types.Row{{types.NewString("k42")}}},
		{name: "date", sql: `SELECT COUNT(*), SUM(v) FROM pd WHERE day = DATE '1995-01-15'`, table: "pd", keys: []types.Row{{pointDay(14)}}},
		{name: "two_columns", sql: `SELECT COUNT(*), SUM(v) FROM pm WHERE b = 'x1' AND a = 4`, table: "pm",
			keys: []types.Row{{types.NewInt(4), types.NewString("x1")}}},
		{name: "eq_null", sql: `SELECT COUNT(*) FROM pi WHERE id = NULL`, table: "pi"},
		{name: "int_eq_float", sql: `SELECT COUNT(*), SUM(v) FROM pi WHERE id = 5.0`, table: "pi"},
		{name: "float_zero", sql: `SELECT COUNT(*), SUM(v) FROM pf WHERE f = 0.0`, table: "pf"},
		{name: "delete_point", sql: `DELETE FROM pi WHERE id = 42`, table: "pi", keys: id(42), check: sums},
		{name: "update_point", sql: `UPDATE pi SET v = v + 1000 WHERE id = 77`, table: "pi", keys: id(77), check: sums},
	}
}

// loadPointTables creates and loads pi, ps, pd, pm, pf and dim. pf holds
// both -0.0 and +0.0, which compare equal and hash apart.
func loadPointTables(db *core.DB) error {
	s := db.NewSession()
	for _, q := range []string{
		`CREATE TABLE pi (id INTEGER, g INTEGER, v INTEGER)`,
		`CREATE PROJECTION pi_p AS SELECT * FROM pi ORDER BY id SEGMENTED BY HASH(id) ALL NODES`,
		`CREATE TABLE ps (name VARCHAR, v INTEGER)`,
		`CREATE PROJECTION ps_p AS SELECT * FROM ps ORDER BY name SEGMENTED BY HASH(name) ALL NODES`,
		`CREATE TABLE pd (day DATE, v INTEGER)`,
		`CREATE PROJECTION pd_p AS SELECT * FROM pd ORDER BY day SEGMENTED BY HASH(day) ALL NODES`,
		`CREATE TABLE pm (a INTEGER, b VARCHAR, v INTEGER)`,
		`CREATE PROJECTION pm_p AS SELECT * FROM pm ORDER BY a SEGMENTED BY HASH(a, b) ALL NODES`,
		`CREATE TABLE pf (f FLOAT, v INTEGER)`,
		`CREATE PROJECTION pf_p AS SELECT * FROM pf ORDER BY f SEGMENTED BY HASH(f) ALL NODES`,
		`CREATE TABLE dim (g INTEGER, label VARCHAR)`,
		`CREATE PROJECTION dim_p AS SELECT * FROM dim ORDER BY g UNSEGMENTED ALL NODES`,
	} {
		if _, err := s.Execute(q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	load := func(table string, n int, row func(i int) types.Row) error {
		var b *types.Batch
		for i := 0; i < n; i++ {
			r := row(i)
			if b == nil {
				schema := make(types.Schema, len(r))
				for c, d := range r {
					schema[c] = types.Column{Name: fmt.Sprint("c", c), Type: d.K}
				}
				b = types.NewBatch(schema, n)
			}
			b.AppendRow(r)
		}
		return db.LoadRows(table, b)
	}
	negZero := math.Copysign(0, -1)
	for _, l := range []struct {
		table string
		n     int
		row   func(i int) types.Row
	}{
		{"pi", 600, func(i int) types.Row {
			return types.Row{types.NewInt(int64(i % 300)), types.NewInt(int64(i % 5)), types.NewInt(int64(i))}
		}},
		{"pi", 600, func(i int) types.Row {
			return types.Row{types.NewInt(int64(i % 300)), types.NewInt(int64(i % 5)), types.NewInt(int64(600 + i))}
		}},
		{"ps", 400, func(i int) types.Row {
			return types.Row{types.NewString(fmt.Sprint("k", i%100)), types.NewInt(int64(i))}
		}},
		{"pd", 300, func(i int) types.Row { return types.Row{pointDay(int64(i % 60)), types.NewInt(int64(i))} }},
		{"pm", 300, func(i int) types.Row {
			return types.Row{types.NewInt(int64(i % 20)), types.NewString(fmt.Sprint("x", i%3)), types.NewInt(int64(i))}
		}},
		{"pf", 40, func(i int) types.Row {
			f := float64(i%8) / 2
			if i%8 == 4 {
				f = negZero
			}
			return types.Row{types.NewFloat(f), types.NewInt(int64(1) << (i % 20))}
		}},
		{"dim", 5, func(i int) types.Row { return types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprint("L", i))} }},
	} {
		if err := load(l.table, l.n, l.row); err != nil {
			return fmt.Errorf("load %s: %w", l.table, err)
		}
	}
	return nil
}

// TestPointShardMatrix is the point-shard matrix.
func TestPointShardMatrix(t *testing.T) {
	ref, err := NewEnterpriseCluster(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadPointTables(ref); err != nil {
		t.Fatal(err)
	}
	rs := ref.NewSession()
	rs.RowEngine = true
	var want []*core.Result // each case's statement, then its check's
	for _, c := range pointCases() {
		for _, q := range pointQueries(c) {
			res, err := q(rs)
			if err != nil {
				t.Fatalf("reference %s: %v", c.name, err)
			}
			want = append(want, res)
		}
	}
	// The float case shows something only where -0.0 and +0.0 land in
	// different shards.
	zerosApart := func(shards int) bool {
		r := hashring.NewRing(shards)
		return r.SegmentFor(keyHash(types.Row{types.NewFloat(0)})) != r.SegmentFor(keyHash(types.Row{types.NewFloat(math.Copysign(0, -1))}))
	}
	if !zerosApart(2) && !zerosApart(3) && !zerosApart(4) {
		t.Fatal("-0.0 and +0.0 share a shard in every layout")
	}

	// run runs the cases on db, with node down (if any) down until the
	// first statement that writes storage, and checks each.
	run := func(t *testing.T, db *core.DB, mode core.CrunchMode, rowEngine bool, down string) {
		if err := loadPointTables(db); err != nil {
			t.Fatal(err)
		}
		if down != "" {
			if err := db.KillNode(down); err != nil {
				t.Fatal(err)
			}
		}
		s := db.NewSession()
		s.Crunch, s.RowEngine, s.Trace, s.Timeout = mode, rowEngine, true, 10*time.Second
		mon := db.NewSession()
		next := 0
		for _, c := range pointCases() {
			if c.check != "" && down != "" {
				// An Enterprise statement that writes storage needs every node.
				if err := db.RecoverNode(down); err != nil {
					t.Fatal(err)
				}
				down = ""
			}
			for qi, q := range pointQueries(c) {
				got, err := q(s)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				compareResults(t, fmt.Sprintf("%s (query %d)", c.name, qi), want[next], got, false)
				next++
				if qi == 0 {
					checkPointScan(t, db, mon, c, mode, s)
				}
			}
		}
	}

	modes := []struct {
		name string
		mode core.CrunchMode
	}{{"off", core.CrunchOff}, {"hash_filter", core.CrunchHashFilter}, {"container_split", core.CrunchContainerSplit}}
	for _, l := range []struct{ nodes, shards, k int }{
		{1, 2, 1}, {3, 3, 2}, {3, 2, 2}, {4, 4, 2}, {4, 2, 4}, {4, 3, 2},
	} {
		for _, mode := range modes {
			for _, rowEngine := range []bool{false, true} {
				name := fmt.Sprintf("%dn_%ds_k%d/%s/%s", l.nodes, l.shards, l.k, mode.name, map[bool]string{false: "vectorized", true: "row"}[rowEngine])
				t.Run(name, func(t *testing.T) {
					db, _, err := NewEonCluster(l.nodes, l.shards, l.k, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					run(t, db, mode.mode, rowEngine, "")
				})
			}
		}
	}
	for _, rowEngine := range []bool{false, true} {
		t.Run(fmt.Sprintf("enterprise_3n_down/%v", map[bool]string{false: "vectorized", true: "row"}[rowEngine]), func(t *testing.T) {
			db, err := NewEnterpriseCluster(3, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			run(t, db, core.CrunchOff, rowEngine, "node2")
		})
	}
}

// pointQueries returns c's statement and then its check query, if any.
func pointQueries(c pointCase) []func(*core.Session) (*core.Result, error) {
	qs := []func(*core.Session) (*core.Result, error){func(s *core.Session) (*core.Result, error) {
		if c.args != nil {
			return s.QueryArgs(c.sql, c.args...)
		}
		return s.Execute(c.sql)
	}}
	if c.check != "" {
		qs = append(qs, func(s *core.Session) (*core.Result, error) { return s.Query(c.check) })
	}
	return qs
}

// checkPointScan checks the statement s just ran: its scans of c.table
// ran fragments exactly where c's keys are served (keyServers) — on
// every serving node when c pins none, and on every node for an
// Enterprise DML scan, which lists each node's own containers — and
// ShardsPruned counts, for each such scan, the shards holding none of
// the keys.
func checkPointScan(t *testing.T, db *core.DB, mon *core.Session, c pointCase, mode core.CrunchMode, s *core.Session) {
	t.Helper()
	seen := map[string]bool{}
	scans := 0
	s.LastProfile().Visit(func(p *obs.Profile) {
		if p.Name != "scan:"+c.table {
			return
		}
		scans++
		for _, ch := range p.Children {
			if node, ok := strings.CutPrefix(ch.Name, "fragment:"); ok {
				seen[node] = true
			}
		}
	})
	if scans == 0 {
		t.Fatalf("%s: no scan of %s in the profile", c.name, c.table)
	}
	var pruned int64
	if c.keys != nil {
		shards := map[int]bool{}
		for _, key := range c.keys {
			shards[db.Ring().SegmentFor(keyHash(key))] = true
		}
		pruned = int64(scans * (db.Ring().Count() - len(shards)))
	}
	if got := s.LastScanStats().ShardsPruned; got != pruned {
		t.Errorf("%s: ShardsPruned = %d, want %d", c.name, got, pruned)
	}
	enterpriseDML := db.Mode() == core.ModeEnterprise && c.check != ""
	if c.keys != nil && !enterpriseDML {
		checkKeyFragments(t, db, mon, c.name, mode, c.keys, seen)
		return
	}
	want := 0 // every up node serves a shard here
	for _, n := range db.Nodes() {
		if n.Up() {
			want++
		}
	}
	if db.Mode() == core.ModeEon && mode == core.CrunchOff {
		want = min(want, db.Ring().Count())
	}
	if len(seen) != want {
		t.Errorf("%s: fragments on %v, want %d nodes", c.name, seen, want)
	}
}
