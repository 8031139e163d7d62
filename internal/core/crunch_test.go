package core

import (
	"fmt"
	"strings"
	"testing"

	"eon/internal/hashring"
	"eon/internal/obs"
	"eon/internal/types"
)

// crunchDB builds a cluster with more nodes than shards and replication
// high enough that every node subscribes to every shard (the §4.4
// setting).
func crunchDB(t *testing.T) *DB {
	t.Helper()
	db, err := Create(Config{
		Mode: ModeEon,
		Nodes: []NodeSpec{
			{Name: "node1"}, {Name: "node2"}, {Name: "node3"}, {Name: "node4"},
		},
		ShardCount:        2,
		ReplicationFactor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCrunchHashFilterCorrect(t *testing.T) {
	db := crunchDB(t)
	setupSales(t, db, 500)

	plain := db.NewSession()
	want := mustQuery(t, plain, `SELECT region, COUNT(*) AS n, SUM(price) AS s FROM sales GROUP BY region ORDER BY region`).Rows()

	crunch := db.NewSession()
	crunch.Crunch = CrunchHashFilter
	got := mustQuery(t, crunch, `SELECT region, COUNT(*) AS n, SUM(price) AS s FROM sales GROUP BY region ORDER BY region`).Rows()

	if len(got) != len(want) {
		t.Fatalf("crunch rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Errorf("row %d: crunch %v != plain %v", i, got[i], want[i])
		}
	}
}

func TestCrunchContainerSplitCorrect(t *testing.T) {
	db := crunchDB(t)
	setupSales(t, db, 500)

	plain := db.NewSession()
	want := mustQuery(t, plain, `SELECT COUNT(*), SUM(price) FROM sales WHERE price > 10`).Rows()

	crunch := db.NewSession()
	crunch.Crunch = CrunchContainerSplit
	got := mustQuery(t, crunch, `SELECT COUNT(*), SUM(price) FROM sales WHERE price > 10`).Rows()

	if got[0].String() != want[0].String() {
		t.Errorf("container split: %v != %v", got[0], want[0])
	}
}

func TestCrunchHashFilterPreservesLocalJoins(t *testing.T) {
	db := crunchDB(t)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE l (k INTEGER, v INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION l_p AS SELECT * FROM l ORDER BY k SEGMENTED BY HASH(k) ALL NODES`)
	mustExec(t, s, `CREATE TABLE r (k INTEGER, w INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION r_p AS SELECT * FROM r ORDER BY k SEGMENTED BY HASH(k) ALL NODES`)
	for i := 1; i <= 40; i++ {
		mustExec(t, s, insertKV("l", i%8, i))
		mustExec(t, s, insertKV("r", i%8, i*2))
	}
	plainRows := mustQuery(t, s, `SELECT COUNT(*) FROM l JOIN r ON l.k = r.k`).Rows()

	crunch := db.NewSession()
	crunch.Crunch = CrunchHashFilter
	crunchRows := mustQuery(t, crunch, `SELECT COUNT(*) FROM l JOIN r ON l.k = r.k`).Rows()
	if plainRows[0][0].I != crunchRows[0][0].I {
		t.Errorf("co-segmented join under hash filter: %v != %v", crunchRows, plainRows)
	}
}

func insertKV(table string, k, v int) string {
	return "INSERT INTO " + table + " VALUES (" + itoa(k) + ", " + itoa(v) + ")"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

func TestCrunchSpreadsWork(t *testing.T) {
	db := crunchDB(t)
	setupSales(t, db, 500)
	s := db.NewSession()
	s.Crunch = CrunchHashFilter
	env, err := s.selectParticipants(mustUp(t, db))
	if err != nil {
		t.Fatal(err)
	}
	if len(env.crunch) == 0 {
		t.Fatal("crunch groups should form when nodes > shards")
	}
	// Every node should receive at least one task.
	busy := 0
	for _, name := range env.nodes {
		if len(env.nodeTasks(name)) > 0 {
			busy++
		}
	}
	if busy < 4 {
		t.Errorf("crunch should engage all 4 nodes, engaged %d", busy)
	}
	// Sub-partitions of each shard cover it exactly once per group
	// member.
	for shard, group := range env.crunch {
		parts := map[int]bool{}
		for _, name := range env.nodes {
			for _, task := range env.nodeTasks(name) {
				if task.Shard == shard {
					if parts[task.Part] {
						t.Errorf("shard %d part %d assigned twice", shard, task.Part)
					}
					parts[task.Part] = true
					if task.Of != len(group) {
						t.Errorf("task of=%d, group=%d", task.Of, len(group))
					}
				}
			}
		}
		if len(parts) != len(group) {
			t.Errorf("shard %d: %d parts for group of %d", shard, len(parts), len(group))
		}
	}

	// Each member's hash filter keeps its share of the shard. One table
	// per shard holds only keys of that shard, so every fragment of a
	// traced hash-filter query counts exactly one member's rows.
	const perShard = 2000
	schema := types.Schema{{Name: "k", Type: types.Int64}}
	s.Trace = true
	for shard := range db.Ring().Count() {
		tbl := fmt.Sprintf("bal%d", shard)
		mustExec(t, s, fmt.Sprintf(`CREATE TABLE %s (k INTEGER)`, tbl))
		mustExec(t, s, fmt.Sprintf(`CREATE PROJECTION %s_p AS SELECT * FROM %s ORDER BY k SEGMENTED BY HASH(k) ALL NODES`, tbl, tbl))
		batch := types.NewBatch(schema, perShard)
		for k := int64(0); batch.NumRows() < perShard; k++ {
			if db.Ring().SegmentFor(hashring.HashDatum(types.NewInt(k))) == shard {
				batch.AppendRow(types.Row{types.NewInt(k)})
			}
		}
		if err := db.LoadRows(tbl, batch); err != nil {
			t.Fatal(err)
		}
		if got := mustQuery(t, s, `SELECT COUNT(*) FROM `+tbl).Rows()[0][0].I; got != perShard {
			t.Fatalf("%s: COUNT(*) = %d under the hash filter, want %d", tbl, got, perShard)
		}
		kept := map[string]int64{}
		s.LastProfile().Visit(func(p *obs.Profile) {
			if node, ok := strings.CutPrefix(p.Name, "fragment:"); ok {
				kept[node] += p.RowsOut
			}
		})
		group := env.crunch[shard]
		fair := float64(perShard) / float64(len(group))
		for _, member := range group {
			if f := float64(kept[member]) / fair; f < 0.75 || f > 1.25 {
				t.Errorf("shard %d: member %s keeps %d rows, %.2f× its share of %.0f (kept %v)", shard, member, kept[member], f, fair, kept)
			}
		}
	}
}
