package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"eon/internal/catalog"
	"eon/internal/expr"
	"eon/internal/sql"
	"eon/internal/types"
)

// loadPartitioned creates a partitioned table with 3 buckets x 60 rows.
func loadPartitioned(t *testing.T, db *DB, name string) {
	t.Helper()
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE `+name+` (id INTEGER, bucket INTEGER) PARTITION BY bucket`)
	mustExec(t, s, `CREATE PROJECTION `+name+`_p AS SELECT * FROM `+name+` ORDER BY id SEGMENTED BY HASH(id) ALL NODES`)
	schema := types.Schema{{Name: "id", Type: types.Int64}, {Name: "bucket", Type: types.Int64}}
	b := types.NewBatch(schema, 180)
	for i := 0; i < 180; i++ {
		b.AppendRow(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 3))})
	}
	if err := db.LoadRows(name, b); err != nil {
		t.Fatal(err)
	}
}

func TestCopyTableSharesFiles(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	loadPartitioned(t, db, "orig")

	if err := db.CopyTable("orig", "clone"); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	a := mustQuery(t, s, `SELECT COUNT(*) FROM orig`).Row(t, 0)[0].I
	b := mustQuery(t, s, `SELECT COUNT(*) FROM clone`).Row(t, 0)[0].I
	if a != 180 || b != 180 {
		t.Fatalf("counts orig=%d clone=%d", a, b)
	}
	// The copy shares the original's files: no new data objects.
	init, _ := db.anyUpNode()
	refs := fileReferenceCount(init.catalog.Snapshot())
	shared := 0
	for _, n := range refs {
		if n >= 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("copy should share storage files by reference")
	}
	// The tables diverge through deletes without affecting each other.
	mustExec(t, s, `DELETE FROM clone WHERE bucket = 0`)
	a = mustQuery(t, s, `SELECT COUNT(*) FROM orig`).Row(t, 0)[0].I
	b = mustQuery(t, s, `SELECT COUNT(*) FROM clone`).Row(t, 0)[0].I
	if a != 180 || b != 120 {
		t.Errorf("after delete: orig=%d clone=%d", a, b)
	}
}

// Dropping a table frees only the files no other table references, on
// 2 nodes with 2 shards and on the recovered-initiator layout: 4 nodes, 4
// shards, node1 down for the load and initiating after its recovery.
func TestDropTableKeepsSharedFiles(t *testing.T) {
	for _, l := range []struct {
		name          string
		nodes, shards int
		down          string
	}{{"2n_2s", 2, 2, ""}, {"recovered_initiator", 4, 4, "node1"}} {
		t.Run(l.name, func(t *testing.T) {
			db := newTestDB(t, ModeEon, l.nodes, l.shards)
			if l.down != "" {
				if err := db.KillNode(l.down); err != nil {
					t.Fatal(err)
				}
			}
			loadPartitioned(t, db, "orig")
			if l.down != "" {
				if err := db.RecoverNode(l.down); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.CopyTable("orig", "clone"); err != nil {
				t.Fatal(err)
			}
			// Dropping the original must not delete files the clone references.
			s := db.NewSession()
			mustExec(t, s, `DROP TABLE orig`)
			if err := db.SyncMetadata(); err != nil {
				t.Fatal(err)
			}
			if _, err := db.RunGC(); err != nil {
				t.Fatal(err)
			}
			res := mustQuery(t, s, `SELECT COUNT(*) FROM clone`)
			if res.Row(t, 0)[0].I != 180 {
				t.Errorf("clone lost rows after original dropped: %v", res.Rows())
			}
			// Dropping the clone finally frees the files.
			mustExec(t, s, `DROP TABLE clone`)
			if err := db.SyncMetadata(); err != nil {
				t.Fatal(err)
			}
			n, err := db.RunGC()
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Error("dropping the last reference should free files")
			}
			infos, _ := db.SharedStore().List(db.Context(), "data/")
			if len(infos) != 0 {
				t.Errorf("%d orphan files remain", len(infos))
			}
		})
	}
}

func TestDropPartition(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	loadPartitioned(t, db, "ev")
	dropped, err := db.DropPartition("ev", "1")
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("no containers dropped")
	}
	s := db.NewSession()
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM ev`).Row(t, 0)[0].I; n != 120 {
		t.Errorf("count = %d, want 120", n)
	}
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM ev WHERE bucket = 1`).Row(t, 0)[0].I; n != 0 {
		t.Errorf("partition 1 still visible: %d rows", n)
	}
	// Idempotent.
	if d2, _ := db.DropPartition("ev", "1"); d2 != 0 {
		t.Errorf("second drop removed %d", d2)
	}
}

func TestMovePartition(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	loadPartitioned(t, db, "hot")
	s := db.NewSession()
	// Structurally identical archive table.
	mustExec(t, s, `CREATE TABLE cold (id INTEGER, bucket INTEGER) PARTITION BY bucket`)
	mustExec(t, s, `CREATE PROJECTION cold_p AS SELECT * FROM cold ORDER BY id SEGMENTED BY HASH(id) ALL NODES`)

	moved, err := db.MovePartition("hot", "cold", "2")
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("nothing moved")
	}
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM hot`).Row(t, 0)[0].I; n != 120 {
		t.Errorf("hot = %d", n)
	}
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM cold`).Row(t, 0)[0].I; n != 60 {
		t.Errorf("cold = %d", n)
	}
	for _, r := range mustQuery(t, s, `SELECT DISTINCT bucket FROM cold`).Rows() {
		if r[0].I != 2 {
			t.Errorf("cold has bucket %d", r[0].I)
		}
	}
}

func TestMovePartitionRequiresStructuralMatch(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	loadPartitioned(t, db, "hot")
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE other (id INTEGER, bucket INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION other_p AS SELECT * FROM other ORDER BY bucket SEGMENTED BY HASH(bucket) ALL NODES`)
	if _, err := db.MovePartition("hot", "other", "0"); err == nil {
		t.Error("structurally different projections must reject the move")
	}
}

func TestMergeoutRespectsPartitions(t *testing.T) {
	db := newTestDB(t, ModeEon, 2, 2)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE ev (id INTEGER, bucket INTEGER) PARTITION BY bucket`)
	schema := types.Schema{{Name: "id", Type: types.Int64}, {Name: "bucket", Type: types.Int64}}
	// Many small loads spanning 2 partitions.
	for l := 0; l < 10; l++ {
		b := types.NewBatch(schema, 20)
		for i := 0; i < 20; i++ {
			b.AppendRow(types.Row{types.NewInt(int64(l*20 + i)), types.NewInt(int64(i % 2))})
		}
		if err := db.LoadRows("ev", b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.RunMergeout(); err != nil {
		t.Fatal(err)
	}
	// Every surviving container carries exactly one partition key.
	init, _ := db.anyUpNode()
	snap := init.catalog.Snapshot()
	tbl, _ := snap.TableByName("ev")
	for _, p := range snap.ProjectionsOf(tbl.OID) {
		for _, sc := range snap.ContainersOf(p.OID, catalog.GlobalShard) {
			if sc.PartitionKey != "0" && sc.PartitionKey != "1" {
				t.Errorf("container %d has partition key %q", sc.OID, sc.PartitionKey)
			}
		}
	}
	// Data intact.
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM ev`).Row(t, 0)[0].I; n != 200 {
		t.Errorf("count = %d", n)
	}
}

// refSplitKeys is the row-at-a-time partition split splitByPartition
// replaced: each row boxed and evaluated alone, keyed by the value's text.
func refSplitKeys(t *testing.T, partExpr string, schema types.Schema, b *types.Batch) map[string][]int {
	t.Helper()
	pe, err := sql.ParseExpr(partExpr)
	if err != nil {
		t.Fatal(err)
	}
	if err := expr.Bind(pe, schema); err != nil {
		t.Fatal(err)
	}
	groups := map[string][]int{}
	for i := 0; i < b.NumRows(); i++ {
		v, err := expr.EvalRow(pe, b.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		groups[v.String()] = append(groups[v.String()], i)
	}
	return groups
}

// TestSplitByPartitionMatchesRowEval: the vectorized split groups every
// row under the same key text as evaluating it alone, for every kind of
// partition expression, NULLs included.
func TestSplitByPartitionMatchesRowEval(t *testing.T) {
	schema := types.Schema{
		{Name: "id", Type: types.Int64}, {Name: "d", Type: types.Date},
		{Name: "ts", Type: types.Timestamp}, {Name: "s", Type: types.Varchar},
		{Name: "f", Type: types.Float64},
	}
	rng := rand.New(rand.NewSource(3))
	b := types.NewBatch(schema, 300)
	for i := 0; i < 300; i++ {
		row := types.Row{
			types.NewInt(int64(rng.Intn(20) - 5)), types.NewDate(int64(17000 + rng.Intn(400))),
			types.NewTimestamp(int64(rng.Intn(1<<20)) * 1e6), types.NewString([]string{"ab", "Cd", "e"}[rng.Intn(3)]),
			types.NewFloat(float64(rng.Intn(7)) / 2),
		}
		if rng.Intn(10) == 0 {
			c := rng.Intn(len(row))
			row[c] = types.NullDatum(schema[c].Type)
		}
		b.AppendRow(row)
	}
	for _, pe := range []string{
		"id", "d", "s", "f", "id % 3", "id * 2 + 1", "EXTRACT(MONTH FROM d)", "YEAR(d)",
		"EXTRACT(HOUR FROM ts)", "UPPER(s)", "SUBSTR(s, 1, 1)", "COALESCE(s, 'none')",
		"CASE WHEN id > 5 THEN 'hi' ELSE 'lo' END", "f * 2",
	} {
		tbl := &catalog.Table{Name: "t", Columns: schema, PartitionExpr: pe}
		parts, err := splitByPartition(tbl, schema, b)
		if err != nil {
			t.Fatalf("%s: %v", pe, err)
		}
		want := refSplitKeys(t, pe, schema, b)
		if len(parts) != len(want) {
			t.Errorf("%s: %d partitions, row evaluation finds %d", pe, len(parts), len(want))
		}
		for key, idx := range want {
			got, ok := parts[key]
			if !ok || fmt.Sprint(got.Rows()) != fmt.Sprint(b.Gather(idx).Rows()) {
				t.Errorf("%s: partition %q differs from row evaluation", pe, key)
			}
		}
	}
}

// TestPartitionKeysOnEveryWritePath: a table partitioned by month keeps
// one month per container through COPY, large and small, and mergeout,
// and every month loaded appears as a partition key.
func TestPartitionKeysOnEveryWritePath(t *testing.T) {
	for _, mode := range []Mode{ModeEon, ModeEnterprise} {
		t.Run(mode.String(), func(t *testing.T) {
			db := newTestDB(t, mode, 2, 2)
			s := db.NewSession()
			mustExec(t, s, `CREATE TABLE ev (id INTEGER, d DATE) PARTITION BY EXTRACT(MONTH FROM d)`)
			mustExec(t, s, `CREATE PROJECTION ev_p AS SELECT * FROM ev ORDER BY id SEGMENTED BY HASH(id) ALL NODES`)
			schema := types.Schema{{Name: "id", Type: types.Int64}, {Name: "d", Type: types.Date}}
			base := int64(17532) // 2018-01-01
			rows := 0
			for l, size := range []int{40, 3, 3, 40, 3} {
				b := types.NewBatch(schema, size)
				for i := 0; i < size; i++ {
					b.AppendRow(types.Row{types.NewInt(int64(rows)), types.NewDate(base + int64((l*17+i*5)%120))})
					rows++
				}
				if err := db.LoadRows("ev", b); err != nil {
					t.Fatal(err)
				}
			}
			check := func(stage string) {
				t.Helper()
				init, _ := db.anyUpNode()
				snap := init.catalog.Snapshot()
				tbl, _ := snap.TableByName("ev")
				keys := map[string]bool{}
				for _, p := range snap.ProjectionsOf(tbl.OID) {
					for _, sc := range snap.ContainersOf(p.OID, catalog.GlobalShard) {
						st := sc.ColStats["d"]
						lo, hi := types.NewDate(st.Min.I), types.NewDate(st.Max.I)
						if m := lo.String()[5:7]; m != hi.String()[5:7] || strings.TrimPrefix(m, "0") != sc.PartitionKey {
							t.Errorf("%s: container %d has key %q and dates %s..%s", stage, sc.OID, sc.PartitionKey, lo, hi)
						}
						keys[sc.PartitionKey] = true
					}
				}
				if len(keys) != 4 {
					t.Errorf("%s: partition keys %v, want the four months loaded", stage, keys)
				}
				if n := mustQuery(t, s, `SELECT COUNT(*) FROM ev`).Row(t, 0)[0].I; n != int64(rows) {
					t.Errorf("%s: count = %d, want %d", stage, n, rows)
				}
			}
			check("load")
			if _, err := db.RunMergeout(); err != nil {
				t.Fatal(err)
			}
			check("mergeout")
		})
	}
}
