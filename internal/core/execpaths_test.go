package core

import (
	"fmt"
	"testing"
	"time"

	"eon/internal/objstore"
	"eon/internal/types"
)

// Broadcast join path: a small right side with the broadcast limit set.
func TestBroadcastJoinExecution(t *testing.T) {
	db, err := Create(Config{
		Mode:              ModeEon,
		Nodes:             []NodeSpec{{Name: "n1"}, {Name: "n2"}, {Name: "n3"}},
		ShardCount:        3,
		BroadcastRowLimit: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	// Both segmented by their own keys; join on non-segmentation columns
	// forces a non-local strategy, and the small right side broadcasts.
	mustExec(t, s, `CREATE TABLE big (b_id INTEGER, k INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION big_p AS SELECT * FROM big ORDER BY b_id SEGMENTED BY HASH(b_id) ALL NODES`)
	mustExec(t, s, `CREATE TABLE small (s_id INTEGER, k INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION small_p AS SELECT * FROM small ORDER BY s_id SEGMENTED BY HASH(s_id) ALL NODES`)

	schema := types.Schema{{Name: "b_id", Type: types.Int64}, {Name: "k", Type: types.Int64}}
	bigBatch := types.NewBatch(schema, 300)
	for i := 0; i < 300; i++ {
		bigBatch.AppendRow(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 10))})
	}
	if err := db.LoadRows("big", bigBatch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO small VALUES (%d, %d)`, 100+i, i))
	}
	res := mustQuery(t, s, `SELECT COUNT(*) FROM big b JOIN small sm ON b.k = sm.k`)
	if res.Row(t, 0)[0].I != 300 { // each big row matches exactly one small row
		t.Errorf("broadcast join count = %v", res.Rows())
	}
}

// Revive donor repair: a node whose uploads lag gets repaired from the
// donor snapshot at revive.
func TestReviveRepairsLaggingNode(t *testing.T) {
	shared := objstore.NewMem()
	db, err := Create(Config{
		Mode:       ModeEon,
		Nodes:      []NodeSpec{{Name: "node1"}, {Name: "node2"}},
		Shared:     shared,
		ShardCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	setupSales(t, db, 60)
	if err := db.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	// Simulate node2 losing its later uploads: delete its files above
	// its checkpoint so TruncateTo fails for it at the consensus
	// version... instead, just delete all of node2's uploads: revive
	// must repair it entirely from node1.
	ctx := db.Context()
	infos, _ := shared.List(ctx, fmt.Sprintf("metadata/%s/node2/", db.Incarnation()))
	for _, fi := range infos {
		if err := shared.Delete(ctx, fi.Key); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range db.Nodes() {
		n.up.Store(false)
	}
	db.shutdown.Store(true)

	db2, err := Revive(Config{Shared: shared, Now: func() time.Time {
		return time.Now().Add(time.Hour)
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, db2.NewSession(), `SELECT COUNT(*) FROM sales`)
	if res.Row(t, 0)[0].I != 60 {
		t.Errorf("revived count = %v", res.Rows())
	}
	// The repaired node serves queries too.
	n2, ok := db2.Node("node2")
	if !ok || !n2.Up() {
		t.Fatal("node2 missing after revive")
	}
	if n2.catalog.Version() == 0 {
		t.Error("node2 catalog not repaired")
	}
}

// A second Eon cluster can be "cloned" from copied storage: instance ids
// in SIDs keep the clones collision-free (§5.1). Simulated by reviving
// into a different node set.
func TestReviveWithDifferentNodeNames(t *testing.T) {
	shared := objstore.NewMem()
	db, err := Create(Config{
		Mode:       ModeEon,
		Nodes:      []NodeSpec{{Name: "node1"}, {Name: "node2"}},
		Shared:     shared,
		ShardCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	setupSales(t, db, 30)
	if err := db.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Default node set comes from cluster_info.json.
	db2, err := Revive(Config{Shared: shared})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, n := range db2.Nodes() {
		names[n.Name()] = true
	}
	if !names["node1"] || !names["node2"] {
		t.Errorf("revived node set = %v", names)
	}
}

// Killing the initiator (lowest-named node) moves initiation to the next
// node transparently.
func TestInitiatorFailover(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 90)
	if err := db.KillNode("node1"); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	res := mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	if res.Row(t, 0)[0].I != 90 {
		t.Errorf("count = %v", res.Rows())
	}
	// Writes also work through the new initiator.
	mustExec(t, s, `INSERT INTO sales VALUES (9999, 'x', 1.0, 'y')`)
	res = mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	if res.Row(t, 0)[0].I != 91 {
		t.Errorf("post-insert count = %v", res.Rows())
	}
}

// An acknowledged Enterprise load survives a node kill and recovery:
// every load writes ROS containers to its owners' disks, which a killed
// process keeps, so nothing acknowledged lived only in process memory.
func TestEnterpriseKillKeepsAcknowledgedRows(t *testing.T) {
	// Three nodes: killing one preserves quorum (1 of 2 would not).
	db := newTestDB(t, ModeEnterprise, 3, 3)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (id INTEGER)`)
	for i := 0; i < 30; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	if err := db.KillNode("node2"); err != nil {
		t.Fatal(err)
	}
	if err := db.RecoverNode("node2"); err != nil {
		t.Fatal(err)
	}
	row := mustQuery(t, s, `SELECT COUNT(*), SUM(id) FROM t`).Row(t, 0)
	if row[0].I != 30 || row[1].I != 435 {
		t.Errorf("after kill and recovery: count, sum = %v, %v; want 30, 435", row[0], row[1])
	}
}
