package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eon/internal/catalog"
	"eon/internal/types"
)

// checkSubscribersAgree asserts the subscriber invariant: taken at one
// catalog version, every up node that holds a shard's metadata (ACTIVE,
// PASSIVE or REMOVING; a PENDING subscriber has not had its transfer
// yet) holds the same container and delete-vector OIDs for it. Holding
// commitMu keeps every up node at the last committed version.
func checkSubscribersAgree(t *testing.T, db *DB) {
	t.Helper()
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	var ref *catalog.Snapshot
	for _, n := range db.Nodes() {
		if !n.Up() {
			continue
		}
		snap := n.catalog.Snapshot()
		if ref == nil {
			ref = snap
		} else if snap.Version() != ref.Version() {
			t.Errorf("up nodes at different versions: %s at v%d, another at v%d", n.name, snap.Version(), ref.Version())
			return
		}
	}
	if ref == nil {
		t.Error("no node up")
		return
	}
	holders := map[int][]string{}
	ref.ForEach(catalog.KindSubscription, func(o catalog.Object) bool {
		s := o.(*catalog.Subscription)
		if s.State != catalog.SubPending {
			holders[s.ShardIndex] = append(holders[s.ShardIndex], s.Node)
		}
		return true
	})
	for shardIdx, nodes := range holders {
		var want []catalog.OID
		var wantFrom string
		for _, name := range nodes {
			n, ok := db.Node(name)
			if !ok || !n.Up() {
				continue
			}
			var got []catalog.OID
			n.catalog.Snapshot().ForEach(0, func(o catalog.Object) bool {
				if o.Shard() == shardIdx {
					got = append(got, o.GetOID())
				}
				return true
			})
			if wantFrom == "" {
				want, wantFrom = got, name
			} else if !slices.Equal(got, want) {
				t.Errorf("shard %d at v%d: %s holds %d storage objects %v, %s holds %d %v",
					shardIdx, ref.Version(), name, len(got), got, wantFrom, len(want), want)
			}
		}
	}
}

// A transaction begun on a node that is killed before it commits must
// not commit: the node's catalog stopped at its last applied record, so
// the record would not follow the cluster's version and every healthy
// node would fail to apply it and take itself down.
func TestCommitRefusesDownInitiator(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	mustExec(t, db.NewSession(), `CREATE TABLE t (id INTEGER)`)
	n1, _ := db.Node("node1")
	txn := n1.catalog.Begin()
	txn.Put(&catalog.Table{OID: n1.catalog.NewOID(), Name: "late"})
	if err := db.KillNode("node1"); err != nil {
		t.Fatal(err)
	}
	// A load commits through node2 while node1 is down.
	schema := types.Schema{{Name: "id", Type: types.Int64}}
	if err := db.LoadRows("t", types.BatchFromRows(schema, []types.Row{{types.NewInt(1)}})); err != nil {
		t.Fatal(err)
	}
	if _, err := db.commit(n1, txn, nil); err == nil {
		t.Fatal("a commit through a down initiator succeeded")
	}
	for _, name := range []string{"node2", "node3"} {
		if n, _ := db.Node(name); !n.Up() {
			t.Errorf("%s went down", name)
		}
	}
	if db.IsShutdown() {
		t.Fatal("cluster shut down")
	}
	if got := mustQuery(t, db.NewSession(), `SELECT COUNT(*) FROM t`).Row(t, 0)[0].I; got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

// A mergeout that commits while a node is killed and recovered must not
// come back on the recovered node: its re-subscription's metadata
// transfer replaces the shard's objects at one catalog version, so the
// mergeout's inputs never reappear next to its output. Eon, 3 nodes, 3
// shards, 80 tagged loads; then, for 150 ms, a mergeout loop, a
// kill/recover loop on node2 and two readers that bypass the depot.
func TestMergeoutDuringRecoveryKeepsRowsOnce(t *testing.T) {
	const loads, perLoad = 80, 20
	schema := types.Schema{{Name: "id", Type: types.Int64}, {Name: "tag", Type: types.Int64}}
	for iter := 0; iter < 10; iter++ {
		db := newTestDB(t, ModeEon, 3, 3)
		mustExec(t, db.NewSession(), `CREATE TABLE t (id INTEGER, tag INTEGER)`)
		for tag := 0; tag < loads; tag++ {
			b := types.NewBatch(schema, perLoad)
			for i := 0; i < perLoad; i++ {
				b.AppendRow(types.Row{types.NewInt(int64(tag*perLoad + i)), types.NewInt(int64(tag))})
			}
			if err := db.LoadRows("t", b); err != nil {
				t.Fatal(err)
			}
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		var wrongReads atomic.Int64
		var recoverErr atomic.Value
		loop := func(step func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						step()
					}
				}
			}()
		}
		loop(func() { db.RunMergeout() })
		loop(func() {
			db.KillNode("node2")
			if err := db.RecoverNode("node2"); err != nil {
				recoverErr.Store(err)
			}
		})
		for r := 0; r < 2; r++ {
			s := db.NewSession()
			s.BypassCache = true
			loop(func() {
				res, err := s.Query(`SELECT tag, COUNT(*) FROM t GROUP BY tag`)
				if err != nil {
					return // a clean failure mid-recovery is acceptable
				}
				for _, row := range res.Rows() {
					if row[1].I != perLoad {
						wrongReads.Add(1)
					}
				}
			})
		}
		time.Sleep(150 * time.Millisecond)
		close(stop)
		wg.Wait()

		if err, _ := recoverErr.Load().(error); err != nil {
			t.Fatalf("iteration %d: recover: %v", iter, err)
		}
		if n := wrongReads.Load(); n > 0 {
			t.Errorf("iteration %d: %d tags read with a count other than %d", iter, n, perLoad)
		}
		got := mustQuery(t, db.NewSession(), `SELECT COUNT(*) FROM t`).Row(t, 0)[0].I
		if got != loads*perLoad {
			t.Errorf("iteration %d: COUNT(*) = %d, want %d", iter, got, loads*perLoad)
		}
		checkSubscribersAgree(t, db)
		if t.Failed() {
			t.FailNow()
		}
	}
}
