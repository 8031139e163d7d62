package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eon/internal/shard"
	"eon/internal/types"
)

// setupMoreSales appends rows sale_id = base+1 .. base+rows to sales.
func setupMoreSales(t *testing.T, db *DB, base, rows int) {
	t.Helper()
	batch := types.NewBatch(types.Schema{
		{Name: "sale_id", Type: types.Int64},
		{Name: "customer", Type: types.Varchar},
		{Name: "price", Type: types.Float64},
		{Name: "region", Type: types.Varchar},
	}, rows)
	for i := 0; i < rows; i++ {
		batch.AppendRow(types.Row{
			types.NewInt(int64(base + i + 1)),
			types.NewString("extra"),
			types.NewFloat(1),
			types.NewString("east"),
		})
	}
	if err := db.LoadRows("sales", batch); err != nil {
		t.Fatal(err)
	}
}

// A query parked on a removed node's slots must be woken so it can
// re-plan onto the surviving nodes: RemoveNode has to kick the slot
// waiters the same way KillNode does, or the waiter sleeps forever on a
// node that no longer exists.
func TestRemoveNodeKicksSlotWaiters(t *testing.T) {
	db := newTestDB(t, ModeEon, 3, 3)
	setupSales(t, db, 60)

	// Exhaust node3's slots so any query whose plan includes node3 parks.
	held := map[string]int{"node3": db.cfg.ExecSlots}
	if !db.slots.acquire(held, nil) {
		t.Fatal("could not occupy node3 slots")
	}

	results := make(chan error, 16)
	launch := func() {
		go func() {
			_, err := db.NewSession().Query(`SELECT COUNT(*) FROM sales`)
			results <- err
		}()
	}
	// Launch queries until one parks on the saturated node (placement is
	// load-balanced, so the very first almost always does).
	launched, finished, parked := 0, 0, false
	for try := 0; try < 10 && !parked; try++ {
		launch()
		launched++
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if db.QueueDepth() > 0 {
				parked = true
				break
			}
			if launched-finished == 0 {
				break
			}
			select {
			case err := <-results:
				finished++
				if err != nil {
					t.Errorf("pre-removal query failed: %v", err)
				}
			default:
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	if !parked {
		t.Fatal("no query parked on node3's slots; cannot exercise the kick")
	}

	if err := db.RemoveNode("node3"); err != nil {
		t.Fatal(err)
	}

	// The parked query must wake, fail validation against the vanished
	// node, and retry successfully on node1/node2.
	watchdog := time.After(10 * time.Second)
	for finished < launched {
		select {
		case err := <-results:
			finished++
			if err != nil {
				t.Errorf("query after RemoveNode: %v", err)
			}
		case <-watchdog:
			t.Fatalf("query still parked %d finished of %d: RemoveNode did not kick slot waiters", finished, launched)
		}
	}
	if db.IsShutdown() {
		t.Fatal("cluster shut down")
	}
	checkSubscribersAgree(t, db)
}

// RemoveNode commits the catalog deletion while the node is still up, so
// a concurrent query can be planned against the pre-removal snapshot.
// Every such query must either retry to an exact answer or fail cleanly,
// and RemoveNode must re-check cluster viability afterwards.
func TestRemoveNodeConcurrentQueries(t *testing.T) {
	db := newTestDB(t, ModeEon, 4, 4)
	setupSales(t, db, 80)
	var wantSum int64
	for i := 1; i <= 80; i++ {
		wantSum += int64(i)
	}

	var wrong, okCount, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Query(`SELECT COUNT(*), SUM(sale_id) FROM sales`)
				if err != nil {
					failed.Add(1) // clean failure is acceptable mid-removal
					continue
				}
				row := res.Batch.Row(0)
				if row[0].I != 80 || row[1].I != wantSum {
					wrong.Add(1)
				}
				okCount.Add(1)
			}
		}()
	}

	time.Sleep(10 * time.Millisecond) // let the stream get going
	if err := db.RemoveNode("node4"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // keep querying post-removal
	close(stop)
	wg.Wait()

	if n := wrong.Load(); n > 0 {
		t.Fatalf("%d queries returned wrong results during node removal", n)
	}
	if okCount.Load() == 0 {
		t.Fatal("no query succeeded around the removal")
	}
	if db.IsShutdown() {
		t.Fatal("viable cluster shut down by RemoveNode")
	}
	init, err := db.anyUpNode()
	if err != nil {
		t.Fatal(err)
	}
	snap := init.catalog.Snapshot()
	if _, ok := snap.NodeByName("node4"); ok {
		t.Fatal("node4 still in catalog")
	}
	if subs := snap.Subscriptions("node4"); len(subs) != 0 {
		t.Fatalf("node4 still holds %d subscriptions", len(subs))
	}
	if v := shard.CheckViability(snap, db.UpNodes()); !v.OK {
		t.Fatalf("post-removal cluster not viable: %s", v.Reason)
	}
	// The node's slot pool is gone with it.
	if _, ok := db.slots.cap["node4"]; ok {
		t.Fatal("removed node still registered in the slot manager")
	}
	checkSubscribersAgree(t, db)
}
