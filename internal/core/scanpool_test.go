package core

import (
	"fmt"
	"runtime"
	"testing"

	"eon/internal/obs"
)

// TestWarmPointQueryBytes: point queries repeated on a warm node reuse
// their node's pooled scan workers, so one run allocates fewer bytes than
// a single 4 096-row INTEGER vector (32 KiB) — decoding a block into new
// vectors per query would cost that per column. The queries alternate
// between a FLOAT and a VARCHAR output column, so the scan column after
// sale_id changes physical class from one query to the next.
func TestWarmPointQueryBytes(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	db := newTestDB(t, ModeEon, 1, 1)
	defer db.Shutdown()
	setupSales(t, db, 20000)
	s := db.NewSession()
	const runs = 50
	query := func(i int) {
		col := [2]string{"price", "customer"}[i%2]
		res := mustQuery(t, s, fmt.Sprintf(`SELECT %s FROM sales WHERE sale_id = %d`, col, 7000+i))
		if res.NumRows() != 1 {
			t.Fatalf("point query returned %d rows, want 1", res.NumRows())
		}
	}
	for i := range 5 {
		query(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		query(i)
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per point query", perQuery)
	if perQuery >= 32<<10 {
		t.Errorf("a warm point query allocates %d bytes, want < %d (one 4096-row INTEGER vector)", perQuery, 32<<10)
	}
}
