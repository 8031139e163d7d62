package experiments

import (
	"testing"

	"eon/internal/core"
	"eon/internal/workload"
)

// allQueries is the full workload: the twenty TPC-H queries plus the
// dashboard and node-down queries.
func allQueries() []workload.Query {
	qs := workload.TPCHQueries()
	return append(qs,
		workload.Query{Name: "Dashboard", SQL: workload.DashboardQuery},
		workload.Query{Name: "NodeDown", SQL: workload.NodeDownQuery},
	)
}

// runEngineDiff executes every workload query on the row engine and on
// the vectorized engine and compares results. With exact set, rows must
// be byte-identical positionally (both engines emit rows in
// deterministic order: filters and joins preserve stream order,
// aggregates emit groups in first-seen order, and a single node's gather
// has one producer). Without it, rows are compared as multisets with
// floats within workload.FloatTol relative: the per-query seeded shard
// assignment regroups rows across nodes between runs, and the gather
// reads nodes in arrival order, shifting both first-seen group order and
// float summation order by an ulp — a multi-node row-engine run differs
// from itself the same way.
func runEngineDiff(t *testing.T, db *core.DB, exact bool) {
	t.Helper()
	row := db.NewSession()
	row.RowEngine = true
	vec := db.NewSession()

	var totalVectorized int64
	for _, q := range allQueries() {
		want, err := row.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s: row engine: %v", q.Name, err)
		}
		if st := row.LastScanStats(); st.RowsVectorized != 0 {
			t.Errorf("%s: row engine entered vectorized kernels (%d rows)", q.Name, st.RowsVectorized)
		}
		got, err := vec.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s: vectorized engine: %v", q.Name, err)
		}
		st := vec.LastScanStats()
		if st.RowsFallback != 0 {
			t.Errorf("%s: vectorized engine fell back on %d rows (want full kernel coverage)", q.Name, st.RowsFallback)
		}
		totalVectorized += st.RowsVectorized

		compareResults(t, q.Name+" (vectorized vs row engine)", want, got, exact)
	}
	if totalVectorized == 0 {
		t.Error("no rows went through the vectorized kernels across the whole workload")
	}
}

// TestVectorizedEngineMatchesRowEngineSingleNode pins every shard to
// one node, making both engines fully deterministic, and requires
// byte-identical results (values, NULLs, row order) plus zero
// row-fallback on every workload query.
func TestVectorizedEngineMatchesRowEngineSingleNode(t *testing.T) {
	db, _, err := NewEonCluster(1, 3, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadTPCH(db, 0.02); err != nil {
		t.Fatal(err)
	}
	runEngineDiff(t, db, true)
}

// TestVectorizedEngineMatchesRowEngineCluster runs the same diff on a
// three-node cluster (distributed scans, two-phase aggregation,
// broadcast and reshuffle joins), with float sums compared at 1e-9
// relative tolerance because the seeded per-query shard assignment
// regroups rows between runs.
func TestVectorizedEngineMatchesRowEngineCluster(t *testing.T) {
	db, _, err := NewEonCluster(3, 3, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadTPCH(db, 0.02); err != nil {
		t.Fatal(err)
	}
	runEngineDiff(t, db, false)
}
