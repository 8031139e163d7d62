package experiments

import (
	"fmt"
	"sync"
	"testing"

	"eon/internal/core"
	"eon/internal/objstore"
	"eon/internal/types"
	"eon/internal/workload"
)

// newServingCluster builds a cluster with the serving-path caches
// either fully on (plan cache + result cache + admission control) or
// fully off — the two sides of the differential tests below.
func newServingCluster(mode core.Mode, nodes, shards, rep int, cached bool) (*core.DB, error) {
	sim := objstore.NewSim(objstore.NewMem(), SharedStorageSim(1))
	cfg := core.Config{
		Mode:              mode,
		Nodes:             nodeSpecs(nodes),
		ShardCount:        shards,
		ReplicationFactor: rep,
		Shared:            sim,
		Net:               ClusterNet(),
		ExecSlots:         8,
	}
	if cached {
		cfg.ResultCacheBytes = 8 << 20
		cfg.SubclusterConcurrency = 8
	} else {
		cfg.PlanCacheSize = -1 // disables plan caching entirely
	}
	return core.Create(cfg)
}

// servingDiffRound runs every TPC-H query on both clusters and checks
// the cached cluster — cold or warm — answers exactly like the uncached
// one. Each query runs twice on the cached side so the second execution
// exercises the plan-cache and result-cache hit paths.
func servingDiffRound(t *testing.T, cachedDB, plainDB *core.DB, exact bool) {
	t.Helper()
	plain := plainDB.NewSession()
	cached := cachedDB.NewSession()
	for _, q := range workload.TPCHQueries() {
		want, err := plain.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s: uncached: %v", q.Name, err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := cached.Query(q.SQL)
			if err != nil {
				t.Fatalf("%s: cached pass %d: %v", q.Name, pass, err)
			}
			compareResults(t, fmt.Sprintf("%s pass %d", q.Name, pass), want, got, exact)
		}
	}
}

// mutateBoth applies one deterministic data change to both clusters so
// their contents stay identical while every cached dependency (table,
// container, delete-vector versions) moves.
func mutateBoth(t *testing.T, stmt string, dbs ...*core.DB) {
	t.Helper()
	for _, db := range dbs {
		if _, err := db.NewSession().Execute(stmt); err != nil {
			t.Fatalf("mutate %q: %v", stmt, err)
		}
	}
}

// TestServingCachesDifferentialSingleNode pins every shard to one node,
// making both clusters fully deterministic, and requires byte-identical
// results between the cache-enabled and cache-disabled cluster — cold,
// warm, and again after deletes and mergeout invalidate what was cached.
func TestServingCachesDifferentialSingleNode(t *testing.T) {
	cachedDB, err := newServingCluster(core.ModeEon, 1, 3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	plainDB, err := newServingCluster(core.ModeEon, 1, 3, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*core.DB{cachedDB, plainDB} {
		if err := LoadTPCH(db, 0.02); err != nil {
			t.Fatal(err)
		}
	}

	servingDiffRound(t, cachedDB, plainDB, true)

	// Deterministic churn: deletes touch delete-vector versions, mergeout
	// rewrites containers. A stale cached plan or result after either
	// would diverge from the uncached cluster.
	mutateBoth(t, `DELETE FROM lineitem WHERE l_quantity = 1`, cachedDB, plainDB)
	servingDiffRound(t, cachedDB, plainDB, true)

	mutateBoth(t, `DELETE FROM orders WHERE o_orderkey < 50`, cachedDB, plainDB)
	for _, db := range []*core.DB{cachedDB, plainDB} {
		if _, err := db.RunMergeout(); err != nil {
			t.Fatal(err)
		}
	}
	servingDiffRound(t, cachedDB, plainDB, true)

	counters := cachedDB.Metrics().Counters
	if counters["plancache.hits"] == 0 {
		t.Fatal("differential ran without a single plan-cache hit — the cached path was not exercised")
	}
	if counters["resultcache.hits"] == 0 {
		t.Fatal("differential ran without a single result-cache hit — the cached path was not exercised")
	}
}

// TestServingCachesDifferentialEnterprise runs the same rounds on a
// three-node Enterprise pair, whose reads the result cache serves too.
// Between rounds come single-row INSERTs, a DELETE, a node kill (its
// segments are then read from buddy copies), a mergeout while it is
// down, which rewrites the copies read in its place, and its recovery.
// Three nodes gather floats in varying order, so sums compare within
// tolerance.
func TestServingCachesDifferentialEnterprise(t *testing.T) {
	cachedDB, err := newServingCluster(core.ModeEnterprise, 3, 3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	plainDB, err := newServingCluster(core.ModeEnterprise, 3, 3, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	both := []*core.DB{cachedDB, plainDB}
	for _, db := range both {
		if err := LoadTPCH(db, 0.02); err != nil {
			t.Fatal(err)
		}
	}
	servingDiffRound(t, cachedDB, plainDB, false)

	for i := 1; i <= 6; i++ {
		mutateBoth(t, fmt.Sprintf(`INSERT INTO lineitem VALUES (%d, %d, 1, 9, %d, 1000.5, 0.05, 0.01, 'N', 'O', DATE '1995-03-01')`,
			i*7, i, 10+i), both...)
	}
	servingDiffRound(t, cachedDB, plainDB, false)

	mutateBoth(t, `DELETE FROM lineitem WHERE l_quantity = 1`, both...)
	servingDiffRound(t, cachedDB, plainDB, false)

	for _, db := range both {
		if err := db.KillNode("node2"); err != nil {
			t.Fatal(err)
		}
	}
	servingDiffRound(t, cachedDB, plainDB, false)
	for _, db := range both {
		if _, err := db.RunMergeout(); err != nil {
			t.Fatal(err)
		}
	}
	servingDiffRound(t, cachedDB, plainDB, false)
	for _, db := range both {
		if err := db.RecoverNode("node2"); err != nil {
			t.Fatal(err)
		}
	}
	servingDiffRound(t, cachedDB, plainDB, false)

	if cachedDB.Metrics().Counters["resultcache.hits"] == 0 {
		t.Fatal("differential ran without a single result-cache hit — the cached path was not exercised")
	}
}

// TestServingCachesDifferentialClusterChurn runs the same differential
// on a three-node cluster while a background goroutine per cluster
// churns DDL, loads and mergeouts concurrently with the queries. The
// churn tables are disjoint from the TPC-H schema, so answers must not
// change — but every catalog bump invalidates cached plans mid-flight,
// exercising the replan path under the race detector.
func TestServingCachesDifferentialClusterChurn(t *testing.T) {
	cachedDB, err := newServingCluster(core.ModeEon, 3, 3, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	plainDB, err := newServingCluster(core.ModeEon, 3, 3, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*core.DB{cachedDB, plainDB} {
		if err := LoadTPCH(db, 0.02); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	churnBatch := types.NewBatch(types.Schema{
		{Name: "k", Type: types.Int64}, {Name: "v", Type: types.Varchar},
	}, 64)
	for i := 0; i < 64; i++ {
		churnBatch.AppendRow(types.Row{types.NewInt(int64(i)), types.NewString("churn")})
	}
	for _, db := range []*core.DB{cachedDB, plainDB} {
		wg.Add(1)
		go func(db *core.DB) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("churn_%d", i)
				if _, err := s.Execute(fmt.Sprintf(`CREATE TABLE %s (k INTEGER, v VARCHAR)`, name)); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Execute(fmt.Sprintf(
					`CREATE PROJECTION %s_p AS SELECT * FROM %s ORDER BY k SEGMENTED BY HASH(k) ALL NODES`, name, name)); err != nil {
					t.Error(err)
					return
				}
				if err := db.LoadRows(name, churnBatch); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.RunMergeout(); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Execute(fmt.Sprintf(`DROP TABLE %s`, name)); err != nil {
					t.Error(err)
					return
				}
			}
		}(db)
	}

	servingDiffRound(t, cachedDB, plainDB, false)
	mutateBoth(t, `DELETE FROM lineitem WHERE l_quantity = 2`, cachedDB, plainDB)
	servingDiffRound(t, cachedDB, plainDB, false)
	close(stop)
	wg.Wait()

	counters := cachedDB.Metrics().Counters
	if counters["plancache.hits"]+counters["plancache.replans"] == 0 {
		t.Fatal("churn differential never exercised the plan cache")
	}
}
