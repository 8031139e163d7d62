package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"eon/internal/core"
	"eon/internal/obs"
	"eon/internal/workload"
)

// profileTotals sums the counter attributes and fetched bytes across a
// profile tree — the same quantities ScanStats accumulates, derived
// independently from the span tree.
type profileTotals struct {
	containersScanned int64
	containersPruned  int64
	blocksScanned     int64
	blocksPruned      int64
	rowsScanned       int64
	colBlocksDecoded  int64
	colBlocksSkipped  int64
	fetches           int64
	cacheHits         int64
	cacheMisses       int64
	coalescedFetches  int64
	bytes             int64
	fetchWall         time.Duration
	decodeWall        time.Duration
	filterWall        time.Duration
}

func sumProfile(p *obs.Profile) profileTotals {
	var t profileTotals
	p.Visit(func(n *obs.Profile) {
		t.containersScanned += n.Attrs["containers_scanned"]
		t.containersPruned += n.Attrs["containers_pruned"]
		t.blocksScanned += n.Attrs["blocks_scanned"]
		t.blocksPruned += n.Attrs["blocks_pruned"]
		t.rowsScanned += n.Attrs["rows_scanned"]
		t.colBlocksDecoded += n.Attrs["column_blocks_decoded"]
		t.colBlocksSkipped += n.Attrs["column_blocks_skipped"]
		t.fetches += n.Attrs["fetches"]
		t.cacheHits += n.Attrs["cache_hits"]
		t.cacheMisses += n.Attrs["cache_misses"]
		t.coalescedFetches += n.Attrs["coalesced_fetches"]
		switch n.Name {
		case "fetch":
			t.bytes += n.Bytes
			t.fetchWall += n.Wall
		case "decode":
			t.decodeWall += n.Wall
		case "filter":
			t.filterWall += n.Wall
		}
	})
	return t
}

// TestProfileMatchesScanStats checks that the profile and the session
// publish the same record: for every TPC-H query, the dashboard query and
// a segment_window-shaped one (orders in a three-week window joined to
// customer), the per-query execution profile (span tree) must exist, be
// hierarchical, have no dangling spans, and its summed counter
// attributes must equal the session's ScanStats, both written at
// shutdown from the fragments' records. Every join must have built the
// input with the smaller estimate, and that input must have turned out
// the smaller; -v lists each join's sides. The joins whose aggregate
// groups only by build-side columns, or by none, run fused as one
// groupjoin and say so on their join span, and their join, filter and
// aggregate spans count the rows the unfused operators would have; a
// row-engine session and one with a finite memory budget never fuse.
func TestProfileMatchesScanStats(t *testing.T) {
	db, _, err := NewEonCluster(3, 3, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadTPCH(db, 0.02); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	s.Trace = true

	queries := append(workload.TPCHQueries(),
		workload.Query{Name: "Dashboard", SQL: workload.DashboardQuery},
		workload.Query{Name: "segment_window", SQL: `SELECT c.c_mktsegment, COUNT(*) AS orders, SUM(o.o_totalprice) AS revenue
			FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
			WHERE o.o_orderdate >= DATE '1995-03-01' AND o.o_orderdate < DATE '1995-03-22'
			GROUP BY c.c_mktsegment ORDER BY c.c_mktsegment`},
	)
	row, budget := db.NewSession(), db.NewSession()
	row.RowEngine, budget.MemoryBudget = true, 64<<20
	row.Trace, budget.Trace = true, true
	fused := map[string]bool{"Q3": true, "Q5": true, "Q7": true, "Q9": true, "Q10": true, "Q12": true, "Q14": true, "Q18": true, "Q19": true, "Dashboard": true}
	joins := 0
	for _, q := range queries {
		if _, err := s.Query(q.SQL); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		prof := s.LastProfile()
		if prof == nil {
			t.Fatalf("%s: no profile recorded", q.Name)
		}
		if prof.Name != "query" {
			t.Fatalf("%s: root span is %q, want %q", q.Name, prof.Name, "query")
		}
		if prof.Dangling != 0 {
			t.Errorf("%s: %d dangling spans force-ended", q.Name, prof.Dangling)
		}
		// Hierarchy: plan under the root, a scan operator somewhere, a
		// fragment under it, and the fetch/decode/filter leaves under
		// that.
		if prof.Find("plan") == nil {
			t.Errorf("%s: profile has no plan span", q.Name)
		}
		var scan *obs.Profile
		prof.Visit(func(n *obs.Profile) {
			if scan == nil && strings.HasPrefix(n.Name, "scan:") {
				scan = n
			}
		})
		if scan == nil {
			t.Fatalf("%s: profile has no scan operator span", q.Name)
		}
		var frag *obs.Profile
		scan.Visit(func(n *obs.Profile) {
			if frag == nil && strings.HasPrefix(n.Name, "fragment:") {
				frag = n
			}
		})
		if frag == nil {
			t.Fatalf("%s: scan span has no fragment child", q.Name)
		}
		for _, leaf := range []string{"fetch", "decode", "filter"} {
			if frag.Find(leaf) == nil {
				t.Errorf("%s: fragment has no %s leaf", q.Name, leaf)
			}
		}

		// Hash operators report their tables: every join built on the
		// input with the smaller estimate, chosen once for all its nodes,
		// and that input turned out the smaller, whichever way the query
		// spells it; every aggregate says how many groups it produced.
		prof.Visit(func(n *obs.Profile) {
			switch n.Name {
			case "join":
				joins++
				build, probe := n.Attrs["build_rows"], n.Attrs["probe_rows"]
				second, buildEst, probeEst := n.Attrs["build_second"], n.Attrs["build_est"], n.Attrs["probe_est"]
				t.Logf("%s: build_second=%d build_est=%d probe_est=%d build_rows=%d probe_rows=%d groupjoin=%d", q.Name, second, buildEst, probeEst, build, probe, n.Attrs["groupjoin"])
				if want := map[bool]int64{true: 1}[fused[q.Name]]; n.Attrs["groupjoin"] != want {
					t.Errorf("%s: groupjoin = %d, want %d", q.Name, n.Attrs["groupjoin"], want)
				}
				if second != 0 && second != 1 {
					t.Errorf("%s: build_second = %d, want 0 or 1 for the whole join", q.Name, second)
				}
				if buildEst == 0 || buildEst > probeEst {
					t.Errorf("%s: join built on an estimate of %d rows against %d: want 0 < build_est <= probe_est", q.Name, buildEst, probeEst)
				}
				if build == 0 || build > probe {
					t.Errorf("%s: join built on %d rows and probed %d: want 0 < build <= probe", q.Name, build, probe)
				}
			case "aggregate", "distinct":
				if n.RowsOut > 0 && n.Attrs["groups"] == 0 {
					t.Errorf("%s: %s emitted %d rows but reports no groups", q.Name, n.Name, n.RowsOut)
				}
			}
		})

		// Span-tree totals vs the session's ScanStats.
		st := s.LastScanStats()
		got := sumProfile(prof)
		checks := []struct {
			name       string
			prof, stat int64
		}{
			{"containers_scanned", got.containersScanned, st.ContainersScanned},
			{"containers_pruned", got.containersPruned, st.ContainersPruned},
			{"blocks_scanned", got.blocksScanned, st.BlocksScanned},
			{"blocks_pruned", got.blocksPruned, st.BlocksPruned},
			{"rows_scanned", got.rowsScanned, st.RowsScanned},
			{"column_blocks_decoded", got.colBlocksDecoded, st.ColumnBlocksDecoded},
			{"column_blocks_skipped", got.colBlocksSkipped, st.ColumnBlocksSkipped},
			{"fetches", got.fetches, st.Fetches},
			{"cache_hits", got.cacheHits, st.CacheHits},
			{"cache_misses", got.cacheMisses, st.CacheMisses},
			{"coalesced_fetches", got.coalescedFetches, st.CoalescedFetches},
			{"bytes_fetched", got.bytes, st.BytesFetched},
		}
		for _, c := range checks {
			if c.prof != c.stat {
				t.Errorf("%s: %s: profile sums to %d, ScanStats says %d", q.Name, c.name, c.prof, c.stat)
			}
		}
		// Time splits: the accumulator spans get the fragments' recorded
		// times, so the span total is never below the session's.
		if got.fetchWall < st.IOWait {
			t.Errorf("%s: fetch span wall %v below ScanStats IOWait %v", q.Name, got.fetchWall, st.IOWait)
		}
		if got.decodeWall < st.Decode {
			t.Errorf("%s: decode span wall %v below ScanStats Decode %v", q.Name, got.decodeWall, st.Decode)
		}
		if got.filterWall < st.Filter {
			t.Errorf("%s: filter span wall %v below ScanStats Filter %v", q.Name, got.filterWall, st.Filter)
		}
		// The root span opens before the query timer starts and closes
		// after it stops, so it brackets the query's wall time from
		// above.
		if st.Wall > 0 && prof.Wall < st.Wall {
			t.Errorf("%s: root span wall %v below query wall %v", q.Name, prof.Wall, st.Wall)
		}
		for _, other := range []*core.Session{row, budget} {
			if _, err := other.Query(q.SQL); err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			other.LastProfile().Visit(func(n *obs.Profile) {
				if n.Attrs["groupjoin"] != 0 {
					t.Errorf("%s: a row-engine or budgeted session fused a join (groupjoin = %d)", q.Name, n.Attrs["groupjoin"])
				}
			})
			// A groupjoin passes no pairs on but tells the spans it reads
			// through how many would have passed: the same rows as unfused.
			if got, want := flows(prof), flows(other.LastProfile()); got != want {
				t.Errorf("%s: operator rows\n fused   %s\n unfused %s", q.Name, got, want)
			}
		}
	}
	if joins != 13 {
		t.Errorf("saw %d join spans over the workload, want the 13 join queries", joins)
	}

}

// flows lists, in visit order, the rows each join, filter and aggregate
// span took in and put out.
func flows(p *obs.Profile) string {
	var b strings.Builder
	p.Visit(func(n *obs.Profile) {
		switch n.Name {
		case "join", "filter", "aggregate":
			fmt.Fprintf(&b, "%s %d>%d; ", n.Name, n.RowsIn, n.RowsOut)
		}
	})
	return b.String()
}

// TestPointLookupSkipsColumnBlocks: a point lookup on a column the
// projection is not sorted by cannot prune by block min/max, but the scan
// decodes the summed column only in the blocks that hold a matching row
// (each part key has ~80 line items, so some of the 42 blocks have none).
func TestPointLookupSkipsColumnBlocks(t *testing.T) {
	db, _, err := NewEonCluster(3, 3, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadTPCH(db, 4); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	s.Trace = true
	if _, err := s.Query("SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_partkey = 1234"); err != nil {
		t.Fatal(err)
	}
	st, got := s.LastScanStats(), sumProfile(s.LastProfile())
	if st.ColumnBlocksSkipped == 0 || st.ColumnBlocksDecoded < st.BlocksScanned {
		t.Errorf("decoded %d column blocks and skipped %d over %d blocks: want every predicate column decoded and some others skipped",
			st.ColumnBlocksDecoded, st.ColumnBlocksSkipped, st.BlocksScanned)
	}
	if st.ColumnBlocksDecoded+st.ColumnBlocksSkipped != 2*st.BlocksScanned {
		t.Errorf("decoded %d + skipped %d column blocks, want 2 columns x %d blocks", st.ColumnBlocksDecoded, st.ColumnBlocksSkipped, st.BlocksScanned)
	}
	if got.colBlocksDecoded != st.ColumnBlocksDecoded || got.colBlocksSkipped != st.ColumnBlocksSkipped {
		t.Errorf("profile says %d decoded / %d skipped, ScanStats %d / %d",
			got.colBlocksDecoded, got.colBlocksSkipped, st.ColumnBlocksDecoded, st.ColumnBlocksSkipped)
	}
}
