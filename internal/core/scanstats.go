package core

import (
	"sync/atomic"
	"time"

	"eon/internal/expr"
	"eon/internal/obs"
)

// ScanStats is a snapshot of scan-path instrumentation: what a query (or
// the whole database, for the cumulative view) did against storage —
// pruning effectiveness, bytes moved, cache behaviour, and where the
// time went. Time counters are cumulative across the scan's concurrent
// workers, so under a parallel scan they can exceed the query's wall
// time; the ratio IO/(IO+Decode+Filter) still shows where the work is.
type ScanStats struct {
	// ContainersScanned / ContainersPruned count containers read vs
	// skipped whole by catalog min/max stats (§2.1).
	ContainersScanned int64
	ContainersPruned  int64
	// BlocksScanned / BlocksPruned count blocks decoded vs skipped by
	// the position index's per-block min/max (§2.3).
	BlocksScanned int64
	BlocksPruned  int64
	// RowsScanned counts the rows of scanned blocks, before delete and
	// predicate filtering.
	RowsScanned int64
	// ColumnBlocksDecoded counts (column, block) pairs decoded;
	// ColumnBlocksSkipped those of scanned blocks never decoded because
	// no row of the block survived the delete vector and the predicate.
	ColumnBlocksDecoded int64
	ColumnBlocksSkipped int64
	// Fetches and BytesFetched count storage-file reads issued by the
	// scan (through the cache or directly) and the bytes they returned.
	Fetches      int64
	BytesFetched int64
	// CacheHits/CacheMisses/CoalescedFetches classify the cache reads;
	// a coalesced fetch is a miss that joined another scan's in-flight
	// fetch of the same path instead of issuing its own (single-flight).
	CacheHits        int64
	CacheMisses      int64
	CoalescedFetches int64
	// RowsVectorized / RowsFallback split expression evaluation between
	// the typed batch kernels and the per-row fallback: RowsVectorized
	// counts rows entering a vectorized evaluation (scan predicates and
	// operator expressions alike) and RowsFallback counts rows that had
	// to be re-evaluated row-at-a-time because an expression node had no
	// kernel. RowsFallback == 0 means full kernel coverage.
	RowsVectorized int64
	RowsFallback   int64
	// IOWait / Decode / Filter split the scan's working time: file reads,
	// decoding blocks, and evaluating deletes + predicates. IOWait sums the
	// duration of every read, and reads overlap, so it exceeds Wall.
	IOWait time.Duration
	Decode time.Duration
	Filter time.Duration
	// Wall is the end-to-end execution wall time of the query (only set
	// on per-query snapshots, not on the cumulative database view).
	Wall time.Duration
}

// scanCounters names every ScanStats counter as the metrics registry
// knows it (under the "scan." prefix) and locates it in a ScanStats.
var scanCounters = []struct {
	name string
	of   func(*ScanStats) *int64
}{
	{"containers_scanned", func(s *ScanStats) *int64 { return &s.ContainersScanned }},
	{"containers_pruned", func(s *ScanStats) *int64 { return &s.ContainersPruned }},
	{"blocks_scanned", func(s *ScanStats) *int64 { return &s.BlocksScanned }},
	{"blocks_pruned", func(s *ScanStats) *int64 { return &s.BlocksPruned }},
	{"rows_scanned", func(s *ScanStats) *int64 { return &s.RowsScanned }},
	{"column_blocks_decoded", func(s *ScanStats) *int64 { return &s.ColumnBlocksDecoded }},
	{"column_blocks_skipped", func(s *ScanStats) *int64 { return &s.ColumnBlocksSkipped }},
	{"fetches", func(s *ScanStats) *int64 { return &s.Fetches }},
	{"bytes_fetched", func(s *ScanStats) *int64 { return &s.BytesFetched }},
	{"cache_hits", func(s *ScanStats) *int64 { return &s.CacheHits }},
	{"cache_misses", func(s *ScanStats) *int64 { return &s.CacheMisses }},
	{"coalesced_fetches", func(s *ScanStats) *int64 { return &s.CoalescedFetches }},
	{"rows_vectorized", func(s *ScanStats) *int64 { return &s.RowsVectorized }},
	{"rows_fallback", func(s *ScanStats) *int64 { return &s.RowsFallback }},
	{"io_wait_ns", func(s *ScanStats) *int64 { return (*int64)(&s.IOWait) }},
	{"decode_ns", func(s *ScanStats) *int64 { return (*int64)(&s.Decode) }},
	{"filter_ns", func(s *ScanStats) *int64 { return (*int64)(&s.Filter) }},
	{"wall_ns", func(s *ScanStats) *int64 { return (*int64)(&s.Wall) }},
}

// Add accumulates other into s.
func (s *ScanStats) Add(other ScanStats) {
	for _, c := range scanCounters {
		*c.of(s) += *c.of(&other)
	}
}

// scanTally is the mutable, concurrency-safe accumulator behind a
// query's ScanStats, held by the queryEnv and written by every scan
// worker. The database's cumulative view lives in the metrics registry
// (scanMetrics); per-query snapshots are folded into it after each
// query. Maintenance paths read through trackedFetch with a nil
// *scanTally, which drops the records.
type scanTally struct {
	// vec holds the vectorized/fallback row counters; expression
	// evaluation writes it directly (it is handed to EvalVec/FilterVec).
	vec expr.VecStats

	containersScanned atomic.Int64
	containersPruned  atomic.Int64
	blocksScanned     atomic.Int64
	blocksPruned      atomic.Int64
	rowsScanned       atomic.Int64
	colBlocksDecoded  atomic.Int64
	colBlocksSkipped  atomic.Int64
	fetches           atomic.Int64
	bytesFetched      atomic.Int64
	cacheHits         atomic.Int64
	cacheMisses       atomic.Int64
	coalescedFetches  atomic.Int64
	ioWaitNanos       atomic.Int64
	decodeNanos       atomic.Int64
	filterNanos       atomic.Int64
	wallNanos         atomic.Int64
}

func (t *scanTally) addIOWait(d time.Duration) { t.ioWaitNanos.Add(int64(d)) }

// snapshot converts the tally into a ScanStats value.
func (t *scanTally) snapshot() ScanStats {
	return ScanStats{
		ContainersScanned:   t.containersScanned.Load(),
		ContainersPruned:    t.containersPruned.Load(),
		BlocksScanned:       t.blocksScanned.Load(),
		BlocksPruned:        t.blocksPruned.Load(),
		RowsScanned:         t.rowsScanned.Load(),
		ColumnBlocksDecoded: t.colBlocksDecoded.Load(),
		ColumnBlocksSkipped: t.colBlocksSkipped.Load(),
		Fetches:             t.fetches.Load(),
		BytesFetched:        t.bytesFetched.Load(),
		CacheHits:           t.cacheHits.Load(),
		CacheMisses:         t.cacheMisses.Load(),
		CoalescedFetches:    t.coalescedFetches.Load(),
		RowsVectorized:      t.vec.Vectorized.Load(),
		RowsFallback:        t.vec.Fallback.Load(),
		IOWait:              time.Duration(t.ioWaitNanos.Load()),
		Decode:              time.Duration(t.decodeNanos.Load()),
		Filter:              time.Duration(t.filterNanos.Load()),
		Wall:                time.Duration(t.wallNanos.Load()),
	}
}

// scanMetrics is the database's cumulative scan instrumentation: one
// registry counter per scanCounters entry, under the "scan." prefix —
// DB.ScanStats() is a derived snapshot over the registry, not a parallel
// accumulator.
type scanMetrics []*obs.Counter

// init creates the counters in reg. A nil registry yields nil counters,
// which drop adds.
func (m *scanMetrics) init(reg *obs.Registry) {
	*m = make(scanMetrics, len(scanCounters))
	for i, c := range scanCounters {
		(*m)[i] = reg.Counter("scan." + c.name)
	}
}

// add folds a per-query snapshot into the cumulative registry counters
// (none when the database runs without a registry).
func (m scanMetrics) add(s ScanStats) {
	for i, c := range m {
		c.Add(*scanCounters[i].of(&s))
	}
}

// snapshot derives the cumulative ScanStats view from the registry
// counters.
func (m scanMetrics) snapshot() ScanStats {
	var s ScanStats
	for i, c := range m {
		*scanCounters[i].of(&s) = c.Value()
	}
	return s
}
