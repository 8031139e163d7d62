package core

import (
	"sync"
	"time"

	"eon/internal/cache"
	"eon/internal/obs"
)

// ScanStats is a snapshot of scan-path instrumentation: what a query (or
// the whole database, for the cumulative view) did against storage —
// pruning effectiveness, bytes moved, cache behaviour, and where the
// time went. Time counters are cumulative across the scan's concurrent
// workers, so under a parallel scan they can exceed the query's wall
// time; the ratio IO/(IO+Decode+Filter) still shows where the work is.
type ScanStats struct {
	// ShardsPruned counts the segment shards a scan did not read because
	// its predicate pins every segmentation column to values hashing
	// elsewhere (queryEnv.pinnedKeys).
	ShardsPruned int64
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
	{"shards_pruned", func(s *ScanStats) *int64 { return &s.ShardsPruned }},
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

// Add accumulates o into s. It names each field rather than walking
// scanCounters, whose accessors would move o to the heap: a scan adds a
// container's counts with it, so it must not allocate.
func (s *ScanStats) Add(o ScanStats) {
	s.ShardsPruned += o.ShardsPruned
	s.ContainersScanned += o.ContainersScanned
	s.ContainersPruned += o.ContainersPruned
	s.BlocksScanned += o.BlocksScanned
	s.BlocksPruned += o.BlocksPruned
	s.RowsScanned += o.RowsScanned
	s.ColumnBlocksDecoded += o.ColumnBlocksDecoded
	s.ColumnBlocksSkipped += o.ColumnBlocksSkipped
	s.Fetches += o.Fetches
	s.BytesFetched += o.BytesFetched
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CoalescedFetches += o.CoalescedFetches
	s.RowsVectorized += o.RowsVectorized
	s.RowsFallback += o.RowsFallback
	s.IOWait += o.IOWait
	s.Decode += o.Decode
	s.Filter += o.Filter
	s.Wall += o.Wall
}

// scanRecord is one scan fragment's ScanStats under the fragment's lock.
// Listing, each container's blocks and every file the fragment reads add
// to it, and nothing else counts scan work: once the query's goroutines
// have stopped, shutdown sums the records into the query's, and writes
// each onto its fragment's spans.
type scanRecord struct {
	mu sync.Mutex
	ScanStats
}

// add adds s to the record.
func (r *scanRecord) add(s *ScanStats) {
	r.mu.Lock()
	r.ScanStats.Add(*s)
	r.mu.Unlock()
}

// fetched records one file a fragment's read path returned: its size,
// how long the read took and, for a read through the depot (cached), how
// the depot served it. A nil record — a read outside a scan — drops it.
func (r *scanRecord) fetched(size int, wait time.Duration, outcome cache.Outcome, cached bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Fetches++
	r.BytesFetched += int64(size)
	r.IOWait += wait
	if !cached {
		return
	}
	switch outcome {
	case cache.OutcomeHit:
		r.CacheHits++
	case cache.OutcomeCoalesced:
		r.CacheMisses++
		r.CoalescedFetches++
	default:
		r.CacheMisses++
	}
}

// queryRecord is what one query did: its scan work, summed over its
// fragments plus its expression counters, its executor's memory and
// spills, and its profile when it was traced. The registry's scan.* and
// exec.* counters, the session's Last* accessors and the slow-query log
// all read it.
type queryRecord struct {
	scan    ScanStats
	exec    ExecStats
	profile *obs.Profile
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
