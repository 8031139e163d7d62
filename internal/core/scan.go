package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"eon/internal/catalog"
	"eon/internal/colenc"
	"eon/internal/exec"
	"eon/internal/expr"
	"eon/internal/hashring"
	"eon/internal/obs"
	"eon/internal/parallel"
	"eon/internal/planner"
	"eon/internal/rosfile"
	"eon/internal/storage"
	"eon/internal/types"
)

// containerWork is one unit of scan work: an unpruned container of one
// scan task, in the fragment's deterministic output order.
type containerWork struct {
	task scanTask
	sc   *catalog.StorageContainer
	// hashFilter marks crunch hash-filter post-processing (§4.4).
	hashFilter bool
}

// plan is the first step of reading one node's share of a scan: it lists
// the containers to read (list) and starts the reads of their files
// (prefetch). It does not block, so a pipeline plans every fragment while
// it is built.
func (fs *fragmentScan) plan(ctx context.Context) error {
	if err := fs.list(); err != nil {
		return err
	}
	// Per-table shaping policy (§5.2): never-cache tables bypass.
	return fs.open(ctx, fs.env.session.BypassCache || fs.env.db.neverCacheTable(fs.scan.Table.Name))
}

// open readies fs.work to run: the columns a block decodes first, the
// file-read path through the node's depot (around it if bypass), and the
// prefetch of the files the depot lacks.
func (fs *fragmentScan) open(ctx context.Context, bypass bool) error {
	fs.firstCols, fs.allCols = scanColSets(fs.scan, fs.env.eng())
	fs.file = fs.env.db.trackedFetch(fs.node, bypass, &fs.rec)
	return fs.prefetch(ctx)
}

// readLive reads the live rows of containers, the delete vectors snap
// holds for them applied, through node's fragment reader, as a query's
// scan of p reads them, and returns them in container order: the columns
// of schema, by name. Mergeout reads storage this way; it counts into no
// query's record.
func (db *DB) readLive(ctx context.Context, node *Node, snap *catalog.Snapshot, tbl *catalog.Table, p *catalog.Projection, schema types.Schema, containers []*catalog.StorageContainer) (*types.Batch, error) {
	env := &queryEnv{db: db, session: &Session{db: db}, snapshots: map[string]*catalog.Snapshot{node.name: snap}}
	fs := &fragmentScan{env: env, node: node, scan: &planner.Scan{Table: tbl, Proj: p, Cols: schema.Names(), OutSchema: schema}}
	var rows int64
	for _, sc := range containers {
		fs.work = append(fs.work, containerWork{sc: sc})
		rows += sc.RowCount
	}
	if err := fs.open(ctx, false); err != nil {
		return nil, err
	}
	// Sized from the containers, so appending never regrows it.
	out := types.NewBatch(schema, int(rows))
	return out, fs.run(ctx, func(b *types.Batch) error {
		out.AppendBatch(b)
		node.free.PutVectors(b.Cols)
		return nil
	})
}

// list is the one rule for which node reads which container: fs.work
// gets the containers of the shards (or crunch sub-partitions) of
// fs.tasks that survive catalog min/max pruning — the executor "attaches
// storage for the shards the session has instructed it to serve" from
// its own catalog (§4). In Enterprise a node reads only what it owns.
func (fs *fragmentScan) list() error {
	env, db, node, scan := fs.env, fs.env.db, fs.node, fs.scan
	// The scan reads from the query's captured catalog cut, not a fresh
	// snapshot: a concurrent drain (RemoveNode → unsubscribe) deletes the
	// subscription and then prunes the node's local shard metadata via
	// ReplaceShard, which does not advance the catalog version. A
	// fresh snapshot taken here could pass any version check yet have no
	// containers for an assigned shard — a silent short read. The captured
	// cut is immutable (copy-on-write), so the containers it references
	// remain scannable; dropped depot files fall back to shared storage.
	snap := env.snapshots[node.name]
	for _, task := range fs.tasks {
		shardIdx := task.Shard
		// Enterprise: a node serving a shard it does not own in the base
		// projection reads the buddy copy instead — "the global query
		// plan does not change when a node is down, merely a different
		// node serves the underlying data" (§6.1). A task of every shard
		// (GlobalShard) reads the scanned copy itself.
		proj := scan.Proj
		if db.mode == ModeEnterprise && shardIdx >= 0 && !scan.Replicated {
			p, err := db.projectionCopyFor(snap, scan.Proj, shardIdx, node.name)
			if err != nil {
				return err
			}
			proj = p
		}

		containers := snap.ContainersOf(proj.OID, shardIdx)
		// Container split (§4.4): "each node sharing a segment scans a
		// distinct subset of the containers".
		useContainerSplit := env.splitsContainers(scan, task)
		for ci, sc := range containers {
			if db.mode == ModeEnterprise && sc.OwnerNode != node.name {
				continue
			}
			if shardIdx == catalog.GlobalShard && fs.keys != nil && !slices.ContainsFunc(fs.keys, func(h uint32) bool { return db.ring.SegmentFor(h) == sc.ShardIndex }) {
				continue // a listing of every shard keeps the pinned ones
			}
			if useContainerSplit && ci%task.Of != task.Part {
				continue
			}
			// Container-level pruning from catalog stats: no file access (§2.1).
			if scan.Pred != nil && !expr.CouldMatch(scan.Pred, containerStats(scan, sc)) {
				fs.rec.add(&ScanStats{ContainersPruned: 1})
				continue
			}
			fs.work = append(fs.work, containerWork{
				task: task,
				sc:   sc,
				// Hash filter (§4.4): "applying a new hash segmentation
				// predicate to each row as it is read" — selective
				// predicates were already applied by the scan, reducing
				// the hashing burden.
				hashFilter: task.Of > 1 && !useContainerSplit,
			})
		}
	}
	return nil
}

// estRows estimates the rows listed fragments emit: their containers'
// rows, scaled by expr.RangeFraction and by a crunch hash filter's 1/Of.
func estRows(frags ...*fragmentScan) float64 {
	var rows float64
	for _, fs := range frags {
		for _, w := range fs.work {
			r := float64(w.sc.RowCount)
			if fs.scan.Pred != nil {
				r *= expr.RangeFraction(fs.scan.Pred, containerStats(fs.scan, w.sc))
			}
			if w.hashFilter {
				r /= float64(w.task.Of)
			}
			rows += r
		}
	}
	return rows
}

// splitsContainers reports whether task's crunch group splits its
// shard's containers between members rather than filtering its rows by
// hash: under CrunchContainerSplit, or when the scan does not read every
// segmentation column.
func (env *queryEnv) splitsContainers(scan *planner.Scan, task scanTask) bool {
	return task.Of > 1 && (env.session.Crunch == CrunchContainerSplit || len(scan.SegmentCols) == 0)
}

// run hands each surviving batch of a planned fragment to emit as it is
// produced, after block-level min/max pruning, delete-vector filtering
// and predicate evaluation. Containers are scanned through a bounded
// worker window (ScanConcurrency), and — unlike a materializing pool — at
// most that window of container results exists at once: emit runs on the
// caller's goroutine in strict (task, container) order (exactly the
// serial pipeline's order), and a slow or early-terminating consumer
// backpressures the workers, and through them the reads.
func (fs *fragmentScan) run(ctx context.Context, emit func(*types.Batch) error) error {
	db, scan, work := fs.env.db, fs.scan, fs.work
	defer func() { fs.span.AddAttr("fetch_wait_ns", int64(fs.pre.Stop())) }()
	// Scan the containers through a bounded streaming window. Each worker
	// keeps its own scratch (decode vectors, expression arena, hash-filter
	// buffers) and comes from the node's pool, so a warm node allocates it
	// neither per block nor per query. Every worker has exited when
	// StreamOrdered returns, and no batch it made holds its scratch.
	conc := db.cfg.ScanConcurrency
	workers := make([]*scanWorker, min(max(conc, 1), len(work)))
	for i := range workers {
		select {
		case workers[i] = <-fs.node.scanFree:
		default:
			workers[i] = &scanWorker{}
		}
		defer workers[i].pool(fs.node)
	}
	return parallel.StreamOrdered(ctx, len(work), conc,
		func(ctx context.Context, worker, i int) ([]*types.Batch, error) {
			w := work[i]
			batches, err := fs.scanContainer(ctx, w.sc, workers[worker])
			if err != nil {
				return nil, err
			}
			if w.hashFilter {
				batches = workers[worker].hash.filter(batches, scan.SegmentCols, db.ring, w.task, fs.node.free)
			}
			return batches, nil
		},
		func(_ int, batches []*types.Batch) error {
			for _, b := range batches {
				if b == nil || b.NumRows() == 0 {
					continue
				}
				if err := emit(b); err != nil {
					return err
				}
			}
			return nil
		})
}

// prefetch lists, in (task, container, column) order, the files of work
// this node's depot does not hold — each container's column files or
// bundle, then its delete vectors — and starts a fetcher that keeps
// ioWidth of them in flight ahead of the workers, which take them from it
// (fs.file) instead of reading them: a cold fragment costs one round
// trip whatever ScanConcurrency is, each file read and counted once, and
// not by way of the depot. A file the depot holds is not listed, so a
// warm scan lists nothing, starts nothing and allocates nothing here; nor
// does Enterprise (local disk) or the serial reference.
func (fs *fragmentScan) prefetch(ctx context.Context) error {
	if db := fs.env.db; db.mode != ModeEon || db.ioConc() == 1 {
		return nil
	}
	snap := fs.env.snapshots[fs.node.name]
	var paths []string
	miss := func(path string) {
		if !fs.node.cache.Contains(path) {
			paths = append(paths, path)
		}
	}
	for _, w := range fs.work {
		if err := storage.ColumnFiles(w.sc, fs.scan.Cols, miss); err != nil {
			return err
		}
		for _, dv := range snap.DeleteVectorsOf(w.sc.OID) {
			miss(dv.File.Path)
		}
	}
	if len(paths) > 0 {
		fs.pre = storage.StartPrefetch(ctx, paths, ioWidth, fs.file)
		fs.file = fs.pre.Fetch
	}
	return nil
}

// hashFilterState is one scan worker's reusable crunch hash-filter
// scratch: the per-batch hash and selection buffers.
type hashFilterState struct {
	hashes  []uint32
	keepBuf []int
}

// filter keeps only the rows of task's sub-range of its shard: those
// whose segmentation-column hash the ring locates in part task.Part of
// task.Of — the rows queryEnv.route sends to this member. A batch it
// narrows is copied into vectors from free, and its own go back there.
func (h *hashFilterState) filter(batches []*types.Batch, segCols []int, ring *hashring.Ring, task scanTask, free *exec.FreeList) []*types.Batch {
	var out []*types.Batch
	for _, b := range batches {
		if b == nil || b.NumRows() == 0 {
			continue
		}
		h.hashes = hashring.HashBatchCols(b, segCols, h.hashes[:0])
		keep := h.keepBuf[:0]
		for i, hash := range h.hashes {
			if _, part := ring.Locate(hash, task.Of); part == task.Part {
				keep = append(keep, i)
			}
		}
		h.keepBuf = keep[:0]
		if len(keep) == b.NumRows() {
			out = append(out, b)
			continue
		}
		if len(keep) > 0 {
			out = append(out, free.Gather(b, keep))
		}
		free.PutVectors(b.Cols)
	}
	return out
}

// projectionFamily returns base and its Enterprise buddies: every copy of
// the projection's rows, one of which serves each segment.
func projectionFamily(snap *catalog.Snapshot, base *catalog.Projection) []*catalog.Projection {
	var family []*catalog.Projection
	for _, p := range snap.ProjectionsOf(base.TableOID) {
		if p.OID == base.OID || p.BaseOID == base.OID || (base.BaseOID != 0 && (p.OID == base.BaseOID || p.BaseOID == base.BaseOID)) {
			family = append(family, p)
		}
	}
	return family
}

// projectionCopyFor finds, within a projection's buddy family, the copy
// whose owner for the given segment is the given node.
func (db *DB) projectionCopyFor(snap *catalog.Snapshot, base *catalog.Projection, shardIdx int, nodeName string) (*catalog.Projection, error) {
	nNodes := len(db.order)
	for _, p := range projectionFamily(snap, base) {
		if db.order[(shardIdx+p.BuddyOffset)%nNodes] == nodeName {
			return p, nil
		}
	}
	return nil, fmt.Errorf("core: node %s holds no copy of projection %s for segment %d", nodeName, base.Name, shardIdx)
}

// containerStats builds the pruning StatsFunc from catalog column stats.
func containerStats(scan *planner.Scan, sc *catalog.StorageContainer) expr.StatsFunc {
	return func(col int) (types.ColumnStats, bool) {
		if col < 0 || col >= len(scan.Cols) {
			return types.ColumnStats{}, false
		}
		st, ok := sc.ColStats[scan.Cols[col]]
		return st, ok
	}
}

// fragmentScan is node's share of a query's scan: the scan tasks it
// serves, what its container scans share, and the record of what it did.
// The query — its catalog cut, session options and engine — is read from
// env.
type fragmentScan struct {
	env   *queryEnv
	node  *Node
	scan  *planner.Scan
	tasks []scanTask
	// keys are the key hashes the scan's predicate pins (pinnedKeys),
	// nil if none: a listing of every shard skips the other shards.
	keys []uint32
	// rec counts the fragment's scan work; next links the query's
	// fragments for shutdown to sum (queryEnv.frags), and span is the
	// fragment's, nil with tracing off.
	rec  scanRecord
	next *fragmentScan
	span *obs.Span
	// plan's result: unpruned containers in output order.
	work []containerWork
	// firstCols are the scan columns a block decodes before selection;
	// the others (allCols is every index) only if a row survives it.
	firstCols, allCols []int
	// file reads a file for a container worker: through the depot, counting
	// it, or from the fetcher pre (nil if it listed nothing), which did.
	file storage.FetchFunc
	pre  *storage.Prefetch
}

// scanColSets returns the columns selection needs — the predicate's on
// the vectorized engine, all of them on the row engine, which stays the
// decode-everything reference the differential tests compare against —
// and the indexes of all scan columns.
func scanColSets(scan *planner.Scan, eng exec.Engine) (first, all []int) {
	all = make([]int, len(scan.Cols))
	for i := range all {
		all[i] = i
	}
	if eng.Row {
		return all, all
	}
	if scan.Pred != nil {
		first = expr.Columns(scan.Pred)
	}
	if len(first) == 0 {
		first = all[:1] // a predicate over no column still needs the block's row count
	}
	return first, all
}

// scanWorker is one scan worker's scratch, pooled on its node between
// fragments. decoded[i][p] is the storage scan column i decodes into when
// its physical class is p, reused from block to block and query to query,
// so a column position that is INTEGER in one query and VARCHAR in the
// next keeps both. A batch leaves the scan either gathered out of it
// into vectors from the node's free list, or taking the vectors with it,
// and then those slots are refilled from the list. arena holds the
// block's predicate results, reset per block.
type scanWorker struct {
	decoded [][types.Bool + 1]*types.Vector // Bool is the last physical class
	arena   expr.Arena
	hash    hashFilterState
}

// pool hands w back to n, unless n holds ScanConcurrency idle workers,
// and its decode vectors to n's free list. In test binaries its arena is
// poisoned as well (types.Poisoning).
func (w *scanWorker) pool(n *Node) {
	for i := range w.decoded {
		n.free.PutVectors(w.decoded[i][:])
		w.decoded[i] = [types.Bool + 1]*types.Vector{}
	}
	w.arena.Reset()
	select {
	case n.scanFree <- w:
	default:
	}
}

// giveBack returns the vectors of a batch n lent to n's free list.
func (n *Node) giveBack(b *types.Batch) {
	n.lent.Add(-int64(len(b.Cols)))
	n.free.PutVectors(b.Cols)
}

// scanContainer reads the needed columns of one container, block by
// block. Its files come through fs.file — in the depot or already in
// flight — and containers already run ScanConcurrency wide, so the
// blocks of one container are decoded and filtered in turn.
func (fs *fragmentScan) scanContainer(ctx context.Context, sc *catalog.StorageContainer, w *scanWorker) ([]*types.Batch, error) {
	scan := fs.scan
	readers, err := storage.OpenColumns(ctx, sc, scan.Cols, fs.file)
	if err != nil {
		return nil, err
	}

	// Merge the delete vectors covering this container — cold containers
	// often carry several.
	var dvLists [][]int64
	for _, dv := range fs.env.snapshots[fs.node.name].DeleteVectorsOf(sc.OID) {
		if fs.env.db.mode == ModeEnterprise && dv.OwnerNode != fs.node.name {
			continue
		}
		data, err := fs.file(ctx, dv.File.Path)
		if err != nil {
			return nil, err
		}
		positions, err := storage.ReadDeleteVector(data)
		if err != nil {
			return nil, err
		}
		dvLists = append(dvLists, positions)
	}
	deletes := storage.NewDeleteSet(dvLists...)
	if fs.scan.Positions {
		fs.env.mu.Lock()
		fs.env.read[sc.OID] = readFrom{sc: sc, node: fs.node}
		fs.env.mu.Unlock()
	}
	// The container's blocks count into st, added to the fragment's
	// record once, whichever way the scan ends.
	st := ScanStats{ContainersScanned: 1}
	defer fs.rec.add(&st)

	// Footer min/max pruning looks at the scanned columns' readers (block
	// boundaries are aligned across a container's columns).
	cols := make([]*rosfile.Reader, len(scan.Cols))
	for ci, name := range scan.Cols {
		cols[ci] = readers[name]
	}
	if len(w.decoded) < len(cols) {
		w.decoded = append(w.decoded, make([][types.Bool + 1]*types.Vector, len(cols)-len(w.decoded))...)
	}
	var out []*types.Batch
	for bi, blk := range cols[0].Footer().Blocks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if scan.Pred != nil && !blockCouldMatch(scan, cols, bi) {
			st.BlocksPruned++
			continue
		}
		batch, err := fs.scanBlock(sc.OID, cols, bi, blk, &deletes, w, &st)
		if err != nil {
			return nil, err
		}
		if batch != nil {
			out = append(out, batch)
		}
	}
	return out, nil
}

// publish writes the fragment's record onto its span, and into the
// fetch/decode/filter accumulator children it opens under it, whose wall
// time is the record's, summed across the fragment's workers. With
// tracing off there is no span and nothing to do.
func (fs *fragmentScan) publish() {
	frag := fs.span
	if frag == nil {
		return
	}
	fs.rec.mu.Lock()
	defer fs.rec.mu.Unlock()
	st := &fs.rec.ScanStats
	frag.AddAttr("shards_pruned", st.ShardsPruned)
	frag.AddAttr("containers_scanned", st.ContainersScanned)
	frag.AddAttr("containers_pruned", st.ContainersPruned)
	frag.AddAttr("blocks_scanned", st.BlocksScanned)
	frag.AddAttr("blocks_pruned", st.BlocksPruned)
	frag.AddAttr("rows_scanned", st.RowsScanned)
	frag.AddAttr("column_blocks_decoded", st.ColumnBlocksDecoded)
	frag.AddAttr("column_blocks_skipped", st.ColumnBlocksSkipped)
	fetch, decode, filter := frag.StartAccum("fetch"), frag.StartAccum("decode"), frag.StartAccum("filter")
	fetch.AddTime(st.IOWait)
	fetch.AddBytes(st.BytesFetched)
	fetch.AddAttr("fetches", st.Fetches)
	fetch.AddAttr("cache_hits", st.CacheHits)
	fetch.AddAttr("cache_misses", st.CacheMisses)
	fetch.AddAttr("coalesced_fetches", st.CoalescedFetches)
	decode.AddTime(st.Decode)
	filter.AddTime(st.Filter)
	fetch.End()
	decode.End()
	filter.End()
}

// scanBlock reads block bi: it drops deleted rows, decodes fs.firstCols,
// applies the predicate, and decodes the remaining columns only if a row
// survives, so a block with no survivor costs its predicate columns and
// nothing else. On the vectorized engine the live positions feed the
// predicate kernels as the initial selection and survivors are copied
// once at the end, into vectors from the node's free list; the row engine
// gathers after each stage. Returns a nil batch when no row survives. The block's counts
// go to st, and its time is split into laps charged to st.Decode or
// st.Filter. A Positions scan
// appends where each survivor is stored: container oid and the block's
// RowStart plus the row's index.
func (fs *fragmentScan) scanBlock(oid catalog.OID, cols []*rosfile.Reader, bi int, blk rosfile.BlockMeta, deletes *storage.DeleteSet, w *scanWorker, st *ScanStats) (*types.Batch, error) {
	scan := fs.scan
	n := int(blk.RowCount)
	w.arena.Reset() // the previous block's selection died with its Gather
	st.BlocksScanned++
	st.RowsScanned += int64(n)
	batch := &types.Batch{Cols: make([]*types.Vector, len(cols))}
	t := time.Now()
	lap := func(acc *time.Duration) {
		now := time.Now()
		*acc += now.Sub(t)
		t = now
	}
	undecoded := int64(len(cols)) // what a block with no survivor skips
	decode := func(which []int) error {
		defer lap(&st.Decode)
		for _, ci := range which {
			if batch.Cols[ci] != nil {
				continue
			}
			slot := &w.decoded[ci][scan.OutSchema[ci].Type.Physical()]
			if *slot == nil {
				*slot = fs.node.free.Vector(scan.OutSchema[ci].Type, colenc.MaxBlockRows)
			}
			v := *slot
			if err := cols[ci].ReadBlockInto(v, bi); err != nil {
				return err
			}
			v.Typ = scan.OutSchema[ci].Type
			batch.Cols[ci] = v
			st.ColumnBlocksDecoded++
			undecoded--
		}
		return nil
	}

	// sel == nil means every row is selected; hasSel distinguishes a real
	// (possibly shorter) selection that still needs gathering.
	var sel []int
	hasSel := false
	if deletes.Len() > 0 {
		live := deletes.LivePositions(blk.RowStart, n)
		lap(&st.Filter)
		if len(live) == 0 {
			st.ColumnBlocksSkipped += undecoded
			return nil, nil
		}
		if len(live) < n {
			sel, hasSel = live, true
		}
	}
	if scan.Pred != nil {
		if err := decode(fs.firstCols); err != nil {
			return nil, err
		}
		s, err := selectRows(fs.env.eng(), scan.Pred, batch, sel, &w.arena)
		lap(&st.Filter)
		if err != nil {
			return nil, err
		}
		if len(s) == 0 {
			st.ColumnBlocksSkipped += undecoded
			return nil, nil
		}
		sel, hasSel = s, len(s) < n
	}
	if err := decode(fs.allCols); err != nil {
		return nil, err
	}
	if hasSel {
		batch = fs.node.free.Gather(batch, sel)
		lap(&st.Filter)
	} else {
		for ci := range cols { // the vectors leave with the batch
			w.decoded[ci][scan.OutSchema[ci].Type.Physical()] = nil
		}
	}
	if scan.Positions {
		oids, pos := fs.node.free.Vector(types.Int64, batch.NumRows()), fs.node.free.Vector(types.Int64, batch.NumRows())
		for i := range batch.NumRows() {
			at := i
			if sel != nil {
				at = sel[i]
			}
			oids.Ints = append(oids.Ints, int64(oid))
			pos.Ints = append(pos.Ints, blk.RowStart+int64(at))
		}
		batch.Cols = append(batch.Cols, oids, pos)
	}
	return batch, nil
}

// blockCouldMatch applies min/max pruning using the footers of every
// scanned column at block index bi (the position index of §2.3 stores
// per-block minimum and maximum values).
func blockCouldMatch(scan *planner.Scan, cols []*rosfile.Reader, bi int) bool {
	return expr.CouldMatch(scan.Pred, func(col int) (types.ColumnStats, bool) {
		if col < 0 || col >= len(cols) || bi >= len(cols[col].Footer().Blocks) {
			return types.ColumnStats{}, false
		}
		blk := cols[col].Footer().Blocks[bi]
		return types.ColumnStats{
			Min:      blk.Min,
			Max:      blk.Max,
			HasNulls: blk.NullCount > 0,
			AllNull:  blk.NullCount == blk.RowCount,
		}, true
	})
}

// selectRows returns the rows among sel (nil = every row of b) that
// satisfy pred: through the vectorized kernels, their result and scratch
// drawn from a, or on the row engine row-at-a-time over the gathered
// candidates.
func selectRows(eng exec.Engine, pred expr.Expr, b *types.Batch, sel []int, a *expr.Arena) ([]int, error) {
	if !eng.Row {
		return a.FilterVec(pred, b, sel, eng.Stats)
	}
	if sel == nil {
		return expr.FilterBatch(pred, b)
	}
	idx, err := expr.FilterBatch(pred, b.Gather(sel))
	for i, j := range idx {
		idx[i] = sel[j]
	}
	return idx, err
}
