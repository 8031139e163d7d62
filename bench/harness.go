package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"eon/internal/core"
	"eon/internal/experiments"
	"eon/internal/netsim"
	"eon/internal/objstore"
	"eon/internal/obs"
	"eon/internal/types"
	"eon/internal/workload"
)

// env is one cluster under test with everything the harness knows about
// it from outside: the shared store it was given and what was loaded.
type env struct {
	w      *workloadSpec
	seed   int64
	cfg    core.Config
	db     *core.DB
	mem    *objstore.Mem
	sim    *objstore.Sim
	traced *tracedStore // nil unless the run is traced

	// quiet makes a COPY run alone: it takes the write side, every other
	// op the read side, both before the op's clock starts. With two
	// clients on two cores a COPY's chain of short waits otherwise queues
	// behind the other client's queries, and its latency swings 30% with
	// machine load; single-client workloads never contend on it.
	quiet     sync.RWMutex
	ackMu     sync.Mutex       // guards rows and userBytes
	rows      map[string]int64 // acknowledged rows per table
	userBytes int64            // user bytes acknowledged
}

// userBytesOf is the logical size of a batch as a user would count it:
// 8 bytes per numeric, date or bool value plus the length of each string.
func userBytesOf(b *types.Batch) int64 {
	var n int64
	for _, c := range b.Cols {
		if c.Typ.Physical() == types.Varchar {
			for _, s := range c.Strs {
				n += int64(len(s))
			}
			continue
		}
		n += 8 * int64(c.Len())
	}
	return n
}

func (e *env) load(table string, b *types.Batch) error {
	if err := e.db.LoadRows(table, b); err != nil {
		return err
	}
	e.ack(table, b)
	return nil
}

func (e *env) ack(table string, b *types.Batch) {
	e.ackMu.Lock()
	defer e.ackMu.Unlock()
	e.rows[table] += int64(b.NumRows())
	e.userBytes += userBytesOf(b)
}

// setup builds a cluster, loads the initial data, uploads the catalog
// and runs the warm-up ops. All of it is timed as setup_s; generating
// the data and the op lists is the harness's own work and is not.
func setup(w *workloadSpec, data *dataset, warm [][]op, seed int64, decorate bool) (*env, time.Duration, error) {
	start := time.Now()
	e := &env{w: w, seed: seed, mem: objstore.NewMem(), rows: map[string]int64{}}
	e.sim = objstore.NewSim(e.mem, experiments.SharedStorageSim(seed))
	var store objstore.Store = e.sim
	if decorate {
		e.traced = newTracedStore(e.sim)
		store = e.traced
	}
	nodes := make([]core.NodeSpec, w.nodes)
	for i := range nodes {
		nodes[i] = core.NodeSpec{Name: fmt.Sprintf("node%d", i+1)}
	}
	e.cfg = core.Config{
		Mode: core.ModeEon, Nodes: nodes, ShardCount: w.shards, ReplicationFactor: w.k,
		Shared: store, Net: experiments.ClusterNet(), ExecSlots: 8, Seed: seed,
		ResultCacheBytes: w.resultCacheBytes,
	}
	db, err := core.Create(e.cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: create: %w", err)
	}
	e.db = db
	s := db.NewSession()
	ddl := append(workload.IoT{}.DDL(), tinyDDL...)
	if w.tpchScale > 0 {
		ddl = append(ddl, data.tpch.DDL()...)
	}
	for _, stmt := range ddl {
		if _, err := s.Execute(stmt); err != nil {
			return nil, 0, fmt.Errorf("setup: ddl: %w", err)
		}
	}
	if err := e.load(tinyTable, tinyBatch()); err != nil {
		return nil, 0, fmt.Errorf("setup: load %s: %w", tinyTable, err)
	}
	for _, name := range data.tpchNames {
		if err := e.load(name, data.tpchData[name]); err != nil {
			return nil, 0, fmt.Errorf("setup: load %s: %w", name, err)
		}
	}
	if err := db.SyncMetadata(); err != nil {
		return nil, 0, fmt.Errorf("setup: sync: %w", err)
	}
	for _, cs := range e.runClients(warm, false, 0) {
		if cs.failed > 0 {
			return nil, 0, fmt.Errorf("setup: %d of %d warm-up ops failed: %v", cs.failed, cs.attempted, cs.firstErr)
		}
	}
	return e, time.Since(start), nil
}

// opRecord is the harness's root span of one op, with what a traced
// pass folded out of the program's own profile for it.
type opRecord struct {
	kind       opKind
	tmpl       int
	client     int
	start, end time.Time
	fold       stageTimes
	profile    *obs.Profile // kept for the first few ops only
}

// clientStats is what one closed-loop client measured.
type clientStats struct {
	lat       [][]timing // per template, queries and copies
	maint     [len(opKindNames)][]timing
	attempted int
	failed    int
	firstErr  error
	jobs      int        // mergeout jobs run
	gcDeleted int        // files the scheduled gc calls deleted
	probe     []float64  // machine-speed probe samples, microseconds
	records   []opRecord // decorated runs only
}

func (cs *clientStats) fail(err error) {
	cs.failed++
	if cs.firstErr == nil {
		cs.firstErr = err
	}
}

// profilesKept bounds how many raw program profiles a traced pass keeps
// per client; every op is still folded.
const profilesKept = 64

// runClients runs one closed loop per list, concurrently, each on its
// own session: a client sends its next op only when the previous one
// has returned. A loop still running after cutoff (0: never) stops
// issuing ops, so a badly regressed program ends the run with fewer
// attempted ops instead of hanging it.
func (e *env) runClients(lists [][]op, trace bool, cutoff time.Duration) []clientStats {
	out := make([]clientStats, len(lists))
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = e.runOps(c, lists[c], trace, cutoff)
		}(c)
	}
	wg.Wait()
	return out
}

func (e *env) runOps(client int, ops []op, trace bool, cutoff time.Duration) clientStats {
	cs := clientStats{lat: make([][]timing, len(e.w.templates))}
	sess := e.db.NewSession()
	sess.Trace = trace
	ctx := e.db.Context()
	loopStart := time.Now()
	pr := newProbe()
	var sinceProbe time.Duration
	for _, o := range ops {
		if cutoff > 0 && time.Since(loopStart) > cutoff {
			break
		}
		if sinceProbe >= probeEvery {
			pr.sample()
			sinceProbe = 0
		}
		if o.kind == opQuery && e.w.coldReads {
			for _, n := range e.db.Nodes() {
				n.Cache().Clear(ctx)
			}
		}
		unlock := e.quiet.RUnlock
		if o.kind == opCopy {
			e.quiet.Lock()
			unlock = e.quiet.Unlock
		} else {
			e.quiet.RLock()
		}
		var res *core.Result
		var err error
		cpu0 := cpuTime()
		start := time.Now()
		switch o.kind {
		case opQuery:
			res, err = sess.QueryArgs(e.w.templates[o.tmpl].sql, o.args...)
		case opCopy:
			err = e.db.LoadRows(readingsTable, o.batch)
		case opMergeout:
			var st core.MergeoutStats
			st, err = e.db.RunMergeout()
			cs.jobs += st.Jobs
		case opSync:
			err = e.db.SyncMetadata()
		case opGC:
			var n int
			n, err = e.db.RunGC()
			cs.gcDeleted += n
		}
		end := time.Now()
		t := timing{wall: end.Sub(start), cpu: cpuTime() - cpu0}
		unlock()
		sinceProbe += t.wall

		// Everything below is outside the timed region.
		switch o.kind {
		case opQuery:
			cs.attempted++
			cs.lat[o.tmpl] = append(cs.lat[o.tmpl], t)
			if err != nil {
				cs.fail(fmt.Errorf("%s%v: %w", e.w.templates[o.tmpl].name, o.args, err))
			} else if got := res.Rows(); !sameRows(got, o.want) {
				cs.fail(fmt.Errorf("%s%v: got %v, reference %v", e.w.templates[o.tmpl].name, o.args, got, o.want))
			}
		case opCopy:
			cs.attempted++
			cs.lat[o.tmpl] = append(cs.lat[o.tmpl], t)
			if err != nil {
				cs.fail(fmt.Errorf("copy: %w", err))
			} else {
				e.ack(readingsTable, o.batch)
			}
		default:
			cs.maint[o.kind] = append(cs.maint[o.kind], t)
			if err != nil {
				cs.fail(fmt.Errorf("%s: %w", opKindNames[o.kind], err))
			}
		}
		if e.traced != nil {
			rec := opRecord{kind: o.kind, tmpl: o.tmpl, client: client, start: start, end: end}
			if trace && o.kind == opQuery {
				p := sess.LastProfile()
				rec.fold = foldProfile(p)
				if len(cs.records) < profilesKept {
					rec.profile = p
				}
			}
			cs.records = append(cs.records, rec)
		}
	}
	cs.probe = pr.samples
	return cs
}

// counters is a point-in-time reading of every before/after source.
type counters struct {
	at   time.Time
	cpu  time.Duration
	mem  runtime.MemStats
	sim  objstore.Stats
	reg  obs.Snapshot
	net  netsim.Stats
	objN int // decorator calls recorded so far
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (e *env) read() counters {
	c := counters{at: time.Now(), cpu: cpuTime(), sim: e.sim.Stats(), reg: e.db.Metrics(), net: e.cfg.Net.Stats()}
	if e.traced != nil {
		c.objN = e.traced.count()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// phase is one measured closed loop with its before/after readings.
type phase struct {
	clients       []clientStats
	before, after counters
	finalMaint    [len(opKindNames)][]timing // the sync+gc after the loop
	liveBytes     int64                      // on shared storage after the final gc
	putBytes      int64                      // PUT to shared storage since the cluster was created
	userBytes     int64
}

// measure runs the measured op lists and then the final sync and gc, so
// space_amp sees only live files.
func (e *env) measure(lists [][]op, trace bool, cutoff time.Duration) (*phase, error) {
	runtime.GC()
	p := &phase{before: e.read()}
	p.clients = e.runClients(lists, trace, cutoff)
	p.after = e.read()
	for _, k := range []opKind{opSync, opGC} {
		cpu0, start := cpuTime(), time.Now()
		var err error
		if k == opSync {
			err = e.db.SyncMetadata()
		} else {
			_, err = e.db.RunGC()
		}
		if err != nil {
			return nil, fmt.Errorf("final %s: %w", opKindNames[k], err)
		}
		p.finalMaint[k] = append(p.finalMaint[k], timing{wall: time.Since(start), cpu: cpuTime() - cpu0})
	}
	p.liveBytes = e.mem.TotalBytes()
	p.putBytes = e.sim.Stats().BytesWritten
	p.userBytes = e.userBytes
	return p, nil
}

// reviveResult is one shutdown -> revive -> first correct answers cycle.
type reviveResult struct {
	total      time.Duration
	firstQuery time.Duration
	gets       int64
	readBytes  int64
	err        error
}

// revive shuts the cluster down, revives it from the same shared store
// and checks every table's row count against what was acknowledged.
func (e *env) revive() reviveResult {
	before := e.sim.Stats()
	start := time.Now()
	r := reviveResult{}
	r.err = func() error {
		if err := e.db.Shutdown(); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		cfg := e.cfg
		cfg.Nodes = nil // membership comes from shared storage
		db, err := core.Revive(cfg)
		if err != nil {
			return fmt.Errorf("revive: %w", err)
		}
		e.db = db
		s := db.NewSession()
		first := true
		for _, table := range sortedKeys(e.rows) {
			q := time.Now()
			res, err := s.Query("SELECT COUNT(*) FROM " + table)
			if first {
				r.firstQuery, first = time.Since(q), false
			}
			if err != nil {
				return fmt.Errorf("count %s: %w", table, err)
			}
			if got := res.Batch.Cols[0].Ints[0]; got != e.rows[table] {
				return fmt.Errorf("count %s: got %d, acknowledged %d", table, got, e.rows[table])
			}
		}
		return nil
	}()
	r.total = time.Since(start)
	after := e.sim.Stats()
	r.gets = after.Gets - before.Gets
	r.readBytes = after.BytesRead - before.BytesRead
	return r
}

// reviveAll runs the run's revive cycles; each is one more attempted op
// in s.
func (e *env) reviveAll(s *summary) []reviveResult {
	var rs []reviveResult
	for i := 0; i < revives; i++ {
		r := e.revive()
		s.attempted++
		if r.err != nil {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = r.err
			}
		}
		rs = append(rs, r)
	}
	return rs
}
