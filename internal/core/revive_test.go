package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"eon/internal/catalog"
	"eon/internal/cluster"
	"eon/internal/objstore"
	"eon/internal/resilience"
)

// hookStore hands every PUT to onPut first; an error from it is the
// PUT's outcome.
type hookStore struct {
	objstore.Store
	onPut func(key string, data []byte) error
}

func (h *hookStore) Put(ctx context.Context, key string, data []byte) error {
	if h.onPut != nil {
		if err := h.onPut(key, data); err != nil {
			return err
		}
	}
	return h.Store.Put(ctx, key, data)
}

// plainResilience is the resilience layer with no hedged reads and no
// retries, so every request the store sees is one the code asked for.
func plainResilience() *resilience.Config {
	rc := resilience.DefaultConfig(objstore.IsRetryable)
	rc.HedgeDelay = 0
	rc.Policy.MaxAttempts = 1
	rc.Policy.OpTimeout = time.Minute // a barrier's own deadline reports a stuck operation
	return &rc
}

// reviveHistory builds a 3-node cluster over store and gives it a
// history: commits single-row inserts with a mergeout and a sync every
// 40th, and checkpoints every few commits.
func reviveHistory(t *testing.T, store objstore.Store, commits int) *DB {
	t.Helper()
	db, err := Create(Config{
		Mode: ModeEon, Nodes: []NodeSpec{{Name: "node1"}, {Name: "node2"}, {Name: "node3"}},
		ShardCount: 3, Shared: store, Resilience: plainResilience(), Seed: 11,
		CheckpointThreshold: 12 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (id INTEGER, v VARCHAR)`)
	for i := 0; i < commits; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row%d')`, i, i))
		if i%40 == 39 {
			if _, err := db.RunMergeout(); err != nil {
				t.Fatal(err)
			}
			if err := db.SyncMetadata(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func countRows(t *testing.T, db *DB, table string) int64 {
	t.Helper()
	return mustQuery(t, db.NewSession(), `SELECT COUNT(*) FROM `+table).Row(t, 0)[0].I
}

// uploadsOf lists one incarnation's catalog uploads per node, split into
// checkpoint and log versions.
func uploadsOf(t *testing.T, store objstore.Store, inc cluster.IncarnationID, node string) (prefix string, ckpts, txns []uint64) {
	t.Helper()
	prefix = fmt.Sprintf("metadata/%s/%s/", inc, node)
	listed, err := store.List(context.Background(), prefix)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range listed {
		switch kind, v, _ := catalog.ParseCatalogFile(o.Key); kind {
		case "ckpt":
			ckpts = append(ckpts, v)
		case "txn":
			txns = append(txns, v)
		}
	}
	return prefix, ckpts, txns
}

// TestReviveRoundTrips is revive's I/O shape, without timing: over a
// history of 240 commits with mergeouts, syncs and several checkpoints
// per node, revive reads the commit point and then, for every node at
// once, exactly the newest checkpoint at or below the truncation version
// and the logs after it — each once, all in flight before the first
// returns, nothing older — and the new incarnation's prefix holds a
// loadable truncation checkpoint for every node before the new commit
// point is written.
func TestReviveRoundTrips(t *testing.T) {
	mem := objstore.NewMem()
	sim := objstore.NewSim(mem, objstore.SimConfig{}) // counts requests, models nothing
	store := newBarrierStore(sim)
	store.only = "metadata/"
	db := reviveHistory(t, store, 240)
	if err := db.Shutdown(); err != nil {
		t.Fatal(err)
	}
	version := db.TruncationVersion()

	want := map[string]bool{}
	for _, n := range db.Nodes() {
		prefix, ckpts, txns := uploadsOf(t, mem, db.Incarnation(), n.name)
		var newest uint64
		for _, v := range ckpts {
			if v <= version && v > newest {
				newest = v
			}
		}
		if len(ckpts) < 3 || len(txns) < 200 {
			t.Fatalf("%s uploaded %d checkpoints and %d logs; the history is too short to tell", n.name, len(ckpts), len(txns))
		}
		want[prefix+catalog.CkptFileName(newest)] = true
		for v := newest + 1; v <= version; v++ {
			want[prefix+catalog.TxnFileName(v)] = true
		}
		if tail := int(version - newest); tail == 0 || tail >= ioWidth {
			t.Fatalf("%s: %d logs after its newest checkpoint; want some, and fewer than one round holds", n.name, tail)
		}
	}

	hook := &hookStore{Store: store}
	hook.onPut = func(key string, data []byte) error {
		if _, ok := cluster.InfoSeq(key); !ok {
			return nil
		}
		info, err := cluster.ParseInfo(data)
		if err != nil {
			return err
		}
		for _, n := range db.Nodes() {
			ckpt, err := mem.Get(context.Background(), fmt.Sprintf("metadata/%s/%s/%s", info.Incarnation, n.name, catalog.CkptFileName(version)))
			if err != nil {
				t.Errorf("commit point written before %s's checkpoint: %v", n.name, err)
				continue
			}
			if snap, _, err := catalog.DecodeCheckpoint(ckpt); err != nil || snap.Version() != version {
				t.Errorf("%s's checkpoint under the new incarnation: %v", n.name, err)
			}
		}
		return nil
	}
	store.arm(len(want))
	before := sim.Stats()
	db2, err := Revive(Config{Shared: hook, Resilience: plainResilience()})
	if err != nil {
		t.Fatal(err)
	}
	distinct, total, atFirstReturn := store.counts()
	if distinct != len(want) || total != len(want) || atFirstReturn != len(want) {
		t.Errorf("revive read %d catalog files in %d GETs, %d requested when the first returned; want %d, each once, in one round",
			distinct, total, atFirstReturn, len(want))
	}
	for key := range store.seen {
		if !want[key] {
			t.Errorf("revive read %s, which is not the newest checkpoint or its tail", key)
		}
	}
	if st := sim.Stats(); st.Gets-before.Gets != int64(len(want))+1 || st.Lists-before.Lists != int64(len(db.Nodes()))+1 {
		t.Errorf("revive issued %d GETs and %d LISTs; want %d (files + commit point) and %d (nodes + commit point)",
			st.Gets-before.Gets, st.Lists-before.Lists, len(want)+1, len(db.Nodes())+1)
	}
	store.arm(0)
	if got := countRows(t, db2, "t"); got != 240 {
		t.Errorf("revived count = %d, want 240", got)
	}
}

// TestReviveTwice: three shutdown -> revive cycles cost what one does.
// Row counts hold; a shutdown after a revive uploads the files written
// since, not the history; the superseded incarnation's uploads and commit
// points are on the GC queue, never deleted inline, and gone after RunGC.
func TestReviveTwice(t *testing.T) {
	mem := objstore.NewMem()
	store := newBarrierStore(mem)
	store.only = "metadata/"
	db := reviveHistory(t, store, 120)
	rows := int64(120)
	for cycle := 1; cycle <= 3; cycle++ {
		store.puts.arm(0)
		if err := db.Shutdown(); err != nil {
			t.Fatalf("cycle %d: shutdown: %v", cycle, err)
		}
		// Every node logs every commit; only the last incarnation's two
		// inserts are new.
		if _, puts, _ := store.puts.counts(); cycle > 1 && puts != 2*len(db.Nodes()) {
			t.Errorf("cycle %d: shutdown PUT %d catalog files, want %d", cycle, puts, 2*len(db.Nodes()))
		}
		old := db
		oldPrefix, ckpts, txns := uploadsOf(t, mem, old.Incarnation(), "node1")
		var err error
		if db, err = Revive(Config{Shared: store, Resilience: plainResilience()}); err != nil {
			t.Fatalf("cycle %d: revive: %v", cycle, err)
		}
		if got := countRows(t, db, "t"); got != rows {
			t.Fatalf("cycle %d: revived count = %d, want %d", cycle, got, rows)
		}
		if _, c, x := uploadsOf(t, mem, old.Incarnation(), "node1"); len(c) != len(ckpts) || len(x) != len(txns) {
			t.Errorf("cycle %d: revive deleted the old incarnation's uploads inline", cycle)
		}
		if pending := db.PendingDeletes(); pending < len(db.Nodes())*(len(ckpts)+len(txns)) {
			t.Errorf("cycle %d: %d deletes queued, fewer than the old incarnation's uploads", cycle, pending)
		}
		if _, err := db.RunGC(); err != nil {
			t.Fatal(err)
		}
		if left, _ := mem.List(context.Background(), strings.TrimSuffix(oldPrefix, "node1/")); len(left) != 0 {
			t.Errorf("cycle %d: %d objects left under the old incarnation after RunGC", cycle, len(left))
		}
		if _, keys, err := cluster.ReadInfo(context.Background(), mem); err != nil || len(keys) != 1 {
			t.Errorf("cycle %d: commit points on shared storage = %v (%v), want exactly one", cycle, keys, err)
		}
		for _, n := range db.Nodes() {
			files, _ := n.catalog.Persister().ListFiles(context.Background())
			if len(files) != 1 {
				t.Errorf("cycle %d: %s's catalog directory holds %d files after revive, want the truncation checkpoint alone", cycle, n.name, len(files))
			}
		}
		s := db.NewSession()
		for i := 0; i < 2; i++ {
			mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'again')`, 1000*cycle+i))
			rows++
		}
	}
}

// TestReviveFallsBackToOlderCheckpoint: when a node's newest checkpoint
// on shared storage does not decode, it replays from the one before and
// the longer tail.
func TestReviveFallsBackToOlderCheckpoint(t *testing.T) {
	ctx := context.Background()
	mem := objstore.NewMem()
	store := newBarrierStore(mem)
	store.only = "metadata/"
	db := reviveHistory(t, store, 120)
	if err := db.Shutdown(); err != nil {
		t.Fatal(err)
	}
	older := map[string]bool{}
	for _, n := range db.Nodes() {
		prefix, ckpts, _ := uploadsOf(t, mem, db.Incarnation(), n.name)
		if len(ckpts) < 2 {
			t.Fatalf("%s uploaded %d checkpoints, need two", n.name, len(ckpts))
		}
		newest := prefix + catalog.CkptFileName(ckpts[len(ckpts)-1])
		body, err := mem.Get(ctx, newest)
		if err != nil {
			t.Fatal(err)
		}
		// Shared storage never overwrites: delete, then put half of it.
		if err := mem.Delete(ctx, newest); err != nil {
			t.Fatal(err)
		}
		if err := mem.Put(ctx, newest, body[:len(body)/2]); err != nil {
			t.Fatal(err)
		}
		older[prefix+catalog.CkptFileName(ckpts[len(ckpts)-2])] = true
	}
	store.arm(0)
	db2, err := Revive(Config{Shared: store, Resilience: plainResilience()})
	if err != nil {
		t.Fatal(err)
	}
	if got := countRows(t, db2, "t"); got != 120 {
		t.Errorf("revived count = %d, want 120", got)
	}
	for key := range older {
		if store.seen[key] != 1 {
			t.Errorf("revive read %s %d times, want once", key, store.seen[key])
		}
	}
}

// TestSyncUploadsConcurrently: a sync has every unsynced file of every
// node in flight together, and a round in which one PUT fails records
// nothing, so the retry uploads the rest and the interval never claims a
// log whose predecessor did not arrive.
func TestSyncUploadsConcurrently(t *testing.T) {
	mem := objstore.NewMem()
	store := newBarrierStore(mem)
	store.only = "metadata/"
	hook := &hookStore{Store: store}
	db, err := Create(Config{
		Mode: ModeEon, Nodes: []NodeSpec{{Name: "node1"}, {Name: "node2"}, {Name: "node3"}},
		ShardCount: 3, Shared: hook, Resilience: plainResilience(), Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	setupSales(t, db, 30)
	if err := db.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	for i := 0; i < 8; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO sales VALUES (%d, 'zoe', 1.5, 'east')`, 100+i))
	}
	unsynced := 0
	for _, n := range db.Nodes() {
		files, _ := n.catalog.Persister().ListFiles(db.Context())
		unsynced += len(files) - len(n.syncSeen)
	}
	if unsynced < 8*len(db.Nodes()) {
		t.Fatalf("%d unsynced files, want at least %d", unsynced, 8*len(db.Nodes()))
	}

	// One PUT fails: nothing is recorded for any file of that node.
	n2, _ := db.Node("node2")
	ivBefore, seenBefore := n2.SyncInterval(), len(n2.syncSeen)
	boom := errors.New("injected PUT failure")
	victim := db.metadataPrefix("node2") + catalog.TxnFileName(n2.catalog.Version()-3)
	hook.onPut = func(key string, _ []byte) error {
		if key == victim {
			return boom
		}
		return nil
	}
	if err := db.SyncMetadata(); !errors.Is(err, boom) {
		t.Fatalf("sync with a failing PUT = %v, want the injected failure", err)
	}
	if n2.SyncInterval() != ivBefore || len(n2.syncSeen) != seenBefore {
		t.Errorf("failed sync advanced node2 to %+v with %d files seen (was %+v, %d)", n2.SyncInterval(), len(n2.syncSeen), ivBefore, seenBefore)
	}
	if db.TruncationVersion() >= n2.catalog.Version() {
		t.Errorf("truncation version %d reached the unsynced tail", db.TruncationVersion())
	}

	// The retry: every file still unsynced is requested before one returns.
	hook.onPut = nil
	unsynced = 0
	for _, n := range db.Nodes() {
		files, _ := n.catalog.Persister().ListFiles(db.Context())
		unsynced += len(files) - len(n.syncSeen)
	}
	store.puts.arm(unsynced)
	if err := db.SyncMetadata(); err != nil {
		t.Fatalf("retried sync: %v", err)
	}
	if distinct, total, atFirstReturn := store.puts.counts(); distinct != unsynced || total != unsynced || atFirstReturn != unsynced {
		t.Errorf("sync PUT %d files in %d requests, %d in flight when the first returned; want %d, each once, together",
			distinct, total, atFirstReturn, unsynced)
	}
	store.puts.arm(0)
	if db.TruncationVersion() != n2.catalog.Version() {
		t.Errorf("truncation version %d after the retry, want %d", db.TruncationVersion(), n2.catalog.Version())
	}
}

// TestCommitPointCrashSweep crashes a sync -> shutdown -> revive script at
// every shared-storage request in turn: from that request on the store
// fails everything, which is what a process that dies there looks like
// from shared storage. Whatever was left behind must revive: with every
// row a completed sync acknowledged, from the new commit point or the
// previous one, and the revived cluster must itself shut down and revive
// again.
func TestCommitPointCrashSweep(t *testing.T) {
	// Each revive runs a day after the one before: a crashed cluster's
	// lease has run out.
	days := func(n int) func() time.Time {
		return func() time.Time { return time.Now().Add(time.Duration(n) * 24 * time.Hour) }
	}
	requestsOf := func(st objstore.Stats) int64 { return st.Gets + st.Puts + st.Lists + st.Deletes }
	const never = int64(1) << 62
	var script int64 // requests the fault-free script issues; counted by the first pass
	for crashAt := int64(-1); crashAt < script; crashAt++ {
		mem := objstore.NewMem()
		faults := &objstore.FaultSchedule{}
		sim := objstore.NewSim(mem, objstore.SimConfig{Faults: faults})
		db := reviveHistory(t, sim, 12)
		if err := db.SyncMetadata(); err != nil {
			t.Fatal(err)
		}
		durable := int64(12)
		mustExec(t, db.NewSession(), `INSERT INTO t VALUES (500, 'unsynced')`)

		// The simulator numbers requests from the cluster's first.
		setup := requestsOf(sim.Stats())
		from := never
		if crashAt >= 0 {
			from = setup + crashAt
		}
		faults.ThrottleBursts = []objstore.OpRange{{From: from, To: never}}
		func() {
			if db.SyncMetadata() != nil {
				return
			}
			durable++
			if db.Shutdown() != nil {
				return
			}
			_, _ = Revive(Config{Shared: sim, Resilience: plainResilience(), Now: days(1)})
		}()
		if crashAt < 0 {
			// The fault-free pass sizes the sweep, and is itself the crash
			// right after a revive, before the new incarnation's first sync.
			if script = requestsOf(sim.Stats()) - setup; sim.Stats().Throttled != 0 || durable != 13 {
				t.Fatalf("the fault-free script failed: %+v", sim.Stats())
			}
		}

		rdb, err := Revive(Config{Shared: mem, Now: days(2)})
		if err != nil {
			t.Fatalf("crash at request %d of %d: the storage no longer revives: %v", crashAt, script, err)
		}
		rows := countRows(t, rdb, "t")
		if rows < durable || rows > 13 {
			t.Fatalf("crash at request %d of %d: revived %d rows, %d were acknowledged durable", crashAt, script, rows, durable)
		}
		if err := rdb.Shutdown(); err != nil {
			t.Fatalf("crash at request %d: shutdown after revive: %v", crashAt, err)
		}
		if rdb, err = Revive(Config{Shared: mem, Now: days(3)}); err != nil {
			t.Fatalf("crash at request %d: second revive: %v", crashAt, err)
		}
		if got := countRows(t, rdb, "t"); got != rows {
			t.Fatalf("crash at request %d: second revive has %d rows, the first had %d", crashAt, got, rows)
		}
	}
	if script < 20 {
		t.Fatalf("the script issued %d requests; the sweep is vacuous", script)
	}
}

// TestReviveObservable: a revived cluster has what a created one has —
// every v_monitor table answers, every metric name registered after
// Create is registered again, and the per-node catalog.version gauges read
// the replayed catalogs.
func TestReviveObservable(t *testing.T) {
	mem := objstore.NewMem()
	db := reviveHistory(t, mem, 45)
	created := db.Metrics()
	tables := db.sysTables.Names()
	if len(tables) == 0 {
		t.Fatal("a created cluster lists no v_monitor tables")
	}
	if err := db.Shutdown(); err != nil {
		t.Fatal(err)
	}
	rdb, err := Revive(Config{Shared: mem, Resilience: plainResilience()})
	if err != nil {
		t.Fatal(err)
	}
	got := rdb.Metrics()
	if len(got.Counters) == 0 || len(got.Gauges) == 0 {
		t.Fatalf("revived Metrics() = %d counters, %d gauges", len(got.Counters), len(got.Gauges))
	}
	for name := range created.Counters {
		if _, ok := got.Counters[name]; !ok {
			t.Errorf("counter %s missing after revive", name)
		}
	}
	for name := range created.Gauges {
		if _, ok := got.Gauges[name]; !ok {
			t.Errorf("gauge %s missing after revive", name)
		}
	}
	for _, n := range rdb.Nodes() {
		want := int64(n.catalog.Version())
		if v := got.Gauges["node."+n.name+".catalog.version"]; want == 0 || v != want {
			t.Errorf("%s catalog.version gauge = %d, catalog at %d", n.name, v, want)
		}
	}
	s := rdb.NewSession()
	for _, name := range tables {
		if _, err := s.Query("SELECT COUNT(*) FROM " + name); err != nil {
			t.Errorf("%s after revive: %v", name, err)
		}
	}
}
