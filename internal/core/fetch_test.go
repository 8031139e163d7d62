package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"eon/internal/objstore"
	"eon/internal/resilience"
	"eon/internal/types"
)

// barrier counts requests per key and, once armed with n, parks every
// request until n distinct keys have been requested — so an operation
// that issues its requests in more than one round cannot finish and
// fails on the deadline instead.
type barrier struct {
	mu      sync.Mutex
	want    int
	seen    map[string]int
	release chan struct{}
	// atFirstReturn is how many distinct keys had been requested when the
	// first request returned.
	atFirstReturn int
}

// arm forgets the requests seen so far and parks the coming ones until n
// distinct keys are requested (0: count only).
func (b *barrier) arm(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.want, b.seen, b.release, b.atFirstReturn = n, map[string]int{}, make(chan struct{}), 0
}

// enter counts a request and parks it while the barrier is armed.
func (b *barrier) enter(ctx context.Context, key string) error {
	b.mu.Lock()
	b.seen[key]++
	if b.want > 0 && len(b.seen) == b.want && b.seen[key] == 1 {
		close(b.release)
	}
	parked, release := b.want > 0, b.release
	b.mu.Unlock()
	if parked {
		select {
		case <-release:
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return errors.New("barrier: not every request was issued in one round")
		}
	}
	return nil
}

// leave marks a request's return.
func (b *barrier) leave() {
	b.mu.Lock()
	if b.atFirstReturn == 0 {
		b.atFirstReturn = len(b.seen)
	}
	b.mu.Unlock()
}

// counts returns the distinct keys and the total requests since arm, and
// how many keys had been requested when the first request returned.
func (b *barrier) counts() (distinct, total, atFirstReturn int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, n := range b.seen {
		total += n
	}
	return len(b.seen), total, b.atFirstReturn
}

// barrierStore decorates shared storage with a barrier on its GETs (the
// embedded one) and one on its PUTs. When only is set, requests for keys
// outside that prefix pass straight through, uncounted.
type barrierStore struct {
	objstore.Store
	barrier
	puts barrier
	only string
}

func newBarrierStore(inner objstore.Store) *barrierStore {
	b := &barrierStore{Store: inner}
	b.arm(0)
	b.puts.arm(0)
	return b
}

func (b *barrierStore) Get(ctx context.Context, key string) ([]byte, error) {
	if !strings.HasPrefix(key, b.only) {
		return b.Store.Get(ctx, key)
	}
	if err := b.enter(ctx, key); err != nil {
		return nil, err
	}
	defer b.leave()
	return b.Store.Get(ctx, key)
}

func (b *barrierStore) Put(ctx context.Context, key string, data []byte) error {
	if !strings.HasPrefix(key, b.only) {
		return b.Store.Put(ctx, key, data)
	}
	if err := b.puts.enter(ctx, key); err != nil {
		return err
	}
	defer b.puts.leave()
	return b.Store.Put(ctx, key, data)
}

// newFetchTestDB builds an Eon cluster over a barrierStore, with one
// file per column (no bundling) and no hedged reads, so every GET is one
// file the scan asked for.
func newFetchTestDB(t *testing.T, nodes, shards int) (*DB, *barrierStore) {
	t.Helper()
	store := newBarrierStore(objstore.NewMem())
	rc := resilience.DefaultConfig(objstore.IsRetryable)
	rc.HedgeDelay = 0
	rc.Policy.OpTimeout = time.Minute // the barrier's own deadline reports a stuck scan
	var specs []NodeSpec
	for i := 0; i < nodes; i++ {
		specs = append(specs, NodeSpec{Name: fmt.Sprintf("node%d", i+1)})
	}
	db, err := Create(Config{
		Mode: ModeEon, Nodes: specs, ShardCount: shards,
		Shared: store, Resilience: &rc,
		BundleThreshold: -1, ScanConcurrency: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, store
}

func loadInts(t *testing.T, db *DB, table string, cols []string, rows int, row func(i int) []int64) {
	t.Helper()
	schema := make(types.Schema, len(cols))
	for i, c := range cols {
		schema[i] = types.Column{Name: c, Type: types.Int64}
	}
	batch := types.NewBatch(schema, rows)
	for i := 0; i < rows; i++ {
		r := make(types.Row, len(cols))
		for c, v := range row(i) {
			r[c] = types.NewInt(v)
		}
		batch.AppendRow(r)
	}
	if err := db.LoadRows(table, batch); err != nil {
		t.Fatal(err)
	}
}

func clearDepots(db *DB) {
	for _, n := range db.Nodes() {
		n.cache.Clear(db.Context())
	}
}

// TestColdScanOneRoundTrip is the fetch rule, without timing: a cold
// query — a join of two segmented tables, each several per-column-file
// containers with delete vectors, and a replicated dimension, over 4
// nodes with 2 decode workers per fragment — has every file it reads
// requested before the first GET returns, requests each once, and
// answers as the warm run does. The depot is not what carries a file
// from the fetcher to the scan: the same holds when the session bypasses
// it and when a table is never cached.
func TestColdScanOneRoundTrip(t *testing.T) {
	const q = `SELECT r_name, COUNT(*) AS n, SUM(i_qty) AS qty, SUM(o_total) AS total
		FROM orders JOIN items ON o_id = i_order JOIN region ON o_region = r_id
		WHERE i_qty > 1 GROUP BY r_name ORDER BY r_name`
	for _, variant := range []string{"depot", "bypass", "nevercache"} {
		t.Run(variant, func(t *testing.T) {
			db, store := newFetchTestDB(t, 4, 4)
			s := db.NewSession()
			mustExec(t, s, `CREATE TABLE orders (o_id INTEGER, o_region INTEGER, o_total INTEGER)`)
			mustExec(t, s, `CREATE PROJECTION orders_p AS SELECT * FROM orders ORDER BY o_id SEGMENTED BY HASH(o_id) ALL NODES`)
			mustExec(t, s, `CREATE TABLE items (i_order INTEGER, i_qty INTEGER, i_price INTEGER)`)
			mustExec(t, s, `CREATE PROJECTION items_p AS SELECT * FROM items ORDER BY i_order SEGMENTED BY HASH(i_order) ALL NODES`)
			mustExec(t, s, `CREATE TABLE region (r_id INTEGER, r_name INTEGER)`)
			mustExec(t, s, `CREATE PROJECTION region_p AS SELECT * FROM region ORDER BY r_id UNSEGMENTED ALL NODES`)
			loadInts(t, db, "region", []string{"r_id", "r_name"}, 5, func(i int) []int64 { return []int64{int64(i), int64(100 + i)} })
			for l := 0; l < 3; l++ { // three containers per shard and table
				loadInts(t, db, "orders", []string{"o_id", "o_region", "o_total"}, 200, func(i int) []int64 {
					id := int64(l*200 + i)
					return []int64{id, id % 5, id % 97}
				})
				loadInts(t, db, "items", []string{"i_order", "i_qty", "i_price"}, 600, func(i int) []int64 {
					id := int64(l*600 + i)
					return []int64{id / 3, id % 7, id % 13}
				})
			}
			mustExec(t, s, `DELETE FROM items WHERE i_price = 3`)
			if variant == "nevercache" {
				db.SetNeverCacheTable("items", true)
			}
			want := renderRows(mustQuery(t, s, q)) // warm: loads write through the depot
			if len(want) != 5 {
				t.Fatalf("warm run returned %d groups, want 5", len(want))
			}
			s.BypassCache = variant == "bypass"

			// Cold, counting only: the files this query reads.
			clearDepots(db)
			store.arm(0)
			if got := renderRows(mustQuery(t, s, q)); !reflect.DeepEqual(got, want) {
				t.Fatalf("cold run differs from warm:\n%v\n%v", got, want)
			}
			files, total, _ := store.counts()
			if files < 4*2*3*2 || total != files {
				t.Fatalf("cold run: %d GETs of %d files; want each file once and at least %d files", total, files, 4*2*3*2)
			}

			// Cold again, every GET parked until all of them are in flight.
			clearDepots(db)
			store.arm(files)
			got := renderRows(mustQuery(t, s, q))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("one-round run differs from warm:\n%v\n%v", got, want)
			}
			if distinct, total, atFirstReturn := store.counts(); atFirstReturn != files || distinct != files || total != files {
				t.Errorf("%d of %d files requested before the first GET returned; %d GETs of %d files in all",
					atFirstReturn, files, total, distinct)
			}
			if st := s.LastScanStats(); st.CacheMisses != int64(files) || st.Fetches != st.CacheHits+st.CacheMisses {
				t.Errorf("scan stats count %d misses, %d hits, %d fetches for %d GETs", st.CacheMisses, st.CacheHits, st.Fetches, files)
			}
		})
	}
}

// TestLimitStopsFetching: a LIMIT over a cold table of many containers
// reads ahead no further than the window, and nothing once it returned.
func TestLimitStopsFetching(t *testing.T) {
	db, store := newFetchTestDB(t, 1, 3)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE ev (k INTEGER, v INTEGER)`)
	mustExec(t, s, `CREATE PROJECTION ev_p AS SELECT * FROM ev ORDER BY k SEGMENTED BY HASH(k) ALL NODES`)
	const loads, colFiles = 40, 2
	for l := 0; l < loads; l++ {
		loadInts(t, db, "ev", []string{"k", "v"}, 90, func(i int) []int64 { return []int64{int64(l*90 + i), int64(i % 17)} })
	}

	clearDepots(db)
	store.arm(0)
	if n := mustQuery(t, s, `SELECT k, v FROM ev`).NumRows(); n != loads*90 {
		t.Fatalf("full scan returned %d rows", n)
	}
	full, _, _ := store.counts()
	containers := int(s.LastScanStats().ContainersScanned)
	if full != containers*colFiles || full < 4*ioWidth {
		t.Fatalf("full cold scan read %d files of %d containers; want %d, well over the window", full, containers, containers*colFiles)
	}

	clearDepots(db)
	store.arm(0)
	if n := mustQuery(t, s, `SELECT k, v FROM ev LIMIT 1`).NumRows(); n != 1 {
		t.Fatalf("LIMIT 1 returned %d rows", n)
	}
	_, gets, _ := store.counts()
	// The fetcher runs the window ahead of the furthest file a worker asked
	// for: the containers scanned, plus one a worker had begun to open.
	started := int(s.LastScanStats().ContainersScanned) + db.cfg.ScanConcurrency
	if bound := ioWidth + colFiles*started; gets > bound || gets*2 > full {
		t.Errorf("LIMIT 1 issued %d GETs; want at most window + files of the %d containers started = %d, and under half of %d", gets, started, bound, full)
	}
	time.Sleep(20 * time.Millisecond)
	if _, later, _ := store.counts(); later != gets {
		t.Errorf("GETs kept growing after the query returned: %d -> %d", gets, later)
	}
}
