package cache

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"eon/internal/udfs"
)

func newTestCache(capacity int64) *Cache {
	return New(udfs.NewMemFS(), "cache", capacity)
}

// countingFetcher returns data of the requested size and counts calls.
type countingFetcher struct {
	data  map[string][]byte
	calls int
}

func (f *countingFetcher) fetch(ctx context.Context, path string) ([]byte, error) {
	f.calls++
	d, ok := f.data[path]
	if !ok {
		return nil, errors.New("no such object")
	}
	return d, nil
}

func TestGetMissThenHit(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(1024)
	f := &countingFetcher{data: map[string][]byte{"a": []byte("hello")}}

	got, err := c.Get(ctx, "a", f.fetch, false)
	if err != nil || string(got) != "hello" {
		t.Fatalf("get = %q, %v", got, err)
	}
	got, err = c.Get(ctx, "a", f.fetch, false)
	if err != nil || string(got) != "hello" {
		t.Fatalf("second get = %q, %v", got, err)
	}
	if f.calls != 1 {
		t.Errorf("fetcher called %d times, want 1", f.calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(10)
	f := &countingFetcher{data: map[string][]byte{
		"a": make([]byte, 4), "b": make([]byte, 4), "c": make([]byte, 4),
	}}
	c.Get(ctx, "a", f.fetch, false)
	c.Get(ctx, "b", f.fetch, false)
	c.Get(ctx, "a", f.fetch, false) // touch a, making b the LRU
	c.Get(ctx, "c", f.fetch, false) // evicts b
	if !c.Contains("a") || !c.Contains("c") {
		t.Error("a and c should be cached")
	}
	if c.Contains("b") {
		t.Error("b should have been evicted as LRU")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestOversizeFileNotAdmitted(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(4)
	f := &countingFetcher{data: map[string][]byte{"big": make([]byte, 100)}}
	got, err := c.Get(ctx, "big", f.fetch, false)
	if err != nil || len(got) != 100 {
		t.Fatalf("oversize read must still succeed: %v", err)
	}
	if c.Contains("big") {
		t.Error("oversize file must not be admitted")
	}
}

func TestPutWriteThrough(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(100)
	if err := c.Put(ctx, "loaded", []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if !c.Contains("loaded") {
		t.Error("write-through file should be cached")
	}
	f := &countingFetcher{data: map[string][]byte{}}
	got, err := c.Get(ctx, "loaded", f.fetch, false)
	if err != nil || string(got) != "xyz" || f.calls != 0 {
		t.Errorf("cached read = %q calls=%d err=%v", got, f.calls, err)
	}
}

func TestBypassPerCall(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(100)
	f := &countingFetcher{data: map[string][]byte{"a": []byte("v")}}
	c.Get(ctx, "a", f.fetch, true)
	if c.Contains("a") {
		t.Error("bypassed get must not admit")
	}
}

func TestShapingPolicyBypass(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(100)
	c.SetPolicy(func(path string) Policy {
		if path == "never" {
			return PolicyBypass
		}
		return PolicyDefault
	})
	f := &countingFetcher{data: map[string][]byte{"never": []byte("v"), "ok": []byte("v")}}
	c.Get(ctx, "never", f.fetch, false)
	c.Get(ctx, "ok", f.fetch, false)
	if c.Contains("never") {
		t.Error("never-cache policy violated")
	}
	if !c.Contains("ok") {
		t.Error("default policy file should cache")
	}
	if err := c.Put(ctx, "never", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if c.Contains("never") {
		t.Error("write-through must respect bypass policy")
	}
}

func TestPinnedNotEvicted(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(10)
	c.SetPolicy(func(path string) Policy {
		if path == "pinned" {
			return PolicyPin
		}
		return PolicyDefault
	})
	c.Put(ctx, "pinned", make([]byte, 6))
	f := &countingFetcher{data: map[string][]byte{"x": make([]byte, 4), "y": make([]byte, 4)}}
	c.Get(ctx, "x", f.fetch, false)
	c.Get(ctx, "y", f.fetch, false) // must evict x, not pinned
	if !c.Contains("pinned") {
		t.Error("pinned file evicted")
	}
	if c.Contains("x") {
		t.Error("x should have been evicted")
	}
}

func TestAdmitFailsWhenAllPinned(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(10)
	c.SetPolicy(func(path string) Policy {
		if path == "p1" || path == "p2" {
			return PolicyPin
		}
		return PolicyDefault
	})
	c.Put(ctx, "p1", make([]byte, 5))
	c.Put(ctx, "p2", make([]byte, 5))
	if err := c.Put(ctx, "new", make([]byte, 5)); err == nil {
		t.Error("admit should fail when pinned bytes block eviction")
	}
}

func TestDrop(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(100)
	c.Put(ctx, "a", []byte("v"))
	c.Drop(ctx, "a")
	if c.Contains("a") {
		t.Error("dropped file still present")
	}
	c.Drop(ctx, "missing") // must not panic
}

func TestClear(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(100)
	c.Put(ctx, "a", []byte("1"))
	c.Put(ctx, "b", []byte("2"))
	c.Clear(ctx)
	st := c.Stats()
	if st.Files != 0 || st.BytesCached != 0 {
		t.Errorf("after clear: %+v", st)
	}
}

func TestMostRecentlyUsedBudget(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(100)
	for i := 0; i < 5; i++ {
		c.Put(ctx, fmt.Sprintf("f%d", i), make([]byte, 10))
	}
	// MRU order is f4, f3, f2, f1, f0. Budget of 25 fits two files.
	got := c.MostRecentlyUsed(25)
	if len(got) != 2 || got[0] != "f4" || got[1] != "f3" {
		t.Errorf("MRU list = %v", got)
	}
	all := c.MostRecentlyUsed(1000)
	if len(all) != 5 {
		t.Errorf("full MRU = %v", all)
	}
}

func TestPeerWarming(t *testing.T) {
	ctx := context.Background()
	// Peer has a warm cache; the new node warms from the peer's MRU list.
	peer := newTestCache(100)
	peer.Put(ctx, "hot1", []byte("aaaa"))
	peer.Put(ctx, "hot2", []byte("bbbb"))

	newNode := newTestCache(100)
	list := peer.MostRecentlyUsed(newNode.Capacity())
	warmed := newNode.Warm(ctx, list, func(ctx context.Context, path string) ([]byte, error) {
		// Fetch from the peer itself (§5.2: "fetch the files from shared
		// storage or from the peer").
		if data, ok := peer.ReadCached(ctx, path); ok {
			return data, nil
		}
		return nil, errors.New("peer miss")
	}, 4)
	if warmed != 2 {
		t.Fatalf("warmed %d files", warmed)
	}
	if !newNode.Contains("hot1") || !newNode.Contains("hot2") {
		t.Error("warming incomplete")
	}
	// The peer's most recent file should also be most recent on the new
	// node.
	if got := newNode.MostRecentlyUsed(1000); got[0] != "hot2" {
		t.Errorf("warmed MRU order = %v", got)
	}
}

func TestWarmSkipsFailures(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(100)
	warmed := c.Warm(ctx, []string{"ok", "broken"}, func(ctx context.Context, path string) ([]byte, error) {
		if path == "broken" {
			return nil, errors.New("fetch failed")
		}
		return []byte("v"), nil
	}, 1)
	if warmed != 1 || !c.Contains("ok") || c.Contains("broken") {
		t.Errorf("warm with failure: warmed=%d", warmed)
	}
}

func TestReadCached(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(100)
	c.Put(ctx, "a", []byte("data"))
	got, ok := c.ReadCached(ctx, "a")
	if !ok || string(got) != "data" {
		t.Error("readcached should serve without fetch")
	}
	if _, ok := c.ReadCached(ctx, "nope"); ok {
		t.Error("missing file should not read")
	}
	// ReadCached must not perturb hit/miss stats.
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("stats perturbed: %+v", st)
	}
}

func TestImmutableReAdmitIsNoop(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(100)
	c.Put(ctx, "a", []byte("v1"))
	if err := c.Put(ctx, "a", []byte("v2")); err != nil {
		t.Fatalf("re-put of immutable file should be a no-op, got %v", err)
	}
	got, _ := c.ReadCached(ctx, "a")
	if string(got) != "v1" {
		t.Error("file contents must never change")
	}
}

// TestReadsSurviveEvictionAndDrop: Get hands out the local filesystem's
// view of an immutable file, so bytes read on a hit stay what they were
// after the entry is evicted, dropped or the cache cleared; a miss and the
// hit that follows return equal bytes; and the cache keeps its own copy,
// whatever the fetcher's buffer does afterwards.
func TestReadsSurviveEvictionAndDrop(t *testing.T) {
	ctx := context.Background()
	c := newTestCache(10)
	src := []byte("aaaaaa")
	f := &countingFetcher{data: map[string][]byte{"a": src, "b": []byte("bbbbbb"), "c": []byte("cccc")}}

	miss, err := c.Get(ctx, "a", f.fetch, false)
	if err != nil {
		t.Fatal(err)
	}
	hit, outcome, err := c.GetTracked(ctx, "a", f.fetch, false)
	if err != nil || outcome != OutcomeHit {
		t.Fatalf("second get: outcome %v, err %v", outcome, err)
	}
	if string(miss) != "aaaaaa" || string(hit) != string(miss) {
		t.Fatalf("miss read %q, hit read %q", miss, hit)
	}
	src[0] = 'z' // the fetcher's buffer is not the cached file
	if again, _ := c.Get(ctx, "a", f.fetch, false); string(again) != "aaaaaa" {
		t.Errorf("cached file follows the fetcher's buffer: %q", again)
	}
	src[0] = 'a'

	if _, err := c.Get(ctx, "b", f.fetch, false); err != nil { // 6+6 > 10: evicts a
		t.Fatal(err)
	}
	if c.Contains("a") {
		t.Fatal("a should have been evicted")
	}
	if string(hit) != "aaaaaa" {
		t.Errorf("bytes read before eviction changed: %q", hit)
	}
	hitB, _ := c.Get(ctx, "b", f.fetch, false)
	c.Drop(ctx, "b")
	hitC, _ := c.Get(ctx, "c", f.fetch, false)
	hitC, _ = c.Get(ctx, "c", f.fetch, false)
	c.Clear(ctx)
	if string(hitB) != "bbbbbb" || string(hitC) != "cccc" {
		t.Errorf("bytes read before Drop/Clear changed: %q, %q", hitB, hitC)
	}
	// Evicted files are read again from shared storage, with the same bytes.
	if again, _ := c.Get(ctx, "a", f.fetch, false); string(again) != "aaaaaa" {
		t.Errorf("re-fetched a reads %q", again)
	}
}
