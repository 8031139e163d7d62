package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"eon/internal/types"
)

// lruKeys lists the cache's keys from its rows, most recent first.
func lruKeys(c *lru[string, int]) []string {
	b := c.rows(types.Schema{{Name: "key", Type: types.Varchar}}, func(k string, _ int, _ int64) types.Row {
		return types.Row{types.NewString(k)}
	})
	return b.Cols[0].Strs
}

func TestLRUEntryBound(t *testing.T) {
	c := newLRU[string, int](3) // cost 1 per entry: at most 3 entries
	for i, k := range []string{"a", "b", "c", "d"} {
		if !c.put(k, i, 1) {
			t.Fatalf("put %q refused", k)
		}
	}
	if got, want := lruKeys(c), []string{"d", "c", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v, want %v (most recent first, a evicted)", got, want)
	}
	if n := c.evictions.Value(); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
	// A get makes b the most recent, so c is the next to go.
	if v, ok := c.get("b", nil); !ok || v != 1 {
		t.Fatalf("get b = %d, %v", v, ok)
	}
	c.put("e", 4, 1)
	if got, want := lruKeys(c), []string{"e", "b", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	if _, ok := c.get("a", nil); ok {
		t.Fatal("evicted key a still served")
	}
	if h, m, e := c.hits.Value(), c.misses.Value(), c.evictions.Value(); h != 1 || m != 1 || e != 2 {
		t.Fatalf("hits/misses/evictions = %d/%d/%d, want 1/1/2", h, m, e)
	}
}

func TestLRUByteBound(t *testing.T) {
	c := newLRU[string, int](100)
	c.put("a", 1, 40)
	c.put("b", 2, 40)
	if n, cost := c.size(); n != 2 || cost != 80 {
		t.Fatalf("size = %d entries, %d bytes; want 2, 80", n, cost)
	}
	c.put("c", 3, 30) // 110 > 100: a goes
	if got, want := lruKeys(c), []string{"c", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	if _, cost := c.size(); cost != 70 {
		t.Fatalf("cost %d, want 70", cost)
	}
	// An entry larger than the whole bound is refused and evicts nothing.
	if c.put("huge", 4, 101) {
		t.Fatal("oversized entry accepted")
	}
	if got, want := lruKeys(c), []string{"c", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v after refused put, want %v", got, want)
	}
	// Re-inserting a key replaces its value and cost in place.
	c.put("b", 20, 60)
	if v, ok := c.get("b", nil); !ok || v != 20 {
		t.Fatalf("get b = %d, %v; want the replacement 20", v, ok)
	}
	if n, cost := c.size(); n != 2 || cost != 90 {
		t.Fatalf("size = %d entries, %d bytes; want 2, 90", n, cost)
	}
	if e := c.evictions.Value(); e != 1 {
		t.Fatalf("evictions = %d, want 1", e)
	}
}

func TestLRUStaleEntry(t *testing.T) {
	c := newLRU[string, int](4)
	c.put("a", 7, 1)
	v, ok := c.get("a", func(v int) bool { return v > 10 })
	if ok || v != 7 {
		t.Fatalf("stale get = %d, %v; want the stale value 7 and ok=false", v, ok)
	}
	if v, ok := c.get("a", func(v int) bool { return v == 7 }); !ok || v != 7 {
		t.Fatalf("fresh get = %d, %v", v, ok)
	}
	if h, m := c.hits.Value(), c.misses.Value(); h != 1 || m != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", h, m)
	}
}

// TestLRUConcurrent drives one cache from several goroutines (run it
// under -race) and checks the bound holds afterwards.
func TestLRUConcurrent(t *testing.T) {
	c := newLRU[string, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprint((g + i) % 12)
				c.put(k, i, 1)
				c.get(k, func(v int) bool { return v%2 == 0 })
				if i%50 == 0 {
					lruKeys(c)
				}
			}
		}(g)
	}
	wg.Wait()
	if n, cost := c.size(); n != 8 || cost != 8 || len(lruKeys(c)) != 8 {
		t.Fatalf("size = %d entries, cost %d; want 8, 8", n, cost)
	}
	if h, m := c.hits.Value(), c.misses.Value(); h+m != 800 {
		t.Fatalf("hits+misses = %d, want 800", h+m)
	}
}

func TestRingKeepsNewest(t *testing.T) {
	r := ring[string]{size: 3}
	if got := r.items(); len(got) != 0 {
		t.Fatalf("empty ring holds %v", got)
	}
	for i := 1; i <= 5; i++ {
		r.add(fmt.Sprint(i))
		want := []string{}
		for j := max(1, i-2); j <= i; j++ {
			want = append(want, fmt.Sprint(j))
		}
		if got := r.items(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d adds: %v, want %v (oldest first)", i, got, want)
		}
	}
}
