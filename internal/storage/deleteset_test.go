package storage

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestDeleteSetMatchesMap checks the sorted DeleteSet against a map of
// the same positions on random sets: up to three lists, each sorted and
// distinct as a delete vector file is, overlapping one another, read in
// blocks before, across and after the deletes.
func TestDeleteSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		var lists [][]int64
		model := map[int64]bool{}
		for l := rng.Intn(4); l > 0; l-- {
			list := make([]int64, rng.Intn(40))
			for i := range list {
				list[i] = 50 + rng.Int63n(200)
				model[list[i]] = true
			}
			slices.Sort(list)
			lists = append(lists, slices.Compact(list))
		}
		ds := NewDeleteSet(lists...)
		if ds.Len() != len(model) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, ds.Len(), len(model))
		}
		for p := int64(0); p < 300; p++ {
			if ds.Contains(p) != model[p] {
				t.Fatalf("trial %d: Contains(%d) = %v", trial, p, !model[p])
			}
		}
		for _, base := range []int64{0, 40, 50 + rng.Int63n(200), 250, 260} {
			n := rng.Intn(80)
			var want []int
			for i := 0; i < n; i++ {
				if !model[base+int64(i)] {
					want = append(want, i)
				}
			}
			if got := ds.LivePositions(base, n); !slices.Equal(got, want) {
				t.Fatalf("trial %d: LivePositions(%d, %d) = %v, want %v", trial, base, n, got, want)
			}
		}
	}
}

// TestDeleteSetNoDeletesAllocatesNothing: a container without delete
// vectors makes its DeleteSet without allocating.
func TestDeleteSetNoDeletesAllocatesNothing(t *testing.T) {
	var lists [][]int64
	if n := testing.AllocsPerRun(100, func() {
		ds := NewDeleteSet(lists...)
		if ds.Len() != 0 {
			t.Fatal("non-empty")
		}
	}); n != 0 {
		t.Errorf("NewDeleteSet() allocates %.0f times, want 0", n)
	}
	one := []int64{3, 7, 9}
	if n := testing.AllocsPerRun(100, func() { _ = NewDeleteSet(one) }); n != 0 {
		t.Errorf("NewDeleteSet of one sorted list allocates %.0f times, want 0", n)
	}
}

// BenchmarkDeleteSet merges a container's delete vectors and finds the
// live rows of each 1024-row block, as a scan of a 64 Ki-row container
// with three vectors of 200 positions each does.
func BenchmarkDeleteSet(b *testing.B) {
	const rows, block = 1 << 16, 1024
	rng := rand.New(rand.NewSource(1))
	lists := make([][]int64, 3)
	for i := range lists {
		for j := 0; j < 200; j++ {
			lists[i] = append(lists[i], rng.Int63n(rows))
		}
		sort.Slice(lists[i], func(x, y int) bool { return lists[i][x] < lists[i][y] })
		lists[i] = slices.Compact(lists[i])
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds := NewDeleteSet(lists...)
		for base := int64(0); base < rows; base += block {
			_ = ds.LivePositions(base, block)
		}
	}
}
