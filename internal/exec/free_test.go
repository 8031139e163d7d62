package exec

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"eon/internal/expr"
	"eon/internal/obs"
	"eon/internal/types"
)

// TestFreeListClasses: storage is kept by exact power-of-two class and
// physical class, taken back last in first out, and what has another
// capacity or is larger than the largest class is left to the collector.
func TestFreeListClasses(t *testing.T) {
	f := NewFreeList(1)
	v := f.Vector(types.Varchar, 100)
	if c := cap(v.Strs); c != 128 {
		t.Fatalf("a 100-value vector has capacity %d, want 128", c)
	}
	f.PutVectors([]*types.Vector{v})
	if got := f.HeldBytes(); got != 128*16 {
		t.Fatalf("list holds %d bytes, want %d", got, 128*16)
	}
	if got := f.Vector(types.Int64, 100); got == v {
		t.Fatal("an INTEGER vector came out of the VARCHAR class")
	}
	if got := f.Vector(types.Varchar, 65); got != v || got.Len() != 0 {
		t.Fatalf("took %p (len %d), want the given-back %p empty", got, got.Len(), v)
	}
	if got := f.HeldBytes(); got != 0 {
		t.Fatalf("list holds %d bytes after taking all back, want 0", got)
	}

	s := takeSlots[uint64](f, 1000)
	if len(s) != 1000 || cap(s) != 1024 {
		t.Fatalf("takeSlots(1000) has len %d cap %d, want 1000 and 1024", len(s), cap(s))
	}
	s[999] = 7
	giveSlots(f, s)
	if s2 := takeSlots[uint64](f, 600); cap(s2) != 1024 || s2[:1000][999] != 0 {
		t.Fatalf("the 1024-slot array came back with cap %d, slot 999 = %d; want it, zeroed", cap(s2), s2[:1000][999])
	}
	giveSlots(f, make([]int32, 1000))        // not a power of two
	giveSlots(f, make([]int32, 2<<maxClass)) // beyond the largest class
	f.PutVectors([]*types.Vector{types.NewVector(types.Float64, 3)})
	if got := f.HeldBytes(); got != 0 {
		t.Fatalf("list kept %d bytes of storage of no class, want 0", got)
	}
	if s := takeSlots[aggState](nil, 5); len(s) != 5 || cap(s) != 5 {
		t.Fatalf("a nil list made len %d cap %d, want exactly 5", len(s), cap(s))
	}
}

// TestFreeListBounds: a class keeps at most perWorker items per scan
// worker, and the list at most freeBytesPerWorker bytes per worker.
func TestFreeListBounds(t *testing.T) {
	f := NewFreeList(1)
	for range perWorker + 5 {
		giveSlots(f, make([]int32, 16))
	}
	if got, want := f.HeldBytes(), int64(perWorker*16*4); got != want {
		t.Fatalf("one class holds %d bytes, want %d (%d items)", got, want, perWorker)
	}
	big := 1 << maxClass
	for range freeBytesPerWorker/(8*big) + 3 {
		giveSlots(f, make([]uint64, big))
	}
	if got := f.HeldBytes(); got > freeBytesPerWorker {
		t.Fatalf("list holds %d bytes, bound %d", got, freeBytesPerWorker)
	}
}

// TestFreeListPoisonsAndCatchesDoubleGiveBack: in test binaries what is
// given back reads poison, and giving back what the list holds panics.
func TestFreeListPoisonsAndCatchesDoubleGiveBack(t *testing.T) {
	f := NewFreeList(1)
	v := f.Vector(types.Float64, 4)
	v.Floats = append(v.Floats, 1, 2)
	view := *v
	f.PutVectors([]*types.Vector{v})
	if !math.IsNaN(view.Floats[1]) {
		t.Fatalf("a given-back vector reads %v, want NaN", view.Floats[1])
	}
	ids := takeSlots[int32](f, 8)
	giveSlots(f, ids)
	if ids[3] != math.MinInt32 {
		t.Fatalf("given-back ids read %d, want poison", ids[3])
	}
	st := takeSlots[aggState](f, 8)
	giveSlots(f, st)
	if st[0].count != types.PoisonInt || !math.IsNaN(st[0].sumF) {
		t.Fatalf("given-back states read %+v, want poison", st[0])
	}
	for name, twice := range map[string]func(){
		"vector": func() { f.PutVectors([]*types.Vector{v}) },
		"slots":  func() { giveSlots(f, ids) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("giving a %s back twice did not panic", name)
				}
			}()
			twice()
		}()
	}
}

// TestFreeListConcurrent takes and gives back from several goroutines at
// once, as a node's scan workers and operators do (run it with -race).
func TestFreeListConcurrent(t *testing.T) {
	f := NewFreeList(2)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				n := 1 + (g*37+i*11)%3000
				v := f.Vector(types.Int64, n)
				v.Ints = append(v.Ints, int64(i))
				s := takeSlots[uint64](f, n)
				f.PutVectors([]*types.Vector{v})
				giveSlots(f, s)
			}
		}()
	}
	wg.Wait()
	if got := f.HeldBytes(); got <= 0 || got > 2*freeBytesPerWorker {
		t.Fatalf("list holds %d bytes after the goroutines gave all back", got)
	}
}

// drain pulls op to its end without keeping or copying what it returns.
func drain(t *testing.T, op Operator) (rows int) {
	t.Helper()
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return rows
		}
		rows += b.NumRows()
	}
}

// TestHashOperatorsReuseTheirStorage: once a node's list is warm, a
// repeated aggregation (of a column or of an expression), groupjoin,
// distinct and join find their slot arrays, key vectors, aggregate
// states, id scratch, expression arenas, buffered copies, concatenated
// build side, chains, group ids and output vectors in it. A run then allocates the
// operator and its small per-query slices only: under 8 KiB, where its
// 4 096-slot table alone (48 KiB) would not fit.
func TestHashOperatorsReuseTheirStorage(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	schema := types.Schema{{Name: "k", Type: types.Int64}, {Name: "s", Type: types.Varchar}, {Name: "v", Type: types.Float64}}
	const groups = 3000
	var in []*types.Batch
	for part := range 3 {
		b := types.NewBatch(schema, groups/3)
		for i := range groups / 3 {
			k := part*groups/3 + i
			b.AppendRow(types.Row{types.NewInt(int64(k)), types.NewString(fmt.Sprintf("s%d", k%7)), types.NewFloat(float64(k))})
		}
		in = append(in, b)
	}
	list := NewFreeList(1)
	eng := Engine{Free: list}
	col := func(name string) expr.Expr { return mustBind(t, expr.Col(name), schema) }
	runs := map[string]func() Operator{
		"aggregate": func() Operator {
			aggs := []AggDef{{Kind: AggSum, Arg: col("v"), Name: "x"}, {Kind: AggCountStar, Name: "n"}}
			h := NewHashAggregate(NewSource(schema, in...), []expr.Expr{col("k"), col("s")}, []string{"k", "s"}, aggs, false)
			h.Eng = eng
			return h
		},
		"aggregate of an expression": func() Operator {
			arg := expr.Bin(expr.OpMul, expr.Col("v"), expr.Bin(expr.OpSub, expr.Lit(types.NewFloat(1)), expr.Col("v")))
			aggs := []AggDef{{Kind: AggSum, Arg: mustBind(t, arg, schema), Name: "x"}}
			h := NewHashAggregate(NewSource(schema, in...), []expr.Expr{col("k")}, []string{"k"}, aggs, false)
			h.Eng = eng
			return h
		},
		"groupjoin": func() Operator {
			j := NewHashJoin(NewSource(schema, in...), NewSource(schema, in[2], in[0], in[1]), []int{0}, []int{0})
			j.Eng = eng
			joined := append(append(types.Schema{}, schema...), schema...)
			arg := mustBind(t, expr.Bin(expr.OpMul, expr.Col("v"), expr.Lit(types.NewFloat(2))), joined)
			h := NewHashAggregate(j, []expr.Expr{col("k"), col("s")}, []string{"k", "s"}, []AggDef{{Kind: AggSum, Arg: arg, Name: "x"}}, false)
			h.Eng = eng
			return NewGroupJoin(h, j)
		},
		"distinct": func() Operator {
			d := NewDistinct(NewSource(schema, in...))
			d.Eng = eng
			return d
		},
		"join": func() Operator {
			j := NewHashJoin(NewSource(schema, in...), NewSource(schema, in[2], in[0], in[1]), []int{0}, []int{0})
			j.Eng = eng
			return j
		},
	}
	for name, build := range runs {
		for range 3 {
			if got := drain(t, build()); got != groups {
				t.Fatalf("%s returned %d rows, want %d", name, got, groups)
			}
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const n = 10
		for range n {
			drain(t, build())
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / n
		t.Logf("%s: %d bytes per run, list holds %d", name, perRun, list.HeldBytes())
		if perRun >= 8<<10 {
			t.Errorf("a warm %s allocates %d bytes per run, want < %d", name, perRun, 8<<10)
		}
	}
}
