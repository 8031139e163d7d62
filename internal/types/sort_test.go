package types

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func sortTestBatch(xs []int64) *Batch {
	s := Schema{{Name: "k", Type: Int64}, {Name: "pos", Type: Int64}}
	b := NewBatch(s, len(xs))
	for i, x := range xs {
		b.AppendRow(Row{NewInt(x), NewInt(int64(i))})
	}
	return b
}

func TestSortBatchOrders(t *testing.T) {
	b := SortBatch(sortTestBatch([]int64{3, 1, 2}), []SortKey{{Col: 0}})
	if b.Cols[0].Ints[0] != 1 || b.Cols[0].Ints[2] != 3 {
		t.Errorf("sorted = %v", b.Cols[0].Ints)
	}
}

func TestSortBatchStable(t *testing.T) {
	// Equal keys preserve input order (stable).
	b := SortBatch(sortTestBatch([]int64{2, 1, 2, 1}), []SortKey{{Col: 0}})
	pos := b.Cols[1].Ints
	if pos[0] != 1 || pos[1] != 3 || pos[2] != 0 || pos[3] != 2 {
		t.Errorf("stable order = %v", pos)
	}
}

func TestSortBatchAlreadySortedNoCopy(t *testing.T) {
	b := sortTestBatch([]int64{1, 2, 3})
	if got := SortBatch(b, []SortKey{{Col: 0}}); got != b {
		t.Error("in-order batch should be returned as-is")
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted(sortTestBatch([]int64{1, 2, 2, 3}), []SortKey{{Col: 0}}) {
		t.Error("sorted reported unsorted")
	}
	if IsSorted(sortTestBatch([]int64{2, 1}), []SortKey{{Col: 0}}) {
		t.Error("unsorted reported sorted")
	}
	// Multi-key: first key ties broken by second.
	s := Schema{{Name: "a", Type: Int64}, {Name: "b", Type: Int64}}
	b := BatchFromRows(s, []Row{
		{NewInt(1), NewInt(2)}, {NewInt(1), NewInt(1)},
	})
	if IsSorted(b, []SortKey{{Col: 0}, {Col: 1}}) {
		t.Error("secondary key violation missed")
	}
	if !IsSorted(b, []SortKey{{Col: 0}}) {
		t.Error("primary-only should be sorted")
	}
}

// Property: SortBatch output is sorted and is a permutation of the input.
func TestQuickSortBatch(t *testing.T) {
	f := func(xs []int64) bool {
		b := SortBatch(sortTestBatch(xs), []SortKey{{Col: 0}})
		if !IsSorted(b, []SortKey{{Col: 0}}) {
			return false
		}
		counts := map[int64]int{}
		for _, x := range xs {
			counts[x]++
		}
		for _, x := range b.Cols[0].Ints {
			counts[x]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDatumTimestampString(t *testing.T) {
	ts := time.Date(2018, 6, 10, 12, 34, 56, 0, time.UTC)
	d := NewTimestamp(ts.UnixMicro())
	if got := d.String(); got != "2018-06-10 12:34:56" {
		t.Errorf("timestamp string = %q", got)
	}
}

func TestDateFromTime(t *testing.T) {
	d := DateFromTime(time.Date(1970, 1, 2, 23, 0, 0, 0, time.UTC))
	if d.I != 1 {
		t.Errorf("days = %d", d.I)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].I != 1 {
		t.Error("clone aliases original")
	}
	if r.String() != "1|a" {
		t.Errorf("row string = %q", r.String())
	}
}

func TestSchemaString(t *testing.T) {
	s := Schema{{Name: "a", Type: Int64}, {Name: "b", Type: Varchar}}
	if got := s.String(); got != "a INTEGER, b VARCHAR" {
		t.Errorf("schema string = %q", got)
	}
}

func TestBatchFromRowsArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	s := Schema{{Name: "a", Type: Int64}}
	b := NewBatch(s, 1)
	b.AppendRow(Row{NewInt(1), NewInt(2)})
}

func TestVectorDatumAllPhysicalClasses(t *testing.T) {
	checks := []struct {
		typ Type
		d   Datum
	}{
		{Int64, NewInt(7)},
		{Float64, NewFloat(1.5)},
		{Varchar, NewString("x")},
		{Bool, NewBool(true)},
	}
	for _, c := range checks {
		v := NewVector(c.typ, 1)
		v.Append(c.d)
		got := v.Datum(0)
		if got.Compare(c.d) != 0 {
			t.Errorf("%v roundtrip = %v", c.typ, got)
		}
	}
}

func TestSortPermLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]int64, 500)
	for i := range xs {
		xs[i] = rng.Int63n(50)
	}
	perm := SortPerm(sortTestBatch(xs), []SortKey{{Col: 0}})
	if len(perm) != 500 {
		t.Fatal("perm length")
	}
	seen := map[int]bool{}
	for _, p := range perm {
		if seen[p] {
			t.Fatal("perm repeats index")
		}
		seen[p] = true
	}
}

func BenchmarkSortPerm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := Schema{{Name: "a", Type: Int64}, {Name: "b", Type: Int64}, {Name: "c", Type: Varchar}}
	random := NewBatch(s, 2000)
	presorted := NewBatch(s, 2000)
	for i := 0; i < 2000; i++ {
		random.AppendRow(Row{NewInt(rng.Int63n(1000)), NewInt(int64(i)), NewString([]string{"x", "y", "z"}[rng.Intn(3)])})
		presorted.AppendRow(Row{NewInt(int64(i / 2)), NewInt(int64(i)), NewString("x")})
	}
	for _, tc := range []struct {
		name  string
		batch *Batch
		keys  []SortKey
	}{
		{"random", random, []SortKey{{Col: 0}}},
		{"presorted", presorted, []SortKey{{Col: 0}, {Col: 1}}},
		{"multikey", random, []SortKey{{Col: 2}, {Col: 0, Desc: true}, {Col: 1}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SortPerm(tc.batch, tc.keys)
			}
		})
	}
}
