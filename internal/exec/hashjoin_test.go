package exec

import (
	"fmt"
	"sort"
	"testing"

	"eon/internal/types"
)

// countingOp counts pulls and reports whether its input was exhausted.
type countingOp struct {
	Operator
	pulls     int
	exhausted bool
}

func (c *countingOp) Next() (*types.Batch, error) {
	c.pulls++
	b, err := c.Operator.Next()
	if b == nil && err == nil {
		c.exhausted = true
	}
	return b, err
}

// chunked splits b into batches of at most size rows.
func chunked(b *types.Batch, size int) []*types.Batch {
	var out []*types.Batch
	for lo := 0; lo < b.NumRows(); lo += size {
		out = append(out, b.Slice(lo, min(lo+size, b.NumRows())))
	}
	return out
}

var (
	joinFirstSchema  = types.Schema{{Name: "fk", Type: types.Int64}, {Name: "f", Type: types.Varchar}}
	joinSecondSchema = types.Schema{{Name: "sk", Type: types.Int64}, {Name: "s", Type: types.Varchar}}
)

// joinSide builds n rows (key, "<tag><row>") whose keys cycle through
// 0..mod-1, so keys repeat on either side, with one NULL key at row 2.
func joinSide(schema types.Schema, tag string, n, mod int) *types.Batch {
	b := types.NewBatch(schema, n)
	for i := 0; i < n; i++ {
		k := types.NewInt(int64(i % mod))
		if i == 2 {
			k = types.NullDatum(types.Int64)
		}
		b.AppendRow(types.Row{k, types.NewString(fmt.Sprintf("%s%d", tag, i))})
	}
	return b
}

// nestedLoop is the join's definition: every (first, second) pair with
// equal non-NULL keys, rendered as sorted strings.
func nestedLoop(first, second *types.Batch) []string {
	var out []string
	for i := 0; i < first.NumRows(); i++ {
		for j := 0; j < second.NumRows(); j++ {
			a, b := first.Cols[0].Datum(i), second.Cols[0].Datum(j)
			if !a.Null && !b.Null && a.I == b.I {
				out = append(out, first.Row(i).String()+"|"+second.Row(j).String())
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestHashJoinBuildsOnSmallerSide pins the side-selection rule: the
// input with fewer rows builds (ties: the first) for every way of
// cutting the same rows into batches, on both engines; the output
// schema is first-then-second either way, the rows are the nested-loop
// join's, and their order does not depend on the cut.
func TestHashJoinBuildsOnSmallerSide(t *testing.T) {
	cases := []struct {
		name          string
		nFirst, nSec  int
		wantBuildSide int
	}{
		{"second smaller", 11, 5, 1},
		{"first smaller", 4, 9, 0},
		{"tie builds first", 6, 6, 0},
		{"one row against many", 12, 1, 1},
	}
	for _, tc := range cases {
		first := joinSide(joinFirstSchema, "f", tc.nFirst, 3)
		second := joinSide(joinSecondSchema, "s", tc.nSec, 4)
		want := nestedLoop(first, second)
		for _, row := range []bool{false, true} {
			var ordered []string
			for cf := 1; cf <= tc.nFirst; cf++ {
				for cs := 1; cs <= tc.nSec; cs++ {
					label := fmt.Sprintf("%s row=%v chunks=%d/%d", tc.name, row, cf, cs)
					j := NewHashJoin(
						NewSource(joinFirstSchema, chunked(first, cf)...),
						NewSource(joinSecondSchema, chunked(second, cs)...),
						[]int{0}, []int{0})
					j.Eng.Row = row
					var got []string
					for {
						b, err := j.Next()
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if b == nil {
							break
						}
						if b.NumCols() != 4 || b.Cols[1].Typ != types.Varchar || b.Cols[3].Typ != types.Varchar {
							t.Fatalf("%s: output is not first-then-second columns", label)
						}
						for i := 0; i < b.NumRows(); i++ {
							r := b.Row(i)
							if r[1].S[0] != 'f' || r[3].S[0] != 's' {
								t.Fatalf("%s: row %v has its sides swapped", label, r)
							}
							got = append(got, r.String())
						}
					}
					if j.build != tc.wantBuildSide {
						t.Fatalf("%s: input %d built, want %d", label, j.build, tc.wantBuildSide)
					}
					if ordered == nil {
						ordered = got
					} else if fmt.Sprint(got) != fmt.Sprint(ordered) {
						t.Fatalf("%s: output order depends on the batch cut\n got %v\nwant %v", label, got, ordered)
					}
					sorted := append([]string(nil), got...)
					sort.Strings(sorted)
					if fmt.Sprint(sorted) != fmt.Sprint(want) {
						t.Fatalf("%s: rows differ from the nested-loop join\n got %v\nwant %v", label, sorted, want)
					}
				}
			}
		}
	}
}

// TestHashJoinEmptySideShortCircuits: an empty input ends the join
// without the other being drained.
func TestHashJoinEmptySideShortCircuits(t *testing.T) {
	big := chunked(joinSide(joinFirstSchema, "f", 40, 5), 4)
	for _, emptyFirst := range []bool{true, false} {
		g := NewMemGovernor(0, nil)
		full := &countingOp{Operator: NewSource(joinFirstSchema, big...)}
		empty := &countingOp{Operator: NewSource(joinFirstSchema)}
		in := [2]Operator{full, empty}
		if emptyFirst {
			in = [2]Operator{empty, full}
		}
		j := NewHashJoin(in[0], in[1], []int{0}, []int{0})
		j.Mem = g
		for i := 0; i < 2; i++ { // a finished join stays finished
			if b, err := j.Next(); b != nil || err != nil {
				t.Fatalf("emptyFirst=%v: Next = (%v, %v), want end of stream", emptyFirst, b, err)
			}
		}
		if full.exhausted {
			t.Fatalf("emptyFirst=%v: the non-empty input was drained", emptyFirst)
		}
		// The first input is pulled first; an empty one ends the join
		// before the second is touched, an empty second after one batch.
		if want := map[bool]int{true: 0, false: 1}[emptyFirst]; full.pulls != want {
			t.Fatalf("emptyFirst=%v: %d pulls from the non-empty input, want %d", emptyFirst, full.pulls, want)
		}
		if g.Used() != 0 {
			t.Fatalf("emptyFirst=%v: %d bytes still charged", emptyFirst, g.Used())
		}
	}
}

// loggedOp appends its id to a shared log on every pull.
type loggedOp struct {
	countingOp
	id  int
	log *[]int
}

func (l *loggedOp) Next() (*types.Batch, error) {
	*l.log = append(*l.log, l.id)
	return l.countingOp.Next()
}

// TestHashJoinExchangedInputs pins what Exchanged changes: such an input
// is read to its end even when the join ends early, two of them are read
// one after the other (all of the first before any of the second), and
// the smaller side still builds.
func TestHashJoinExchangedInputs(t *testing.T) {
	for _, tc := range []struct {
		name         string
		nFirst, nSec int
		exchanged    [2]bool
		wantBuild    int
		wantDrained  [2]bool
	}{
		{"empty second, first exchanged", 40, 0, [2]bool{true, false}, 1, [2]bool{true, true}},
		{"empty first, second exchanged", 0, 40, [2]bool{false, true}, 0, [2]bool{true, true}},
		{"empty first, second not exchanged", 0, 40, [2]bool{true, false}, 0, [2]bool{true, false}},
		{"both exchanged, empty first", 0, 40, [2]bool{true, true}, 0, [2]bool{true, true}},
		{"both exchanged, empty second", 40, 0, [2]bool{true, true}, 1, [2]bool{true, true}},
		{"both exchanged, second smaller", 40, 9, [2]bool{true, true}, 1, [2]bool{true, true}},
		{"both exchanged, first smaller", 9, 40, [2]bool{true, true}, 0, [2]bool{true, true}},
		{"both exchanged, tie", 12, 12, [2]bool{true, true}, 0, [2]bool{true, true}},
	} {
		first := joinSide(joinFirstSchema, "f", tc.nFirst, 3)
		second := joinSide(joinSecondSchema, "s", tc.nSec, 4)
		var log []int
		in := [2]*loggedOp{
			{countingOp: countingOp{Operator: NewSource(joinFirstSchema, chunked(first, 4)...)}, id: 0, log: &log},
			{countingOp: countingOp{Operator: NewSource(joinSecondSchema, chunked(second, 4)...)}, id: 1, log: &log},
		}
		g := NewMemGovernor(0, nil)
		j := NewHashJoin(in[0], in[1], []int{0}, []int{0})
		j.Exchanged = tc.exchanged
		j.Mem = g
		out, err := Collect(j)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []string
		for i := 0; i < out.NumRows(); i++ {
			got = append(got, out.Row(i).String())
		}
		sort.Strings(got)
		if want := nestedLoop(first, second); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: rows differ from the nested-loop join\n got %v\nwant %v", tc.name, got, want)
		}
		if j.build != tc.wantBuild {
			t.Errorf("%s: input %d built, want %d", tc.name, j.build, tc.wantBuild)
		}
		if drained := [2]bool{in[0].exhausted, in[1].exhausted}; drained != tc.wantDrained {
			t.Errorf("%s: inputs read to their end = %v, want %v", tc.name, drained, tc.wantDrained)
		}
		if tc.exchanged == [2]bool{true, true} && !sort.IntsAreSorted(log) {
			t.Errorf("%s: pull order %v touches the second input before the first ended", tc.name, log)
		}
		if g.Used() != 0 {
			t.Errorf("%s: %d bytes still charged", tc.name, g.Used())
		}
	}
}

// failingOp returns err once its input is exhausted.
type failingOp struct {
	Operator
	err error
}

func (f *failingOp) Next() (*types.Batch, error) {
	b, err := f.Operator.Next()
	if b == nil && err == nil {
		return nil, f.err
	}
	return b, err
}

// TestHashJoinChargesWhatItHolds: the governor sees the buffered batches
// while the side is chosen, then the build side with its real table (far
// above the 16 B/row the join used to claim), and nothing after the
// join ends — by exhaustion or by an input's error in either phase.
func TestHashJoinChargesWhatItHolds(t *testing.T) {
	small := joinSide(joinSecondSchema, "s", 200, 200)
	big := chunked(joinSide(joinFirstSchema, "f", 4000, 200), 500)
	g := NewMemGovernor(0, nil)
	j := NewHashJoin(NewSource(joinFirstSchema, big...), NewSource(joinSecondSchema, small), []int{0}, []int{0})
	j.Mem = g
	if b, err := j.Next(); b == nil || err != nil {
		t.Fatalf("Next = (%v, %v)", b, err)
	}
	table := j.table.memBytes() + 4*int64(len(j.first)+len(j.next))
	if held := BatchMemBytes(j.all) + table; j.all.NumRows() != 200 || g.Used() < held {
		t.Fatalf("probing with %d bytes charged, the build side and its table hold %d", g.Used(), held)
	}
	if table < 2*16*200 {
		t.Fatalf("table of 200 keys measured at %d bytes, no more than the old flat estimate", table)
	}
	if _, err := Collect(j); err != nil {
		t.Fatal(err)
	}
	if g.Used() != 0 {
		t.Fatalf("%d bytes charged after the probe drained", g.Used())
	}

	boom := fmt.Errorf("boom")
	for _, failSecond := range []bool{true, false} { // second fails while choosing, first while probing
		g := NewMemGovernor(0, nil)
		var first, second Operator = NewSource(joinFirstSchema, big...), NewSource(joinSecondSchema, small)
		if failSecond {
			second = &failingOp{Operator: second, err: boom}
		} else {
			first = &failingOp{Operator: first, err: boom}
		}
		j := NewHashJoin(first, second, []int{0}, []int{0})
		j.Mem = g
		if _, err := Collect(j); err != boom {
			t.Fatalf("failSecond=%v: Collect error = %v, want boom", failSecond, err)
		}
		if g.Used() != 0 {
			t.Fatalf("failSecond=%v: %d bytes charged after the error", failSecond, g.Used())
		}
		if g.Peak() == 0 {
			t.Fatalf("failSecond=%v: nothing was ever charged", failSecond)
		}
	}
}
