package exec

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
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

// joinLogged runs a join of first and second, cut into batches of
// cf and cs rows, with build as its build side; it returns the join, the
// output rows, the inputs and their shared pull log.
func joinLogged(t *testing.T, first, second *types.Batch, cf, cs, build int, exchanged [2]bool, eng Engine) (*HashJoin, []types.Row, [2]*loggedOp, []int) {
	t.Helper()
	var log []int
	in := [2]*loggedOp{
		{countingOp: countingOp{Operator: NewSource(joinFirstSchema, chunked(first, cf)...)}, id: 0, log: &log},
		{countingOp: countingOp{Operator: NewSource(joinSecondSchema, chunked(second, cs)...)}, id: 1, log: &log},
	}
	j := NewHashJoin(in[0], in[1], []int{0}, []int{0})
	j.Build, j.Exchanged, j.Eng = build, exchanged, eng
	var rows []types.Row
	for {
		b, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return j, rows, in, log
		}
		if b.NumCols() != 4 || b.Cols[1].Typ != types.Varchar || b.Cols[3].Typ != types.Varchar {
			t.Fatal("output is not first-then-second columns")
		}
		for i := 0; i < b.NumRows(); i++ {
			rows = append(rows, b.Row(i))
		}
	}
}

// buildEndsFirst reports whether log, the inputs' pulls in order, reads
// the build input to its end (its last pull returned end-of-stream)
// before the probe input is touched.
func buildEndsFirst(log []int, build int, in [2]*loggedOp) bool {
	probeAt := slices.Index(log, 1-build)
	if probeAt < 0 {
		probeAt = len(log)
	}
	return slices.Index(log[probeAt:], build) < 0 && in[build].exhausted && probeAt == in[build].pulls
}

// TestHashJoinBuildsTheSideItIsGiven pins the side rule: the input the
// caller names builds, whatever the sizes (the smaller, the larger, a
// tie), for every way of cutting the same rows into batches, on both
// engines. The build input is read to its end before the probe input is
// pulled; the output schema is first-then-second either way, the rows
// are the nested-loop join's, they come in probe-side order, and their
// order does not depend on the cut.
func TestHashJoinBuildsTheSideItIsGiven(t *testing.T) {
	for _, tc := range []struct {
		name         string
		nFirst, nSec int
	}{
		{"second smaller", 11, 5},
		{"first smaller", 4, 9},
		{"tie", 6, 6},
		{"one row against many", 12, 1},
	} {
		first := joinSide(joinFirstSchema, "f", tc.nFirst, 3)
		second := joinSide(joinSecondSchema, "s", tc.nSec, 4)
		want := nestedLoop(first, second)
		for build := range 2 {
			for _, row := range []bool{false, true} {
				var ordered []string
				for cf := 1; cf <= tc.nFirst; cf++ {
					for cs := 1; cs <= tc.nSec; cs++ {
						label := fmt.Sprintf("%s build=%d row=%v chunks=%d/%d", tc.name, build, row, cf, cs)
						_, rows, in, log := joinLogged(t, first, second, cf, cs, build, [2]bool{}, Engine{Row: row})
						if !buildEndsFirst(log, build, in) {
							t.Fatalf("%s: pull order %v does not read input %d to its end first", label, log, build)
						}
						var got []string
						probeRow := -1
						for _, r := range rows {
							if r[1].S[0] != 'f' || r[3].S[0] != 's' {
								t.Fatalf("%s: row %v has its sides swapped", label, r)
							}
							// The probe side's tag is f<row> or s<row>: rows come in its order.
							i, _ := strconv.Atoi(r[3-2*build].S[1:])
							if i < probeRow {
								t.Fatalf("%s: row %v is out of probe-side order", label, r)
							}
							probeRow = i
							got = append(got, r.String())
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
}

// TestHashJoinEmptySideShortCircuits: an empty build side ends the join
// without the probe side being pulled; a non-empty build side is read
// whole even when the probe side turns out empty. Nothing stays charged.
func TestHashJoinEmptySideShortCircuits(t *testing.T) {
	big := chunked(joinSide(joinFirstSchema, "f", 40, 5), 4)
	for _, emptyFirst := range []bool{true, false} {
		for _, buildEmpty := range []bool{true, false} {
			label := fmt.Sprintf("emptyFirst=%v buildEmpty=%v", emptyFirst, buildEmpty)
			g := NewMemGovernor(0, nil)
			full := &countingOp{Operator: NewSource(joinFirstSchema, big...)}
			empty := &countingOp{Operator: NewSource(joinFirstSchema)}
			in, emptySide := [2]Operator{full, empty}, 1
			if emptyFirst {
				in, emptySide = [2]Operator{empty, full}, 0
			}
			j := NewHashJoin(in[0], in[1], []int{0}, []int{0})
			j.Mem, j.Build = g, emptySide
			if !buildEmpty {
				j.Build = 1 - emptySide
			}
			for i := 0; i < 2; i++ { // a finished join stays finished
				if b, err := j.Next(); b != nil || err != nil {
					t.Fatalf("%s: Next = (%v, %v), want end of stream", label, b, err)
				}
			}
			if want := map[bool]int{true: 0, false: len(big) + 1}[buildEmpty]; full.pulls != want {
				t.Fatalf("%s: %d pulls from the non-empty input, want %d", label, full.pulls, want)
			}
			if g.Used() != 0 {
				t.Fatalf("%s: %d bytes still charged", label, g.Used())
			}
		}
	}
}

// TestHashJoinExchangedInputs pins what Exchanged changes now that the
// build side is given: nothing is pulled from the probe side before the
// build side ends, whichever inputs are exchanged, and an empty build
// side drains an exchanged probe side and abandons a local one.
func TestHashJoinExchangedInputs(t *testing.T) {
	for _, tc := range []struct {
		name         string
		nFirst, nSec int
		build        int
		exchanged    [2]bool
		wantDrained  [2]bool
	}{
		{"empty build, probe exchanged", 40, 0, 1, [2]bool{true, false}, [2]bool{true, true}},
		{"empty build, probe exchanged (second)", 0, 40, 0, [2]bool{false, true}, [2]bool{true, true}},
		{"empty build, probe local", 0, 40, 0, [2]bool{true, false}, [2]bool{true, false}},
		{"empty build, probe local (first)", 40, 0, 1, [2]bool{false, true}, [2]bool{false, true}},
		{"both exchanged, empty build", 0, 40, 0, [2]bool{true, true}, [2]bool{true, true}},
		{"both exchanged, empty probe", 40, 0, 0, [2]bool{true, true}, [2]bool{true, true}},
		{"both exchanged, larger builds", 40, 9, 0, [2]bool{true, true}, [2]bool{true, true}},
		{"both exchanged, smaller builds", 40, 9, 1, [2]bool{true, true}, [2]bool{true, true}},
		{"both exchanged, tie, second builds", 12, 12, 1, [2]bool{true, true}, [2]bool{true, true}},
	} {
		first := joinSide(joinFirstSchema, "f", tc.nFirst, 3)
		second := joinSide(joinSecondSchema, "s", tc.nSec, 4)
		_, rows, in, log := joinLogged(t, first, second, 4, 4, tc.build, tc.exchanged, Engine{})
		var got []string
		for _, r := range rows {
			got = append(got, r.String())
		}
		sort.Strings(got)
		if want := nestedLoop(first, second); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: rows differ from the nested-loop join\n got %v\nwant %v", tc.name, got, want)
		}
		if !buildEndsFirst(log, tc.build, in) {
			t.Errorf("%s: pull order %v touches the probe input before input %d ended", tc.name, log, tc.build)
		}
		if drained := [2]bool{in[0].exhausted, in[1].exhausted}; drained != tc.wantDrained {
			t.Errorf("%s: inputs read to their end = %v, want %v", tc.name, drained, tc.wantDrained)
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

// TestHashJoinChargesWhatItHolds: the governor sees the build side's
// copies while it is read, then the build side with its real table (far
// above the 16 B/row the join used to claim), never more than the build
// side, its table and one probe batch, and nothing after the join ends —
// by exhaustion or by an input's error in either phase.
func TestHashJoinChargesWhatItHolds(t *testing.T) {
	small := joinSide(joinSecondSchema, "s", 200, 200)
	big := chunked(joinSide(joinFirstSchema, "f", 4000, 200), 500)
	g := NewMemGovernor(0, nil)
	j := NewHashJoin(NewSource(joinFirstSchema, big...), NewSource(joinSecondSchema, small), []int{0}, []int{0})
	j.Mem, j.Build = g, 1
	if b, err := j.Next(); b == nil || err != nil {
		t.Fatalf("Next = (%v, %v)", b, err)
	}
	table := j.table.memBytes() + 4*int64(len(j.first)+len(j.next))
	held := BatchMemBytes(j.all) + table
	if j.all.NumRows() != 200 || g.Used() < held {
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
	if bound := held + BatchMemBytes(big[0]); g.Peak() > bound {
		t.Fatalf("peak charge %d bytes, above the build side, its table and one probe batch (%d)", g.Peak(), bound)
	}

	boom := fmt.Errorf("boom")
	for _, failSecond := range []bool{true, false} { // second fails while building, first while probing
		g := NewMemGovernor(0, nil)
		var first, second Operator = NewSource(joinFirstSchema, big...), NewSource(joinSecondSchema, small)
		if failSecond {
			second = &failingOp{Operator: second, err: boom}
		} else {
			first = &failingOp{Operator: first, err: boom}
		}
		j := NewHashJoin(first, second, []int{0}, []int{0})
		j.Mem, j.Build = g, 1
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
