package experiments

import (
	"math"
	"slices"
	"testing"

	"eon/internal/core"
	"eon/internal/types"
)

// floatTol is the relative difference allowed between two float results
// in a multiset comparison. Distributed aggregation sums in a different
// order per cluster shape and per seeded shard assignment, so the last
// bits legitimately differ. Rounding both sides to a fixed number of
// digits would not do: the generated prices and discounts are short
// decimals, their sums land exactly on rounding boundaries, and the two
// sides then round apart.
const floatTol = 1e-9

func sameDatum(a, b types.Datum) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	if a.K.Physical() == types.Float64 && b.K.Physical() == types.Float64 {
		return math.Abs(a.F-b.F) <= floatTol*math.Max(math.Abs(a.F), math.Abs(b.F))
	}
	return a.Equal(b)
}

func sameRow(a, b types.Row) bool {
	return slices.EqualFunc(a, b, sameDatum)
}

// compareResults requires got to equal want. With exact set, rows must
// be byte-identical positionally. Otherwise they are compared as
// multisets: every got row must pair with its own want row, floats
// within floatTol relative. Workload results have at most a few dozen
// rows, so the quadratic pairing costs nothing.
func compareResults(t *testing.T, name string, want, got *core.Result, exact bool) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: got %d rows, want %d", name, got.NumRows(), want.NumRows())
	}
	wantRows, gotRows := want.Rows(), got.Rows()
	if exact {
		for i := range wantRows {
			for c := range wantRows[i] {
				wd, gd := wantRows[i][c], gotRows[i][c]
				if wd.Null != gd.Null || (!wd.Null && wd.Compare(gd) != 0) {
					t.Fatalf("%s: row %d col %d: got %v, want %v", name, i, c, gd, wd)
				}
			}
		}
		return
	}
	used := make([]bool, len(wantRows))
next:
	for _, r := range gotRows {
		for i, w := range wantRows {
			if !used[i] && sameRow(r, w) {
				used[i] = true
				continue next
			}
		}
		t.Fatalf("%s: got row %v, which matches no wanted row", name, r)
	}
}
