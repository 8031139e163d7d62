package experiments

import (
	"testing"

	"eon/internal/core"
	"eon/internal/workload"
)

// compareResults requires got to equal want. With exact set, rows must
// be byte-identical positionally. Otherwise they are compared as
// multisets, floats within workload.FloatTol relative
// (workload.MatchRows).
func compareResults(t *testing.T, name string, want, got *core.Result, exact bool) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: got %d rows, want %d", name, got.NumRows(), want.NumRows())
	}
	wantRows, gotRows := want.Rows(), got.Rows()
	if !exact {
		if err := workload.MatchRows(wantRows, gotRows); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return
	}
	for i := range wantRows {
		for c := range wantRows[i] {
			wd, gd := wantRows[i][c], gotRows[i][c]
			if wd.Null != gd.Null || (!wd.Null && wd.Compare(gd) != 0) {
				t.Fatalf("%s: row %d col %d: got %v, want %v", name, i, c, gd, wd)
			}
		}
	}
}
