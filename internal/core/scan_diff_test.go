package core

import (
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"

	"eon/internal/catalog"
	"eon/internal/colenc"
	"eon/internal/rosfile"
	"eon/internal/types"
)

// encRows is the row count of the differential table: one container of
// three blocks (4096 + 4096 + 1808 rows) on a one-shard cluster.
const encRows = 10000

// encRow is row i of the differential table. The columns are shaped so
// that the writer picks every encoding (TestScanDifferential checks the
// files), and every column but the sort key carries NULLs.
func encRow(i int) types.Row {
	null := func(d types.Datum, period, phase int) types.Datum {
		if i%period == phase {
			return types.NullDatum(d.K)
		}
		return d
	}
	huge := int64(i) << 50 // spans more than 56 bits: FOR gives way to PLAIN
	if i%2 == 1 {
		huge = -huge
	}
	return types.Row{
		types.NewInt(int64(i)),                                             // k: sorted, distinct → DELTA
		null(types.NewInt(int64(i/100)), 13, 5),                            // irle: long runs → RLE
		null(types.NewInt(int64(i*7919%1000)), 11, 3),                      // ifor: small range, no runs → FOR
		null(types.NewInt(huge), 17, 2),                                    // iplain → PLAIN
		null(types.NewString(fmt.Sprintf("d%d", i*31%7)), 7, 6),            // sdict: 7 values → DICT
		null(types.NewString(fmt.Sprintf("s%05d", i*7919%encRows)), 19, 4), // splain: distinct → PLAIN
		null(types.NewFloat(float64(i%97)+0.5), 23, 1),                     // f: one decimal digit → DECIMAL
		null(types.NewBool(i%3 == 0), 29, 7),                               // b → RLE
		null(types.NewFloat(float64(i)/math.Pi), 31, 9),                    // fx: full doubles → PLAIN
	}
}

var encSchema = types.Schema{
	{Name: "k", Type: types.Int64}, {Name: "irle", Type: types.Int64}, {Name: "ifor", Type: types.Int64},
	{Name: "iplain", Type: types.Int64}, {Name: "sdict", Type: types.Varchar}, {Name: "splain", Type: types.Varchar},
	{Name: "f", Type: types.Float64}, {Name: "b", Type: types.Bool}, {Name: "fx", Type: types.Float64},
}

func newEncDB(t *testing.T) *DB {
	t.Helper()
	db := newTestDB(t, ModeEon, 1, 1)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE enc (k INTEGER, irle INTEGER, ifor INTEGER, iplain INTEGER, sdict VARCHAR, splain VARCHAR, f FLOAT, b BOOLEAN, fx FLOAT)`)
	mustExec(t, s, `CREATE PROJECTION enc_p AS SELECT * FROM enc ORDER BY k SEGMENTED BY HASH(k) ALL NODES`)
	batch := types.NewBatch(encSchema, encRows)
	for i := 0; i < encRows; i++ {
		batch.AppendRow(encRow(i))
	}
	if err := db.LoadRows("enc", batch); err != nil {
		t.Fatal(err)
	}
	return db
}

// encodingsOnDisk returns the encodings of the blocks in the table's
// column files, read off each block's tag byte.
func encodingsOnDisk(t *testing.T, db *DB) map[colenc.Encoding]bool {
	t.Helper()
	seen := map[colenc.Encoding]bool{}
	node := db.Nodes()[0]
	fetch := db.trackedFetch(node, false, nil)
	node.catalog.Snapshot().ForEach(catalog.KindStorageContainer, func(o catalog.Object) bool {
		sc := o.(*catalog.StorageContainer)
		if len(sc.Files) != len(encSchema) {
			t.Fatalf("container %d has %d column files, want one per column", sc.OID, len(sc.Files))
		}
		for _, ref := range sc.Files {
			data, err := fetch(db.Context(), ref.Path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := rosfile.NewReader(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, blk := range r.Footer().Blocks {
				seen[colenc.Encoding(data[blk.Offset])] = true
			}
		}
		return true
	})
	return seen
}

// TestScanDifferential compares the vectorized scan (decode the predicate
// columns, select, decode the rest for survivors) with the row-engine scan
// (decode everything first) and with a model over the source rows, across
// every encoding with NULLs × predicate shapes × delete-vector states.
func TestScanDifferential(t *testing.T) {
	db := newEncDB(t)
	written := map[colenc.Encoding]bool{colenc.Plain: true, colenc.RLE: true, colenc.Delta: true,
		colenc.FOR: true, colenc.Decimal: true, colenc.Dict: true}
	if seen := encodingsOnDisk(t, db); !maps.Equal(seen, written) {
		t.Fatalf("table holds encodings %v, want every one the writer emits: %v", seen, written)
	}

	ifor := func(i int) (int, bool) { return i * 7919 % 1000, i%11 != 3 }
	preds := []struct {
		name, where string
		match       func(i int) bool
	}{
		{"no predicate", "", func(int) bool { return true }},
		{"first column", "k < 5000", func(i int) bool { return i < 5000 }},
		{"non-first column only", "ifor = 17", func(i int) bool { v, ok := ifor(i); return ok && v == 17 }},
		{"dict column", "sdict = 'd3'", func(i int) bool { return i%7 != 6 && i*31%7 == 3 }},
		{"constant true", "1 = 1", func(int) bool { return true }},
		{"constant false", "1 = 0", func(int) bool { return false }},
		{"all pass", "k >= 0", func(int) bool { return true }},
		{"none pass, not prunable", "iplain = 12345", func(int) bool { return false }},
		{"partial", "ifor < 100", func(i int) bool { v, ok := ifor(i); return ok && v < 100 }},
		{"is null", "splain IS NULL", func(i int) bool { return i%19 == 4 }},
		{"two columns", "f > 50 AND b", func(i int) bool { return i%23 != 1 && float64(i%97)+0.5 > 50 && i%29 != 7 && i%3 == 0 }},
		{"or", "irle = 3 OR ifor = 5", func(i int) bool {
			v, ok := ifor(i)
			return (i%13 != 5 && i/100 == 3) || (ok && v == 5)
		}},
		{"row fallback", "ABS(f) > 90", func(i int) bool { return i%23 != 1 && float64(i%97)+0.5 > 90 }},
		{"plain float column", "fx < 100", func(i int) bool { return i%31 != 9 && float64(i)/math.Pi < 100 }},
	}
	deleted := map[int]bool{}
	phases := []struct {
		name string
		del  func(s *Session)
	}{
		{"no delete vector", func(*Session) {}},
		{"partial", func(s *Session) {
			mustExec(t, s, `DELETE FROM enc WHERE ifor = 3`)
			for i := 0; i < encRows; i++ {
				if v, ok := ifor(i); ok && v == 3 {
					deleted[i] = true
				}
			}
		}},
		{"whole block deleted", func(s *Session) {
			mustExec(t, s, `DELETE FROM enc WHERE k >= 4096 AND k < 8192`)
			for i := 4096; i < 8192; i++ {
				deleted[i] = true
			}
		}},
	}

	render := func(rows []types.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			parts := make([]string, len(r))
			for j, d := range r {
				parts[j] = d.String()
			}
			out[i] = strings.Join(parts, "|")
		}
		return out
	}
	for _, ph := range phases {
		ph.del(db.NewSession())
		for _, p := range preds {
			t.Run(ph.name+"/"+p.name, func(t *testing.T) {
				q := "SELECT k, irle, ifor, iplain, sdict, splain, f, b, fx FROM enc"
				if p.where != "" {
					q += " WHERE " + p.where
				}
				q += " ORDER BY k"
				vec, row := db.NewSession(), db.NewSession()
				row.RowEngine = true
				got, ref := render(mustQuery(t, vec, q).Rows()), render(mustQuery(t, row, q).Rows())
				var want []string
				for i := 0; i < encRows; i++ {
					if !deleted[i] && p.match(i) {
						want = append(want, render([]types.Row{encRow(i)})[0])
					}
				}
				if len(got) != len(want) || len(ref) != len(want) {
					t.Fatalf("vectorized %d rows, row engine %d, model %d", len(got), len(ref), len(want))
				}
				for i := range want {
					if got[i] != want[i] || ref[i] != want[i] {
						t.Fatalf("row %d: vectorized %s, row engine %s, model %s", i, got[i], ref[i], want[i])
					}
				}
			})
		}
	}
}

// TestScanDecodesAfterItFilters pins what a block costs: the vectorized
// scan decodes only the predicate column of a block no row of which
// survives, and nothing at all of a block the delete vectors cover, while
// the row engine decodes every column of every block it filters.
func TestScanDecodesAfterItFilters(t *testing.T) {
	db := newEncDB(t)
	const none = "SELECT k, splain FROM enc WHERE iplain = 12345" // scans 3 columns, matches nothing
	scan := func(rowEngine bool, q string) ScanStats {
		s := db.NewSession()
		s.RowEngine = rowEngine
		mustQuery(t, s, q)
		return s.LastScanStats()
	}
	if st := scan(false, none); st.BlocksScanned != 3 || st.ColumnBlocksDecoded != 3 || st.ColumnBlocksSkipped != 6 {
		t.Errorf("vectorized, no survivor: %d blocks, %d column blocks decoded, %d skipped; want 3, 3, 6",
			st.BlocksScanned, st.ColumnBlocksDecoded, st.ColumnBlocksSkipped)
	}
	if st := scan(true, none); st.BlocksScanned != 3 || st.ColumnBlocksDecoded != 9 || st.ColumnBlocksSkipped != 0 {
		t.Errorf("row engine, no survivor: %d blocks, %d column blocks decoded, %d skipped; want 3, 9, 0",
			st.BlocksScanned, st.ColumnBlocksDecoded, st.ColumnBlocksSkipped)
	}
	// One matching row: its block decodes all three columns, the others one.
	if st := scan(false, "SELECT k, splain FROM enc WHERE iplain = 0"); st.ColumnBlocksDecoded != 5 || st.ColumnBlocksSkipped != 4 {
		t.Errorf("vectorized, one survivor: %d column blocks decoded, %d skipped; want 5, 4", st.ColumnBlocksDecoded, st.ColumnBlocksSkipped)
	}
	// No predicate: every column of every block, once.
	if st := scan(false, "SELECT k, splain FROM enc"); st.ColumnBlocksDecoded != 6 || st.ColumnBlocksSkipped != 0 {
		t.Errorf("vectorized, no predicate: %d column blocks decoded, %d skipped; want 6, 0", st.ColumnBlocksDecoded, st.ColumnBlocksSkipped)
	}
	mustExec(t, db.NewSession(), `DELETE FROM enc WHERE k >= 4096 AND k < 8192`)
	for _, rowEngine := range []bool{false, true} {
		if st := scan(rowEngine, "SELECT k, splain FROM enc"); st.BlocksScanned != 3 || st.ColumnBlocksDecoded != 4 || st.ColumnBlocksSkipped != 2 {
			t.Errorf("rowEngine=%v, middle block deleted: %d blocks, %d column blocks decoded, %d skipped; want 3, 4, 2",
				rowEngine, st.BlocksScanned, st.ColumnBlocksDecoded, st.ColumnBlocksSkipped)
		}
	}
}
