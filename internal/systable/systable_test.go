package systable

import (
	"strings"
	"testing"
	"time"

	"eon/internal/obs"
	"eon/internal/types"
)

func testDef(name string) *Def {
	return &Def{
		Name:    name,
		Columns: types.Schema{{Name: "v", Type: types.Int64}},
		Fill: func() (*types.Batch, error) {
			b := types.NewBatch(types.Schema{{Name: "v", Type: types.Int64}}, 1)
			b.AppendRow(types.Row{types.NewInt(7)})
			return b, nil
		},
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(testDef("public.t")); err == nil {
		t.Error("registering outside v_monitor succeeded")
	}
	if err := r.Register(&Def{Name: "v_monitor.t"}); err == nil {
		t.Error("registering without columns/fill succeeded")
	}
	if err := r.Register(testDef("v_monitor.t")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(testDef("v_monitor.t")); err == nil {
		t.Error("duplicate registration succeeded")
	}
	// Names are case-insensitive on lookup and synthesized handles carry
	// OID 0 (virtual tables live outside the transactional catalog).
	tbl, ok := r.LookupVirtual("V_MONITOR.T")
	if !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if tbl.OID != 0 {
		t.Errorf("virtual table OID = %d, want 0", tbl.OID)
	}
	if _, ok := r.LookupVirtual("v_monitor.missing"); ok {
		t.Error("lookup of unregistered table succeeded")
	}
	if got := r.Names(); len(got) != 1 || got[0] != "v_monitor.t" {
		t.Errorf("Names() = %v", got)
	}
}

func TestFillNormalizes(t *testing.T) {
	r := NewRegistry()
	cols := types.Schema{{Name: "v", Type: types.Int64}}
	if err := r.Register(&Def{
		Name: "v_monitor.empty", Columns: cols,
		Fill: func() (*types.Batch, error) { return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	b, err := r.Fill("v_monitor.empty")
	if err != nil {
		t.Fatal(err)
	}
	if b == nil || b.NumRows() != 0 || len(b.Cols) != 1 {
		t.Fatalf("nil fill not normalized to an empty batch: %+v", b)
	}
	if err := r.Register(&Def{
		Name: "v_monitor.bad", Columns: cols,
		Fill: func() (*types.Batch, error) {
			return types.NewBatch(types.Schema{
				{Name: "a", Type: types.Int64}, {Name: "b", Type: types.Int64},
			}, 0), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fill("v_monitor.bad"); err == nil {
		t.Error("column-count mismatch not rejected")
	}
	if _, err := r.Fill("v_monitor.missing"); err == nil {
		t.Error("fill of unknown table succeeded")
	}
}

func TestDCDefSchemaAndFill(t *testing.T) {
	dc := obs.NewDataCollector(obs.DCPolicy{})
	ring := dc.Ring(obs.DCRingDef{
		Name: "widgets", ACol: "path", BCol: "outcome", VCols: []string{"bytes", "wait_ns"},
	})
	before := time.Now().UnixMicro()
	ring.Emit(obs.DCEvent{Node: "n1", A: "/a", B: "hit", V1: 10, V2: 20})
	ring.Emit(obs.DCEvent{Node: "n2", A: "/b", B: "miss", V1: 30, V2: 40})

	d := DCDef(ring)
	if d.Name != "v_monitor.dc_widgets" {
		t.Errorf("table name = %q", d.Name)
	}
	wantCols := []string{"time", "node", "path", "outcome", "bytes", "wait_ns"}
	if len(d.Columns) != len(wantCols) {
		t.Fatalf("columns = %v", d.Columns)
	}
	for i, c := range d.Columns {
		if c.Name != wantCols[i] {
			t.Errorf("column %d = %q, want %q", i, c.Name, wantCols[i])
		}
	}
	b, err := d.Fill()
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", b.NumRows())
	}
	// Events come back oldest-first with their values mapped per column.
	row := b.Row(0)
	if row[1].S != "n1" || row[2].S != "/a" || row[3].S != "hit" || row[4].I != 10 || row[5].I != 20 {
		t.Errorf("row 0 = %v", row)
	}
	if ts := row[0].I; ts < before || ts > time.Now().UnixMicro() {
		t.Errorf("timestamp %d outside test window", ts)
	}

	// A ring without string columns omits them from the schema.
	bare := DCDef(dc.Ring(obs.DCRingDef{Name: "bare", VCols: []string{"v"}}))
	if len(bare.Columns) != 3 { // time, node, v
		t.Errorf("bare columns = %v", bare.Columns)
	}
}

func TestMetricsDef(t *testing.T) {
	snap := obs.Snapshot{
		Counters:   map[string]int64{"b.count": 2, "a.count": 1},
		Gauges:     map[string]int64{"g": -5},
		Histograms: map[string]HistStatsAlias{"h": {Count: 3, Sum: 30, Max: 20, P50: 10, P95: 19, P99: 20}},
	}
	d := MetricsDef(func() obs.Snapshot { return snap })
	b, err := d.Fill()
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", b.NumRows())
	}
	// Counters first (sorted), then gauges, then histograms.
	r0, r2, r3 := b.Row(0), b.Row(2), b.Row(3)
	if r0[0].S != "a.count" || r0[1].S != "counter" || r0[2].I != 1 {
		t.Errorf("row 0 = %v", r0)
	}
	if !r0[3].Null {
		t.Error("counter row has a non-null histogram column")
	}
	if r2[0].S != "g" || r2[1].S != "gauge" || r2[2].I != -5 {
		t.Errorf("gauge row = %v", r2)
	}
	if r3[0].S != "h" || r3[1].S != "histogram" || !r3[2].Null || r3[3].I != 3 || r3[7].I != 19 {
		t.Errorf("histogram row = %v", r3)
	}
}

// HistStatsAlias keeps the test readable; the map literal above needs
// the element type spelled once.
type HistStatsAlias = obs.HistStats

func TestProfileRows(t *testing.T) {
	p := &obs.Profile{
		Name: "query", Wall: 100, RowsOut: 5,
		Children: []*obs.Profile{
			{Name: "scan:t", Wall: 60, RowsOut: 5, Children: []*obs.Profile{
				{Name: "fragment:n1", Wall: 50, Bytes: 640},
			}},
			{Name: "join", Wall: 10, Attrs: map[string]int64{"probe_rows": 40, "build_rows": 8, "build_second": 1}},
		},
	}
	b := types.NewBatch(ProfileSchema(), 0)
	ProfileRows(b, "session:9", 3, p)
	if b.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", b.NumRows())
	}
	paths := []string{"query", "query/scan:t", "query/scan:t/fragment:n1", "query/join"}
	depths := []int64{0, 1, 2, 1}
	for i := 0; i < b.NumRows(); i++ {
		row := b.Row(i)
		if row[0].S != "session:9" || row[1].I != 3 {
			t.Errorf("row %d origin/seq = %v/%v", i, row[0].S, row[1].I)
		}
		if row[2].S != paths[i] || row[4].I != depths[i] {
			t.Errorf("row %d path=%q depth=%d, want %q/%d", i, row[2].S, row[4].I, paths[i], depths[i])
		}
		if !strings.HasSuffix(row[2].S, row[3].S) {
			t.Errorf("row %d path %q does not end in operator %q", i, row[2].S, row[3].S)
		}
	}
	if got := b.Row(3)[9].S; got != "build_rows=8 build_second=1 probe_rows=40" {
		t.Errorf("join attrs = %q", got)
	}
	if got := b.Row(0)[9].S; got != "" {
		t.Errorf("span without attributes renders %q", got)
	}
	// A nil profile appends nothing.
	ProfileRows(b, "x", 0, nil)
	if b.NumRows() != 4 {
		t.Error("nil profile appended rows")
	}
}
