package workload

import (
	"testing"

	"eon/internal/core"
)

func setupDB(t *testing.T, mode core.Mode, scale float64) *core.DB {
	t.Helper()
	db, err := core.Create(core.Config{
		Mode: mode,
		Nodes: []core.NodeSpec{
			{Name: "node1"}, {Name: "node2"}, {Name: "node3"},
		},
		ShardCount: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultTPCH(scale)
	s := db.NewSession()
	err = w.Setup(func(sql string) error {
		_, err := s.Execute(sql)
		return err
	}, db.LoadRows)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestTPCHGeneratorDeterministic(t *testing.T) {
	w := DefaultTPCH(0.05)
	a := w.Tables()
	b := w.Tables()
	for name, ba := range a {
		bb := b[name]
		if ba.NumRows() != bb.NumRows() {
			t.Fatalf("%s row count differs", name)
		}
		for i := 0; i < min(ba.NumRows(), 20); i++ {
			if ba.Row(i).String() != bb.Row(i).String() {
				t.Errorf("%s row %d differs", name, i)
			}
		}
	}
}

func TestTPCHSizes(t *testing.T) {
	w := DefaultTPCH(0.1)
	tables := w.Tables()
	if tables["customer"].NumRows() != w.Customers {
		t.Error("customer size")
	}
	if tables["lineitem"].NumRows() != w.Orders*w.LineitemsPerOrder {
		t.Error("lineitem size")
	}
	if tables["nation"].NumRows() == 0 {
		t.Error("nation empty")
	}
}

// All twenty Figure 10 queries must parse, plan and execute in both
// modes, and produce identical results across modes (same data, same
// engine semantics).
func TestAllQueriesBothModesAgree(t *testing.T) {
	scale := 0.05
	eonDB := setupDB(t, core.ModeEon, scale)
	entDB := setupDB(t, core.ModeEnterprise, scale)
	se := eonDB.NewSession()
	sn := entDB.NewSession()
	for _, q := range TPCHQueries() {
		t.Run(q.Name, func(t *testing.T) {
			re, err := se.Query(q.SQL)
			if err != nil {
				t.Fatalf("eon: %v", err)
			}
			rn, err := sn.Query(q.SQL)
			if err != nil {
				t.Fatalf("enterprise: %v", err)
			}
			// Compare row multisets. Distributed aggregation sums floats in
			// a different order per mode, per shard assignment and per
			// gather arrival order, so the last bits legitimately differ.
			if err := MatchRows(rn.Rows(), re.Rows()); err != nil {
				t.Errorf("eon vs enterprise: %v", err)
			}
		})
	}
}

func TestDashboardQuery(t *testing.T) {
	db := setupDB(t, core.ModeEon, 0.05)
	s := db.NewSession()
	res, err := s.Query(DashboardQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 || res.NumRows() > 5 {
		t.Errorf("dashboard rows = %d", res.NumRows())
	}
}

func TestNodeDownQuery(t *testing.T) {
	db := setupDB(t, core.ModeEon, 0.05)
	s := db.NewSession()
	res, err := s.Query(NodeDownQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 { // three return flags
		t.Errorf("rows = %d", res.NumRows())
	}
}

func TestIoTBatches(t *testing.T) {
	w := DefaultIoT()
	a := w.Batch(1)
	b := w.Batch(1)
	c := w.Batch(2)
	if a.NumRows() != w.RowsPerLoad {
		t.Error("batch size")
	}
	if a.Row(0).String() != b.Row(0).String() {
		t.Error("same seq must be deterministic")
	}
	if a.Row(0).String() == c.Row(0).String() {
		t.Error("different seq should differ")
	}
}

func TestIoTLoadPath(t *testing.T) {
	db, err := core.Create(core.Config{
		Mode:       core.ModeEon,
		Nodes:      []core.NodeSpec{{Name: "n1"}, {Name: "n2"}, {Name: "n3"}},
		ShardCount: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultIoT()
	s := db.NewSession()
	for _, stmt := range w.DDL() {
		if _, err := s.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 5; i++ {
		if err := db.LoadRows("readings", w.Batch(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Query(`SELECT COUNT(*) FROM readings`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Cols[0].Ints[0] != int64(5*w.RowsPerLoad) {
		t.Errorf("count = %v", res.Rows())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
