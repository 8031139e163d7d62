package planner

import (
	"fmt"
	"strings"

	"eon/internal/catalog"
	"eon/internal/expr"
	"eon/internal/sql"
	"eon/internal/types"
)

// PositionSchema is what a Positions scan appends to its columns: the
// storage container each surviving row lives in and its position there.
var PositionSchema = types.Schema{
	{Name: "_container", Type: types.Int64},
	{Name: "_position", Type: types.Int64},
}

// DML is a planned DELETE or UPDATE (§2.3): one Positions scan per
// projection of the table, each reading the columns its predicate needs
// and emitting where the rows it keeps are stored, so the statement can
// write a delete vector for every container holding one.
type DML struct {
	Table *catalog.Table
	// Scans holds one scan per projection, in catalog order, with the
	// predicate bound to that projection's columns; under Drop, only the
	// scan of the statement's rows.
	Scans []*Scan
	// Rows indexes the scan whose rows are the statement's rows: the
	// first base projection for DELETE (-1 if the table has none), and
	// for UPDATE the first base projection holding every column, which
	// that scan then reads.
	Rows int
	// Set, for UPDATE, computes the new row from a row of Scans[Rows]
	// (its columns in projection order, without the positions): one
	// expression per table column, the SET value or the column itself.
	Set []expr.Expr
	// Drop marks a statement without WHERE: every row goes, so it drops
	// every container of every projection, live aggregates included,
	// instead of writing delete vectors, and an UPDATE's re-insert
	// rebuilds them.
	Drop bool
}

// PlanDML plans a *sql.Delete or *sql.Update against one catalog
// snapshot, leaving the statement unmodified. Every check happens here,
// before the statement writes anything.
func PlanDML(snap *catalog.Snapshot, stmt sql.Statement) (*DML, error) {
	var table string
	var where expr.Expr
	var set []sql.SetClause // nil for DELETE
	switch st := stmt.(type) {
	case *sql.Delete:
		table, where = st.Table, st.Where
	case *sql.Update:
		table, where, set = st.Table, st.Where, st.Set
	default:
		return nil, fmt.Errorf("planner: %T is not DELETE or UPDATE", stmt)
	}
	tbl, ok := snap.TableByName(table)
	if !ok {
		return nil, fmt.Errorf("planner: unknown table %q", table)
	}
	projs := snap.ProjectionsOf(tbl.OID)
	d := &DML{Table: tbl, Rows: -1, Drop: where == nil}
	rows := -1
	for i, p := range projs {
		if p.IsLiveAggregate() {
			if !d.Drop {
				// The paper's trade-off (§2.1): live aggregates restrict
				// how the base table can be updated.
				return nil, fmt.Errorf("planner: table %q has a live aggregate projection; only DELETE or UPDATE without WHERE is supported", tbl.Name)
			}
			continue
		}
		if rows < 0 && p.BuddyOffset == 0 && (set == nil || len(p.Columns) == len(tbl.Columns)) {
			rows = i
		}
	}
	switch {
	case rows < 0 && set != nil:
		return nil, fmt.Errorf("planner: UPDATE requires a projection containing every column of %q", tbl.Name)
	case rows < 0 && len(projs) > 0:
		return nil, fmt.Errorf("planner: table %q has only live aggregate projections; DELETE needs a base projection", tbl.Name)
	}
	needed := map[string]bool{}
	if where != nil {
		for _, c := range expr.ColumnNames(where) {
			needed[strings.ToLower(c)] = true
		}
	}
	for i, p := range projs {
		if i != rows && (d.Drop || p.IsLiveAggregate()) {
			continue
		}
		if i == rows {
			d.Rows = len(d.Scans)
		}
		var cols []string
		for _, c := range p.Columns {
			if needed[strings.ToLower(c)] || (set != nil && i == rows) {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = p.Columns[:1] // a block's row count needs one column
		}
		s, err := positionScan(tbl, p, cols, where)
		if err != nil {
			return nil, err
		}
		d.Scans = append(d.Scans, s)
	}
	if set == nil {
		return d, nil
	}
	cols := d.Scans[d.Rows].OutSchema[:len(projs[rows].Columns)]
	d.Set = make([]expr.Expr, len(tbl.Columns))
	for i, c := range tbl.Columns {
		d.Set[i] = expr.Col(c.Name)
	}
	for _, sc := range set {
		i := tbl.Columns.ColumnIndex(sc.Column)
		if i < 0 {
			return nil, fmt.Errorf("planner: unknown column %q", sc.Column)
		}
		d.Set[i] = expr.Clone(sc.Value)
	}
	for _, e := range d.Set {
		if err := expr.Bind(e, cols); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// positionScan builds the Positions scan of projection p reading cols,
// with its own copy of where bound to them.
func positionScan(tbl *catalog.Table, p *catalog.Projection, cols []string, where expr.Expr) (*Scan, error) {
	var schema types.Schema
	for _, c := range cols {
		idx := tbl.Columns.ColumnIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("planner: projection %q column %q missing from table", p.Name, c)
		}
		schema = append(schema, tbl.Columns[idx])
	}
	s := &Scan{
		Table: tbl, Proj: p, Alias: tbl.Name,
		Cols:       cols,
		OutSchema:  append(schema, PositionSchema...),
		Replicated: p.Replicated(),
		Positions:  true,
	}
	if where != nil {
		s.Pred = expr.Clone(where)
		if err := expr.Bind(s.Pred, schema); err != nil {
			return nil, fmt.Errorf("planner: predicate on projection %q: %w", p.Name, err)
		}
	}
	if !s.Replicated {
		for _, c := range p.SegmentCols {
			pos := schema.ColumnIndex(c)
			if pos < 0 {
				// The scan does not read every segmentation column: crunch
				// splits its shards by container instead of by hash.
				s.SegmentCols = nil
				break
			}
			s.SegmentCols = append(s.SegmentCols, pos)
		}
	}
	return s, nil
}
