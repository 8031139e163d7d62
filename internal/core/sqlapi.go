package core

import (
	"fmt"

	"eon/internal/sql"
	"eon/internal/types"
)

// Execute runs any SQL statement through a session: SELECTs return a
// Result; DDL and DML return a Result with an affected-row count where
// meaningful. A statement that fails to parse still counts into
// query.count / query.errors (plus query.parse_errors): unparseable
// input is a failed query, not a free operation.
func (s *Session) Execute(sqlText string) (*Result, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		s.db.queryCount.Inc()
		s.db.queryErrors.Inc()
		s.db.parseErrors.Inc()
		return nil, err
	}
	switch st := stmt.(type) {
	case *sql.Select:
		// Thread the original text so slow-query log entries carry it.
		return s.querySelect(st, sqlText)
	case *sql.CreateTable:
		return &Result{}, s.db.CreateTable(st)
	case *sql.CreateProjection:
		return &Result{}, s.db.CreateProjection(st)
	case *sql.Insert:
		return &Result{}, s.db.Insert(st)
	case *sql.Delete, *sql.Update:
		return s.run(&queryRequest{sqlText: sqlText, dml: st})
	case *sql.AlterAddColumn:
		return &Result{}, s.db.AlterAddColumn(st)
	case *sql.DropTable:
		return &Result{}, s.db.DropTable(st.Name)
	}
	return nil, fmt.Errorf("core: unsupported statement %T", stmt)
}

// countResult wraps an affected-row count as a one-row result.
func countResult(label string, n int64) *Result {
	schema := types.Schema{{Name: label, Type: types.Int64}}
	b := types.NewBatch(schema, 1)
	b.AppendRow(types.Row{types.NewInt(n)})
	return &Result{Columns: []string{label}, Batch: b}
}
