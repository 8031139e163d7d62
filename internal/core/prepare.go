package core

import (
	"fmt"

	"eon/internal/sql"
	"eon/internal/types"
)

// PreparedStatement is a SELECT parsed and validated once and executable
// many times with different parameter values. Execution goes through the
// same staged lifecycle as Session.Query — the plan cache serves the
// bound plan (keyed by the statement's normalized text), so after the
// first execution every Query call skips lexing, parsing and planning
// until DDL changes a table the statement reads, and only substitutes
// parameters into copies of the param-bearing plan nodes.
type PreparedStatement struct {
	session *Session
	sqlText string
	norm    string
	// sel is the parsed AST, shared by every execution: one that misses
	// the plan cache plans a clone of it.
	sel     *sql.Select
	nparams int
}

// Prepare parses and validates a SELECT for repeated execution with bind
// parameters ("?" positional or $N ordinals).
func (s *Session) Prepare(sqlText string) (*PreparedStatement, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		s.db.parseErrors.Inc()
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("core: Prepare requires a SELECT; use Execute for %T", stmt)
	}
	return &PreparedStatement{
		session: s,
		sqlText: sqlText,
		norm:    sql.Normalize(sqlText),
		sel:     sel,
		nparams: sql.NumParams(sel),
	}, nil
}

// NumParams returns the number of bind parameters the statement expects.
func (ps *PreparedStatement) NumParams() int { return ps.nparams }

// SQL returns the statement's original text.
func (ps *PreparedStatement) SQL() string { return ps.sqlText }

// Query executes the prepared statement with the given parameter values
// (args[i] binds $i+1).
func (ps *PreparedStatement) Query(args ...types.Datum) (*Result, error) {
	if len(args) != ps.nparams {
		return nil, fmt.Errorf("core: prepared statement takes %d parameters, got %d", ps.nparams, len(args))
	}
	return ps.session.run(&queryRequest{
		sqlText: ps.sqlText,
		norm:    ps.norm,
		sel:     ps.sel,
		shared:  true,
		args:    args,
		nparams: ps.nparams,
	})
}
