package core

import (
	"fmt"
	"strings"

	"eon/internal/catalog"
	"eon/internal/exec"
	"eon/internal/expr"
	"eon/internal/sql"
	"eon/internal/types"
)

// createLiveAggProjection validates and registers a live aggregate
// projection (paper §2.1): pre-computed partial aggregates grouped by the
// projection's plain columns, maintained at load time, "trading the
// ability to maintain pre-computed partial aggregate expressions against
// restrictions on how the base table can be updated".
func (db *DB) createLiveAggProjection(init *Node, txn *catalog.Txn, tbl *catalog.Table, stmt *sql.CreateProjection) error {
	if len(stmt.Cols) == 0 {
		return fmt.Errorf("core: live aggregate projection needs at least one group column")
	}
	groupSet := map[string]bool{}
	for _, c := range stmt.Cols {
		if tbl.Columns.ColumnIndex(c) < 0 {
			return fmt.Errorf("core: table %q has no column %q", tbl.Name, c)
		}
		groupSet[strings.ToLower(c)] = true
	}
	if len(stmt.GroupBy) > 0 {
		if len(stmt.GroupBy) != len(stmt.Cols) {
			return fmt.Errorf("core: GROUP BY must list exactly the projection's plain columns")
		}
		for _, g := range stmt.GroupBy {
			if !groupSet[strings.ToLower(g)] {
				return fmt.Errorf("core: GROUP BY column %q is not a projection column", g)
			}
		}
	}

	liveSchema := make(types.Schema, 0, len(stmt.Cols)+len(stmt.Aggs))
	for _, c := range stmt.Cols {
		idx := tbl.Columns.ColumnIndex(c)
		liveSchema = append(liveSchema, tbl.Columns[idx])
	}
	var liveAggs []catalog.LiveAgg
	usedNames := map[string]bool{}
	for k := range groupSet {
		usedNames[k] = true
	}
	for _, a := range stmt.Aggs {
		la := catalog.LiveAgg{Col: a.Col}
		var typ types.Type
		switch a.Op {
		case sql.AggCountStar:
			la.Op = "countstar"
			typ = types.Int64
		case sql.AggCount:
			la.Op = "count"
			typ = types.Int64
		case sql.AggSum:
			la.Op = "sum"
		case sql.AggMin:
			la.Op = "min"
		case sql.AggMax:
			la.Op = "max"
		default:
			return fmt.Errorf("core: live aggregate projections support SUM/COUNT/MIN/MAX, not %v", a.Op)
		}
		if la.Op != "countstar" {
			idx := tbl.Columns.ColumnIndex(a.Col)
			if idx < 0 {
				return fmt.Errorf("core: table %q has no column %q", tbl.Name, a.Col)
			}
			switch la.Op {
			case "sum":
				phys := tbl.Columns[idx].Type.Physical()
				if phys != types.Int64 && phys != types.Float64 {
					return fmt.Errorf("core: SUM requires a numeric column, %q is %s", a.Col, tbl.Columns[idx].Type)
				}
				typ = tbl.Columns[idx].Type.Physical()
			case "min", "max":
				typ = tbl.Columns[idx].Type
			}
		}
		name := a.Alias
		if name == "" {
			if la.Op == "countstar" {
				name = "count_star"
			} else {
				name = la.Op + "_" + strings.ToLower(a.Col)
			}
		}
		if usedNames[strings.ToLower(name)] {
			return fmt.Errorf("core: duplicate live aggregate column %q", name)
		}
		usedNames[strings.ToLower(name)] = true
		la.Name = name
		liveAggs = append(liveAggs, la)
		liveSchema = append(liveSchema, types.Column{Name: name, Type: typ})
	}

	// Sort and segmentation default to (and must stay within) the group
	// columns, so groups are co-located and per-node merges suffice.
	sortKey := stmt.OrderBy
	if len(sortKey) == 0 {
		sortKey = append([]string(nil), stmt.Cols...)
	}
	for _, s := range sortKey {
		if !groupSet[strings.ToLower(s)] {
			return fmt.Errorf("core: live aggregate sort column %q must be a group column", s)
		}
	}
	var segCols []string
	if !stmt.Replicated {
		segCols = stmt.SegmentBy
		if len(segCols) == 0 {
			segCols = append([]string(nil), stmt.Cols...)
		}
		for _, s := range segCols {
			if !groupSet[strings.ToLower(s)] {
				return fmt.Errorf("core: live aggregate segmentation column %q must be a group column", s)
			}
		}
	}

	proj := &catalog.Projection{
		OID:      init.catalog.NewOID(),
		TableOID: tbl.OID,
		Name:     stmt.Name,
		Columns:  stmt.Cols, SortKey: sortKey, SegmentCols: segCols,
		LiveAggs: liveAggs, LiveSchema: liveSchema,
	}
	txn.Put(proj)
	if db.mode == ModeEnterprise && len(segCols) > 0 && len(db.order) > 1 && stmt.KSafe != 0 {
		buddy := proj.Clone().(*catalog.Projection)
		buddy.OID = init.catalog.NewOID()
		buddy.Name = stmt.Name + "_b1"
		buddy.BuddyOffset = 1
		buddy.BaseOID = proj.OID
		txn.Put(buddy)
	}
	_, err := db.commit(init, txn, nil)
	return err
}

// liveAggDefs maps a projection's aggregates to execution AggDefs over a
// source schema. merge selects re-aggregation semantics (counts sum
// instead of counting) for compaction and query-time merging.
func liveAggDefs(proj *catalog.Projection, source types.Schema, merge bool) ([]exec.AggDef, error) {
	var defs []exec.AggDef
	for _, la := range proj.LiveAggs {
		def := exec.AggDef{Name: la.Name}
		argName := la.Col
		if merge {
			argName = la.Name // partials live in the projection's own column
		}
		if la.Op != "countstar" || merge {
			ref := expr.Col(argName)
			if err := expr.Bind(ref, source); err != nil {
				return nil, err
			}
			def.Arg = ref
		}
		switch la.Op {
		case "countstar":
			if merge {
				def.Kind = exec.AggCountMerge
			} else {
				def.Kind = exec.AggCountStar
			}
		case "count":
			if merge {
				def.Kind = exec.AggCountMerge
			} else {
				def.Kind = exec.AggCount
			}
		case "sum":
			def.Kind = exec.AggSum
		case "min":
			def.Kind = exec.AggMin
		case "max":
			def.Kind = exec.AggMax
		default:
			return nil, fmt.Errorf("core: unknown live aggregate op %q", la.Op)
		}
		defs = append(defs, def)
	}
	return defs, nil
}

// aggregateForLiveProjection turns a source batch into the projection's
// physical rows: groups plus aggregate values, in LiveSchema order. With
// merge=false the source is raw table rows (load path); with merge=true
// it is previously aggregated projection rows (mergeout re-aggregation).
func aggregateForLiveProjection(proj *catalog.Projection, source types.Schema, batch *types.Batch, merge bool) (*types.Batch, error) {
	var keys []expr.Expr
	var keyNames []string
	for _, g := range proj.Columns {
		ref := expr.Col(g)
		if err := expr.Bind(ref, source); err != nil {
			return nil, err
		}
		keys = append(keys, ref)
		keyNames = append(keyNames, g)
	}
	defs, err := liveAggDefs(proj, source, merge)
	if err != nil {
		return nil, err
	}
	op := exec.NewHashAggregate(exec.NewSource(source, batch), keys, keyNames, defs, false)
	out, err := exec.Collect(op)
	if err != nil {
		return nil, err
	}
	// Restore the projection's logical column types (e.g. Date keys).
	for i := range out.Cols {
		out.Cols[i].Typ = proj.LiveSchema[i].Type
	}
	return out, nil
}
