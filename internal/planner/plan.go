// Package planner turns parsed SELECT statements into distributed
// physical plans (paper §4). The planner chooses a projection per table,
// pushes predicates to scans, detects co-segmented joins and aggregations
// that need no reshuffle, decides between local and two-phase
// aggregation, and annotates where exchanges (reshuffle or broadcast)
// are required. The same plans execute in Enterprise and Eon mode; only
// the mapping of hash-space regions to nodes differs.
package planner

import (
	"eon/internal/catalog"
	"eon/internal/exec"
	"eon/internal/expr"
	"eon/internal/types"
)

// Node is a physical plan node. Schemas use qualified column names
// ("alias.column") so joins cannot alias-collide.
type Node interface {
	Schema() types.Schema
}

// JoinStrategy describes how a join is distributed.
type JoinStrategy uint8

// Join strategies (§4: identical segmentation avoids any reshuffle).
const (
	// JoinLocal needs no data movement: sides are co-segmented on the
	// join keys or one side is replicated.
	JoinLocal JoinStrategy = iota
	// JoinBroadcastRight ships the (small) right side to every
	// participating node.
	JoinBroadcastRight
	// JoinReshuffleBoth repartitions both sides by join key.
	JoinReshuffleBoth
)

// String names the strategy.
func (s JoinStrategy) String() string {
	switch s {
	case JoinLocal:
		return "LOCAL"
	case JoinBroadcastRight:
		return "BROADCAST"
	case JoinReshuffleBoth:
		return "RESHUFFLE"
	}
	return "?"
}

// AggMode describes how an aggregation is distributed.
type AggMode uint8

// Aggregation modes.
const (
	// AggLocalFinal: group keys cover the stream's segmentation columns,
	// so per-node groups are disjoint and results are simply unioned
	// (§4: "a query that groups by column a does not need a reshuffle").
	AggLocalFinal AggMode = iota
	// AggTwoPhase: nodes emit partial states merged on the initiator.
	AggTwoPhase
	// AggInitiatorOnly: the aggregation runs once on the initiator over
	// the gathered stream (used after a global distinct for
	// COUNT(DISTINCT) on non-co-segmented data).
	AggInitiatorOnly
)

// String names the mode.
func (m AggMode) String() string {
	switch m {
	case AggLocalFinal:
		return "LOCAL"
	case AggTwoPhase:
		return "TWO-PHASE"
	case AggInitiatorOnly:
		return "INITIATOR"
	}
	return "?"
}

// Scan reads one table through a chosen projection.
type Scan struct {
	Table *catalog.Table
	Proj  *catalog.Projection
	// Alias is the table reference name in the query.
	Alias string
	// Cols are the projection column names read, in output order.
	Cols []string
	// OutSchema carries qualified names ("alias.col").
	OutSchema types.Schema
	// Pred is the pushed-down predicate bound to OutSchema (nil if
	// none).
	Pred expr.Expr
	// SegmentCols are the positions (in OutSchema) of the projection's
	// segmentation columns; nil if the projection is replicated.
	SegmentCols []int
	// Replicated marks a replicated-projection scan (executes on one
	// node).
	Replicated bool
	// Virtual marks a system-table scan (Proj is nil): the executor
	// materializes the table on the initiator from live monitoring state
	// instead of reading storage. Virtual scans are always Replicated.
	Virtual bool
	// Positions marks a DML scan (PlanDML): its output ends in
	// PositionSchema after the Cols.
	Positions bool
}

// Schema implements Node.
func (s *Scan) Schema() types.Schema { return s.OutSchema }

// Join is an inner equi-join node.
type Join struct {
	Left, Right Node
	// LeftKeys/RightKeys are column positions in the child schemas.
	LeftKeys, RightKeys []int
	Strategy            JoinStrategy
	// ResidualPred holds non-equi conjuncts of the ON condition, bound
	// to the join output schema (nil if none).
	ResidualPred expr.Expr
	// OutSegmentCols: positions (in the join output schema) by which the
	// output stream remains segmented; nil if segmentation is lost.
	OutSegmentCols []int
	outSchema      types.Schema
}

// Schema implements Node.
func (j *Join) Schema() types.Schema { return j.outSchema }

// Filter applies a bound predicate.
type Filter struct {
	Input Node
	Pred  expr.Expr
}

// Schema implements Node.
func (f *Filter) Schema() types.Schema { return f.Input.Schema() }

// Project evaluates output expressions.
type Project struct {
	Input Node
	Exprs []expr.Expr
	Names []string
	out   types.Schema
}

// Schema implements Node.
func (p *Project) Schema() types.Schema { return p.out }

// Aggregate groups and aggregates.
type Aggregate struct {
	Input    Node
	Keys     []expr.Expr
	KeyNames []string
	Aggs     []exec.AggDef
	Mode     AggMode
	out      types.Schema
}

// Schema implements Node.
func (a *Aggregate) Schema() types.Schema { return a.out }

// DistinctNode removes duplicate rows. Each node deduplicates its own
// stream; unless Local, the initiator deduplicates the union again.
type DistinctNode struct {
	Input Node
	// Local: the distinct columns cover the input's segmentation, so
	// equal rows are on one node and the per-node pass is final (§4).
	Local bool
}

// Schema implements Node.
func (d *DistinctNode) Schema() types.Schema { return d.Input.Schema() }

// Sort orders the stream; executed on the initiator.
type Sort struct {
	Input Node
	Keys  []exec.SortSpec
}

// Schema implements Node.
func (s *Sort) Schema() types.Schema { return s.Input.Schema() }

// Limit caps output rows; executed on the initiator.
type Limit struct {
	Input Node
	N     int64
}

// Schema implements Node.
func (l *Limit) Schema() types.Schema { return l.Input.Schema() }

// Plan is the root of a planned SELECT.
type Plan struct {
	Root Node
	// OutputNames are the final column labels.
	OutputNames []string
}

// Schema returns the output schema.
func (p *Plan) Schema() types.Schema { return p.Root.Schema() }
