package engine

import (
	"lantern/internal/sqlparser"
)

// Op enumerates the physical operators the engine can plan and execute.
// The vocabulary matches the PostgreSQL operators the paper's examples use.
type Op int

// Physical operators.
const (
	OpSeqScan Op = iota
	OpIndexScan
	OpHash // build side of a hash join (auxiliary, as in the paper)
	OpHashJoin
	OpMergeJoin
	OpNestedLoop
	OpSort // explicit sort (auxiliary to merge join / group aggregate)
	OpMaterialize
	OpAggregate      // plain aggregate, no grouping
	OpHashAggregate  // grouped aggregate via hash table
	OpGroupAggregate // grouped aggregate over sorted input
	OpUnique
	OpLimit
	OpResult // the one row of no columns a SELECT without FROM reads
)

// Name returns the PostgreSQL-style node name used in EXPLAIN output.
func (o Op) Name() string {
	switch o {
	case OpSeqScan:
		return "Seq Scan"
	case OpIndexScan:
		return "Index Scan"
	case OpHash:
		return "Hash"
	case OpHashJoin:
		return "Hash Join"
	case OpMergeJoin:
		return "Merge Join"
	case OpNestedLoop:
		return "Nested Loop"
	case OpSort:
		return "Sort"
	case OpMaterialize:
		return "Materialize"
	case OpAggregate:
		return "Aggregate"
	case OpHashAggregate:
		return "HashAggregate"
	case OpGroupAggregate:
		return "GroupAggregate"
	case OpUnique:
		return "Unique"
	case OpLimit:
		return "Limit"
	case OpResult:
		return "Result"
	}
	return "Unknown"
}

// colRef identifies one column of a node's output. Base-table columns carry
// the table alias as qualifier; computed columns (aggregates) have an empty
// qualifier and the formatted expression text as name.
type colRef struct {
	Qual string
	Name string
}

// sortKey is one physical ordering key.
type sortKey struct {
	Expr sqlparser.Expr
	Desc bool
}

// aggSpec is one aggregate computed by an aggregate node.
type aggSpec struct {
	Call *sqlparser.FuncCall
	Name string // formatted text used as output column name
}

// Node is a node of the physical execution plan.
type Node struct {
	Op       Op
	Children []*Node

	// Scans.
	Relation  string // base table name
	Alias     string // alias used in the query ("" when same as Relation)
	IndexName string
	IndexCond sqlparser.Expr // condition satisfied via the index
	Filter    sqlparser.Expr // residual filter evaluated on each row

	// Joins.
	JoinType sqlparser.JoinType
	JoinCond sqlparser.Expr // equality condition (Hash Cond / Merge Cond)

	// Sort / Unique.
	SortKeys []sortKey
	// SortLimit > 0 marks a Sort directly under a Limit: only the first
	// SortLimit rows of the ordering are ever observed, so the streaming
	// executor may keep a bounded top-K heap instead of sorting everything.
	SortLimit int64

	// Aggregation.
	GroupKeys    []sqlparser.Expr
	Aggs         []aggSpec
	HavingFilter sqlparser.Expr

	// Limit. Limit < 0 means "no limit" (OFFSET-only node); Offset is the
	// number of leading rows discarded before counting.
	Limit  int64
	Offset int64

	// Planner annotations.
	Schema  []colRef // output columns
	EstRows float64
	EstCost float64   // total cost of this node including children
	sorted  []sortKey // physical ordering of the output, if any

	// DOP is the planner's parallelism decision for the driver scan of a
	// morsel-parallel plan (parallel.go): 0 = not considered, 1 =
	// considered but kept serial (small estimate), >= 2 = execute with
	// that many workers.
	DOP int
}

// Walk visits n and all descendants pre-order.
func (n *Node) Walk(fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// CountNodes returns the number of nodes in the plan tree.
func (n *Node) CountNodes() int {
	count := 0
	n.Walk(func(*Node) { count++ })
	return count
}
