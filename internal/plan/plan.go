// Package plan defines the vendor-neutral query-execution-plan tree that
// LANTERN operates on, together with a pluggable dialect registry
// (registry.go) and one file per built-in plan format, each holding the
// format's document types, its parser and its formatter: PostgreSQL-style
// EXPLAIN (FORMAT JSON) documents (pg.go), SQL-Server-style XML showplans
// (sqlserver.go), MySQL-style EXPLAIN FORMAT=JSON documents (mysql.go),
// and the engine's lossless native JSON (native.go). The substrate engine
// bridges its physical plan into a Node tree and writes every EXPLAIN
// format but text with these formatters, so each format is declared once.
// This makes the paper's architecture note operational: "we can extend
// lantern to any rdbms easily by writing a parser to create operator
// trees" — write a ParseFunc, Register it, seed POOL descriptions for the
// new operator vocabulary, and add a testdata/<dialect> conformance
// corpus.
package plan

import (
	"errors"
	"fmt"
	"strings"
)

// Canonical attribute keys shared by every format. RULE-LANTERN fills its
// templates from these.
const (
	AttrRelation  = "relation"  // base table name
	AttrAlias     = "alias"     // binding alias
	AttrFilter    = "filter"    // residual / HAVING filter text
	AttrJoinCond  = "joincond"  // hash/merge/nested-loop join condition text
	AttrJoinType  = "jointype"  // "Left" on a left outer join; unset on an inner one
	AttrIndexCond = "indexcond" // index scan condition text
	AttrIndexName = "indexname"
	AttrSortKey   = "sortkey"  // sort keys, joined with ", "
	AttrGroupKey  = "groupkey" // group keys, joined with ", "
	AttrStrategy  = "strategy" // aggregate strategy (Plain/Sorted/Hashed)
)

// Actual-stats attribute keys, standardized across dialects. They are set
// only on plans that carry runtime instrumentation (EXPLAIN ANALYZE
// documents, or trees bridged directly from an instrumented execution) and
// sit alongside the estimated Rows/Cost fields, so narrators can contrast
// what the optimizer expected with what actually happened.
const (
	// AttrActualRows is the total number of rows the operator produced
	// across all loops, as a decimal integer.
	AttrActualRows = "actualrows"
	// AttrLoops is the number of times the operator was (re)started, as a
	// decimal integer (PostgreSQL's loops).
	AttrLoops = "loops"
	// AttrTimeMs is the operator's inclusive wall time in milliseconds.
	// Unlike the other actuals it varies run to run, so it is excluded
	// from the canonical serialization (and therefore from cache keys).
	AttrTimeMs = "timems"
	// AttrWorkers is the degree of parallelism an operator actually ran
	// with, set only when >= 2 (a morsel-parallel driver scan). It is
	// deterministic for a given plan and configuration, so unlike
	// AttrTimeMs it participates in the canonical serialization.
	AttrWorkers = "workers"
	// AttrWorkersWanted is the degree of parallelism the engine's DOP
	// policy would have chosen from the operator's actual row count, set
	// only when a cardinality under-estimate made the run use fewer
	// workers than warranted.
	AttrWorkersWanted = "workerswanted"
	// AttrSegments / AttrSegmentsPruned count the columnar segments a scan
	// considered: pruned segments were skipped wholesale because their zone
	// maps refuted the filter, scanned segments were actually read. Set only
	// when the scan saw at least one sealed segment, so small tables that
	// live entirely in the row-major tail keep pre-segment plan texts. Both
	// are deterministic for a given dataset and query, so they participate
	// in the canonical serialization.
	AttrSegments       = "segments"
	AttrSegmentsPruned = "segspruned"
)

var errNilTree = errors.New("plan: cannot serialize a nil tree")

// Node is one operator of a vendor-neutral QEP tree.
type Node struct {
	// Name is the physical operator name exactly as the source engine
	// reports it ("Hash Join" for PostgreSQL, "Hash Match" for SQL Server).
	Name string
	// Source identifies the dialect the node was parsed from ("pg",
	// "sqlserver").
	Source   string
	Attrs    map[string]string
	Rows     float64
	Cost     float64
	Children []*Node
}

// Attr returns the attribute value, or "".
func (n *Node) Attr(key string) string {
	if n.Attrs == nil {
		return ""
	}
	return n.Attrs[key]
}

// SetAttr stores a non-empty attribute value.
func (n *Node) SetAttr(key, val string) {
	if val == "" {
		return
	}
	if n.Attrs == nil {
		n.Attrs = make(map[string]string)
	}
	n.Attrs[key] = val
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

// WalkPostOrder visits children before parents — the traversal order
// RULE-LANTERN narrates in (Algorithm 1 of the paper).
func (n *Node) WalkPostOrder(fn func(*Node)) {
	if n == nil {
		return
	}
	for _, c := range n.Children {
		c.WalkPostOrder(fn)
	}
	fn(n)
}

// CountNodes returns the number of operators in the tree.
func (n *Node) CountNodes() int {
	c := 0
	n.Walk(func(*Node) { c++ })
	return c
}

// OperatorNames returns the distinct operator names in the tree, in
// pre-order first-appearance order.
func (n *Node) OperatorNames() []string {
	seen := make(map[string]bool)
	var out []string
	n.Walk(func(x *Node) {
		if !seen[x.Name] {
			seen[x.Name] = true
			out = append(out, x.Name)
		}
	})
	return out
}

// Canon returns a canonical key for an operator name: lower-cased with
// spaces removed ("Hash Join" -> "hashjoin"), matching POEM object names.
func Canon(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, " ", ""))
}

// String renders a compact indented view of the tree for debugging and for
// the visual-tree presentation mode.
func (n *Node) String() string {
	var sb strings.Builder
	var rec func(*Node, int)
	rec = func(x *Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(x.Name)
		if rel := x.Attr(AttrRelation); rel != "" {
			fmt.Fprintf(&sb, " (%s)", rel)
		}
		sb.WriteString("\n")
		for _, c := range x.Children {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return sb.String()
}
