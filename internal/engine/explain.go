package engine

import (
	"fmt"
	"strings"

	"lantern/internal/sqlparser"
)

// condText renders a plan condition the way PostgreSQL does: wrapped in
// parentheses with each comparison side parenthesized.
func condText(e sqlparser.Expr) string {
	if e == nil {
		return ""
	}
	conds := sqlparser.SplitConjuncts(e)
	parts := make([]string, len(conds))
	for i, c := range conds {
		if be, ok := c.(*sqlparser.BinaryExpr); ok {
			if op, ok2 := map[sqlparser.BinOp]string{
				sqlparser.OpEq: "=", sqlparser.OpNe: "<>", sqlparser.OpLt: "<",
				sqlparser.OpLe: "<=", sqlparser.OpGt: ">", sqlparser.OpGe: ">=",
			}[be.Op]; ok2 {
				parts[i] = fmt.Sprintf("((%s) %s (%s))",
					sqlparser.FormatExpr(be.Left), op, sqlparser.FormatExpr(be.Right))
				continue
			}
		}
		parts[i] = "(" + sqlparser.FormatExpr(c) + ")"
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

// sortKeyText renders sort keys as a ", "-separated list.
func sortKeyText(keys []sortKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = sqlparser.FormatExpr(k.Expr)
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return strings.Join(parts, ", ")
}

// groupKeyText renders group keys as a ", "-separated list.
func groupKeyText(keys []sqlparser.Expr) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = sqlparser.FormatExpr(k)
	}
	return strings.Join(parts, ", ")
}

// --- Text format (PostgreSQL-style) ---------------------------------------
//
// Text EXPLAIN is the one format the engine writes itself. Every other
// format is a plan-package formatter over the bridged tree (explainAs);
// text has no parser to share a document type with, and it prints the
// unrounded estimates where the bridged tree carries costs rounded to two
// decimals.

// ExplainText renders the plan in PostgreSQL's text EXPLAIN format.
func ExplainText(n *Node) string { return explainTextStats(n, nil) }

// explainTextStats is ExplainText with optional EXPLAIN ANALYZE actuals
// appended per node, PostgreSQL-style.
func explainTextStats(n *Node, st ExecStats) string {
	var sb strings.Builder
	explainTextNode(&sb, n, st, 0, false)
	return sb.String()
}

func explainTextNode(sb *strings.Builder, n *Node, st ExecStats, depth int, arrow bool) {
	indent := strings.Repeat("      ", depth)
	if arrow {
		sb.WriteString(indent)
		sb.WriteString("->  ")
	}
	sb.WriteString(headline(n))
	fmt.Fprintf(sb, "  (cost=%.2f rows=%.0f)", n.EstCost, n.EstRows)
	if os := st[n]; os != nil {
		fmt.Fprintf(sb, " (actual time=%.3f rows=%d loops=1)",
			float64(os.Time)/1e6, os.Rows)
	}
	sb.WriteString("\n")
	detail := func(label, text string) {
		if text == "" {
			return
		}
		sb.WriteString(indent)
		if arrow {
			sb.WriteString("    ")
		}
		sb.WriteString("  ")
		sb.WriteString(label)
		sb.WriteString(": ")
		sb.WriteString(text)
		sb.WriteString("\n")
	}
	switch n.Op {
	case OpIndexScan:
		detail("Index Cond", condText(n.IndexCond))
	case OpHashJoin:
		detail("Hash Cond", condText(n.JoinCond))
	case OpMergeJoin:
		detail("Merge Cond", condText(n.JoinCond))
	case OpNestedLoop:
		detail("Join Filter", condText(n.JoinCond))
	case OpSort, OpUnique:
		detail("Sort Key", sortKeyText(n.SortKeys))
	case OpAggregate, OpHashAggregate, OpGroupAggregate:
		detail("Group Key", groupKeyText(n.GroupKeys))
		detail("Filter", condText(n.HavingFilter))
	}
	if n.Op != OpAggregate && n.Op != OpHashAggregate && n.Op != OpGroupAggregate {
		detail("Filter", condText(n.Filter))
	}
	for _, c := range n.Children {
		explainTextNode(sb, c, st, depth+1, true)
	}
}

func headline(n *Node) string {
	switch n.Op {
	case OpSeqScan, OpIndexScan:
		h := n.Op.Name()
		if n.Op == OpIndexScan {
			h += " using " + n.IndexName
		}
		h += " on " + n.Relation
		if n.Alias != "" && n.Alias != n.Relation {
			h += " " + n.Alias
		}
		return h
	case OpHashJoin, OpMergeJoin, OpNestedLoop:
		if n.JoinType == sqlparser.LeftJoin {
			return n.Op.Name() + " Left Join"
		}
		return n.Op.Name()
	}
	return n.Op.Name()
}
