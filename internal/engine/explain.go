package engine

import (
	"encoding/json"
	"encoding/xml"
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

func sortKeyTexts(keys []sortKey) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = sqlparser.FormatExpr(k.Expr)
		if k.Desc {
			out[i] += " DESC"
		}
	}
	return out
}

func groupKeyTexts(keys []sqlparser.Expr) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = sqlparser.FormatExpr(k)
	}
	return out
}

// --- Text format (PostgreSQL-style) ---------------------------------------

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
		detail("Sort Key", strings.Join(sortKeyTexts(n.SortKeys), ", "))
	case OpAggregate, OpHashAggregate, OpGroupAggregate:
		detail("Group Key", strings.Join(groupKeyTexts(n.GroupKeys), ", "))
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

// --- JSON format (PostgreSQL-style) ----------------------------------------

// jsonPlan mirrors the shape of PostgreSQL's EXPLAIN (FORMAT JSON) output.
type jsonPlan struct {
	NodeType     string   `json:"Node Type"`
	JoinType     string   `json:"Join Type,omitempty"`
	Strategy     string   `json:"Strategy,omitempty"`
	RelationName string   `json:"Relation Name,omitempty"`
	Alias        string   `json:"Alias,omitempty"`
	IndexName    string   `json:"Index Name,omitempty"`
	IndexCond    string   `json:"Index Cond,omitempty"`
	HashCond     string   `json:"Hash Cond,omitempty"`
	MergeCond    string   `json:"Merge Cond,omitempty"`
	JoinFilter   string   `json:"Join Filter,omitempty"`
	Filter       string   `json:"Filter,omitempty"`
	SortKey      []string `json:"Sort Key,omitempty"`
	GroupKey     []string `json:"Group Key,omitempty"`
	StartupCost  float64  `json:"Startup Cost"`
	TotalCost    float64  `json:"Total Cost"`
	PlanRows     float64  `json:"Plan Rows"`
	// EXPLAIN ANALYZE actuals, present only on instrumented plans.
	ActualRows  *float64    `json:"Actual Rows,omitempty"`
	ActualLoops *float64    `json:"Actual Loops,omitempty"`
	ActualTime  *float64    `json:"Actual Total Time,omitempty"`
	Plans       []*jsonPlan `json:"Plans,omitempty"`
}

// ExplainJSON renders the plan in PostgreSQL's JSON EXPLAIN format:
// a one-element array holding {"Plan": {...}}.
func ExplainJSON(n *Node) (string, error) { return ExplainJSONStats(n, nil) }

// ExplainJSONStats is ExplainJSON with EXPLAIN ANALYZE actual-stats fields
// (Actual Rows / Actual Loops / Actual Total Time) attached per node when
// st is non-nil — the same fields PostgreSQL emits, which the pg plan
// frontend maps onto the standardized actual-stats attrs.
func ExplainJSONStats(n *Node, st ExecStats) (string, error) {
	doc := []map[string]*jsonPlan{{"Plan": toJSONPlan(n, st)}}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func toJSONPlan(n *Node, st ExecStats) *jsonPlan {
	jp := &jsonPlan{
		NodeType:  n.Op.Name(),
		TotalCost: round2(n.EstCost),
		PlanRows:  n.EstRows,
	}
	switch n.Op {
	case OpSeqScan:
		jp.RelationName = n.Relation
		jp.Alias = aliasOr(n)
		jp.Filter = condText(n.Filter)
	case OpIndexScan:
		jp.RelationName = n.Relation
		jp.Alias = aliasOr(n)
		jp.IndexName = n.IndexName
		jp.IndexCond = condText(n.IndexCond)
		jp.Filter = condText(n.Filter)
	case OpHashJoin:
		jp.JoinType = joinTypeName(n.JoinType)
		jp.HashCond = condText(n.JoinCond)
		jp.Filter = condText(n.Filter)
	case OpMergeJoin:
		jp.JoinType = joinTypeName(n.JoinType)
		jp.MergeCond = condText(n.JoinCond)
		jp.Filter = condText(n.Filter)
	case OpNestedLoop:
		jp.JoinType = joinTypeName(n.JoinType)
		jp.JoinFilter = condText(n.JoinCond)
		jp.Filter = condText(n.Filter)
	case OpSort, OpUnique:
		jp.SortKey = sortKeyTexts(n.SortKeys)
	case OpAggregate, OpHashAggregate, OpGroupAggregate:
		// PostgreSQL reports all three as "Aggregate" with a strategy.
		jp.NodeType = "Aggregate"
		switch n.Op {
		case OpAggregate:
			jp.Strategy = "Plain"
		case OpHashAggregate:
			jp.Strategy = "Hashed"
		case OpGroupAggregate:
			jp.Strategy = "Sorted"
		}
		jp.GroupKey = groupKeyTexts(n.GroupKeys)
		jp.Filter = condText(n.HavingFilter)
	}
	if os := st[n]; os != nil {
		// PostgreSQL's JSON reports Actual Rows / Actual Total Time as
		// per-loop averages; every operator here runs one loop, so the
		// totals are those averages and the pg frontend reads either a
		// real PostgreSQL document or ours identically.
		loops := 1.0
		rows := float64(os.Rows)
		timeMs := float64(os.Time) / 1e6
		jp.ActualRows, jp.ActualLoops, jp.ActualTime = &rows, &loops, &timeMs
	}
	for _, c := range n.Children {
		jp.Plans = append(jp.Plans, toJSONPlan(c, st))
	}
	return jp
}

func aliasOr(n *Node) string {
	if n.Alias != "" {
		return n.Alias
	}
	return n.Relation
}

func joinTypeName(t sqlparser.JoinType) string {
	if t == sqlparser.LeftJoin {
		return "Left"
	}
	return "Inner"
}

func round2(f float64) float64 {
	return float64(int64(f*100+0.5)) / 100
}

// --- XML format (SQL-Server-style showplan) --------------------------------

// xmlRelOp mirrors (a simplified form of) SQL Server's showplan RelOp.
type xmlRelOp struct {
	XMLName       xml.Name    `xml:"RelOp"`
	PhysicalOp    string      `xml:"PhysicalOp,attr"`
	LogicalOp     string      `xml:"LogicalOp,attr"`
	EstimateRows  float64     `xml:"EstimateRows,attr"`
	EstimatedCost float64     `xml:"EstimatedTotalSubtreeCost,attr"`
	Table         string      `xml:"Table,attr,omitempty"`
	Alias         string      `xml:"Alias,attr,omitempty"`
	Index         string      `xml:"Index,attr,omitempty"`
	SeekPredicate string      `xml:"SeekPredicate,omitempty"`
	Predicate     string      `xml:"Predicate,omitempty"`
	JoinPredicate string      `xml:"JoinPredicate,omitempty"`
	OrderBy       string      `xml:"OrderBy,omitempty"`
	GroupBy       string      `xml:"GroupBy,omitempty"`
	Children      []*xmlRelOp `xml:"RelOp"`
}

type xmlQueryPlan struct {
	XMLName xml.Name  `xml:"QueryPlan"`
	Root    *xmlRelOp `xml:"RelOp"`
}

type xmlStmtSimple struct {
	XMLName       xml.Name     `xml:"StmtSimple"`
	StatementText string       `xml:"StatementText,attr,omitempty"`
	QueryPlan     xmlQueryPlan `xml:"QueryPlan"`
}

type xmlShowPlan struct {
	XMLName xml.Name      `xml:"ShowPlanXML"`
	Version string        `xml:"Version,attr"`
	Stmt    xmlStmtSimple `xml:"BatchSequence>Batch>Statements>StmtSimple"`
}

// ExplainXML renders the plan as a SQL-Server-style XML showplan. The Hash
// build nodes are inlined (SQL Server's Hash Match has no separate build
// operator), so the operator tree genuinely differs from the PostgreSQL
// serializations — the same cross-vendor gap the paper's parsers bridge.
func ExplainXML(n *Node) (string, error) {
	doc := xmlShowPlan{
		Version: "1.5",
		Stmt:    xmlStmtSimple{QueryPlan: xmlQueryPlan{Root: toXMLRelOp(n)}},
	}
	b, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return xml.Header + string(b), nil
}

func toXMLRelOp(n *Node) *xmlRelOp {
	op := &xmlRelOp{
		PhysicalOp:    n.Op.SQLServerName(),
		LogicalOp:     xmlLogicalOp(n),
		EstimateRows:  n.EstRows,
		EstimatedCost: round2(n.EstCost),
	}
	switch n.Op {
	case OpSeqScan:
		op.Table = n.Relation
		op.Alias = aliasOr(n)
		op.Predicate = condText(n.Filter)
	case OpIndexScan:
		op.Table = n.Relation
		op.Alias = aliasOr(n)
		op.Index = n.IndexName
		op.SeekPredicate = condText(n.IndexCond)
		op.Predicate = condText(n.Filter)
	case OpHashJoin, OpMergeJoin, OpNestedLoop:
		op.JoinPredicate = condText(n.JoinCond)
		op.Predicate = condText(n.Filter)
	case OpSort, OpUnique:
		op.OrderBy = strings.Join(sortKeyTexts(n.SortKeys), ", ")
	case OpAggregate, OpHashAggregate, OpGroupAggregate:
		op.GroupBy = strings.Join(groupKeyTexts(n.GroupKeys), ", ")
		op.Predicate = condText(n.HavingFilter)
	}
	for _, c := range n.Children {
		// Inline Hash build nodes: SQL Server has no separate Hash operator.
		if c.Op == OpHash {
			c = c.Children[0]
		}
		op.Children = append(op.Children, toXMLRelOp(c))
	}
	return op
}

func xmlLogicalOp(n *Node) string {
	switch n.Op {
	case OpSeqScan:
		return "Table Scan"
	case OpIndexScan:
		return "Index Seek"
	case OpHashJoin, OpMergeJoin, OpNestedLoop:
		if n.JoinType == sqlparser.LeftJoin {
			return "Left Outer Join"
		}
		return "Inner Join"
	case OpSort:
		return "Sort"
	case OpAggregate, OpHashAggregate, OpGroupAggregate:
		return "Aggregate"
	case OpUnique:
		return "Distinct"
	case OpLimit:
		return "Top"
	case OpMaterialize:
		return "Spool"
	case OpResult:
		return "Constant Scan"
	case OpHash:
		return "Build Hash"
	}
	return n.Op.Name()
}
