package plan

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// pgNode is one node of PostgreSQL's EXPLAIN (FORMAT JSON) document.
type pgNode struct {
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
	// EXPLAIN ANALYZE runtime statistics; pointers so absent fields stay
	// distinguishable from genuine zeroes.
	ActualRows  *float64  `json:"Actual Rows,omitempty"`
	ActualLoops *float64  `json:"Actual Loops,omitempty"`
	ActualTime  *float64  `json:"Actual Total Time,omitempty"`
	Plans       []*pgNode `json:"Plans,omitempty"`
}

// ParsePostgresJSON parses a PostgreSQL-style EXPLAIN (FORMAT JSON)
// document (a one-element array of {"Plan": ...}) into a vendor-neutral
// operator tree with Source = "pg".
func ParsePostgresJSON(doc string) (*Node, error) {
	var outer []map[string]*pgNode
	if err := json.Unmarshal([]byte(doc), &outer); err != nil {
		return nil, fmt.Errorf("plan: malformed PostgreSQL JSON plan: %w", err)
	}
	if len(outer) == 0 {
		return nil, fmt.Errorf("plan: empty PostgreSQL JSON plan")
	}
	root, ok := outer[0]["Plan"]
	if !ok || root == nil {
		return nil, fmt.Errorf(`plan: PostgreSQL JSON plan lacks a "Plan" object`)
	}
	return fromPGNode(root), nil
}

func fromPGNode(p *pgNode) *Node {
	name := p.NodeType
	// PostgreSQL reports one "Aggregate" node type with a Strategy field;
	// the text format (and the POEM store) distinguish the physical
	// operators, so resolve the strategy here.
	if name == "Aggregate" {
		switch p.Strategy {
		case "Hashed":
			name = "HashAggregate"
		case "Sorted":
			name = "GroupAggregate"
		}
	}
	n := &Node{
		Name:   name,
		Source: "pg",
		Rows:   p.PlanRows,
		Cost:   p.TotalCost,
	}
	n.SetAttr(AttrRelation, p.RelationName)
	n.SetAttr(AttrAlias, p.Alias)
	n.SetAttr(AttrIndexName, p.IndexName)
	n.SetAttr(AttrIndexCond, p.IndexCond)
	n.SetAttr(AttrFilter, p.Filter)
	n.SetAttr(AttrStrategy, p.Strategy)
	switch {
	case p.HashCond != "":
		n.SetAttr(AttrJoinCond, p.HashCond)
	case p.MergeCond != "":
		n.SetAttr(AttrJoinCond, p.MergeCond)
	case p.JoinFilter != "":
		n.SetAttr(AttrJoinCond, p.JoinFilter)
	}
	if p.JoinType == "Left" {
		n.SetAttr(AttrJoinType, "Left")
	}
	n.SetAttr(AttrSortKey, strings.Join(p.SortKey, ", "))
	n.SetAttr(AttrGroupKey, strings.Join(p.GroupKey, ", "))
	// EXPLAIN ANALYZE actuals map onto the standardized actual-stats
	// attrs. PostgreSQL reports Actual Rows and Actual Total Time as
	// per-loop averages; the standardized attrs carry totals across all
	// loops, so both scale by the loop count.
	loops := 1.0
	if p.ActualLoops != nil && *p.ActualLoops > 0 {
		loops = *p.ActualLoops
	}
	if p.ActualRows != nil {
		n.SetAttr(AttrActualRows, strconv.FormatInt(int64(math.Round(*p.ActualRows*loops)), 10))
	}
	if p.ActualLoops != nil {
		n.SetAttr(AttrLoops, strconv.FormatInt(int64(*p.ActualLoops), 10))
	}
	if p.ActualTime != nil {
		n.SetAttr(AttrTimeMs, strconv.FormatFloat(*p.ActualTime*loops, 'f', 3, 64))
	}
	for _, c := range p.Plans {
		n.Children = append(n.Children, fromPGNode(c))
	}
	return n
}

// FormatPostgresJSON serializes a tree as a PostgreSQL-style EXPLAIN
// (FORMAT JSON) document. ParsePostgresJSON reads it back to the same
// tree, up to Source; attributes PostgreSQL has no field for (workers,
// segments) are left out.
func FormatPostgresJSON(n *Node) (string, error) {
	if n == nil {
		return "", errNilTree
	}
	b, err := json.MarshalIndent([]map[string]*pgNode{{"Plan": toPGNode(n)}}, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func toPGNode(n *Node) *pgNode {
	p := &pgNode{
		NodeType:     n.Name,
		JoinType:     n.Attr(AttrJoinType),
		Strategy:     n.Attr(AttrStrategy),
		RelationName: n.Attr(AttrRelation),
		Alias:        n.Attr(AttrAlias),
		IndexName:    n.Attr(AttrIndexName),
		IndexCond:    n.Attr(AttrIndexCond),
		Filter:       n.Attr(AttrFilter),
		SortKey:      splitKeys(n.Attr(AttrSortKey)),
		GroupKey:     splitKeys(n.Attr(AttrGroupKey)),
		TotalCost:    n.Cost,
		PlanRows:     n.Rows,
	}
	// The inverse of fromPGNode's strategy resolution.
	if n.Name == "HashAggregate" && p.Strategy == "Hashed" || n.Name == "GroupAggregate" && p.Strategy == "Sorted" {
		p.NodeType = "Aggregate"
	}
	cond := n.Attr(AttrJoinCond)
	switch n.Name {
	case "Hash Join":
		p.HashCond = cond
	case "Merge Join":
		p.MergeCond = cond
	default:
		p.JoinFilter = cond
	}
	if p.JoinType == "" && pgJoin(n.Name) {
		p.JoinType = "Inner"
	}
	// The attrs carry totals; PostgreSQL reports per-loop averages.
	loops := 1.0
	if v, ok := attrFloat(n, AttrLoops); ok {
		p.ActualLoops = floatPtr(v)
		if v > 0 {
			loops = v
		}
	}
	if v, ok := attrFloat(n, AttrActualRows); ok {
		p.ActualRows = floatPtr(v / loops)
	}
	if v, ok := attrFloat(n, AttrTimeMs); ok {
		p.ActualTime = floatPtr(v / loops)
	}
	for _, c := range n.Children {
		p.Plans = append(p.Plans, toPGNode(c))
	}
	return p
}

// pgJoin reports whether name is one of PostgreSQL's join operators. The
// engine's bridged trees speak PostgreSQL's vocabulary, which the other
// formatters translate.
func pgJoin(name string) bool {
	return name == "Hash Join" || name == "Merge Join" || name == "Nested Loop"
}

// attrFloat reads a numeric attribute; ok is false when it is absent or
// not a finite number, which JSON cannot carry.
func attrFloat(n *Node, key string) (float64, bool) {
	s := n.Attr(key)
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// floatPtr allocates v; taking &v of a variable declared in an if
// statement would allocate it whether or not the branch runs.
func floatPtr(v float64) *float64 { return &v }

// splitKeys splits a key list joined with ", " (AttrSortKey,
// AttrGroupKey) back into its keys. A key may itself hold ", " inside a
// call's parentheses or a quoted literal, so only separators outside both
// split; joining the result with ", " gives s back.
func splitKeys(s string) []string {
	if s == "" {
		return nil
	}
	var keys []string
	depth, quoted, start := 0, false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			quoted = !quoted
		case '(':
			if !quoted {
				depth++
			}
		case ')':
			if !quoted {
				depth--
			}
		case ',':
			if !quoted && depth == 0 && strings.HasPrefix(s[i:], ", ") {
				keys = append(keys, s[start:i])
				start = i + 2
				i++
			}
		}
	}
	return append(keys, s[start:])
}
