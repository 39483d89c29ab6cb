package plan

import (
	"encoding/xml"
	"fmt"
	"strings"
)

// msRelOp is one RelOp element of a SQL-Server-style XML showplan.
type msRelOp struct {
	PhysicalOp    string     `xml:"PhysicalOp,attr"`
	LogicalOp     string     `xml:"LogicalOp,attr"`
	EstimateRows  float64    `xml:"EstimateRows,attr"`
	EstimatedCost float64    `xml:"EstimatedTotalSubtreeCost,attr"`
	Table         string     `xml:"Table,attr,omitempty"`
	Alias         string     `xml:"Alias,attr,omitempty"`
	Index         string     `xml:"Index,attr,omitempty"`
	SeekPredicate string     `xml:"SeekPredicate,omitempty"`
	Predicate     string     `xml:"Predicate,omitempty"`
	JoinPredicate string     `xml:"JoinPredicate,omitempty"`
	OrderBy       string     `xml:"OrderBy,omitempty"`
	GroupBy       string     `xml:"GroupBy,omitempty"`
	Children      []*msRelOp `xml:"RelOp"`
}

type msShowPlan struct {
	XMLName xml.Name `xml:"ShowPlanXML"`
	Version string   `xml:"Version,attr"`
	Root    *msRelOp `xml:"BatchSequence>Batch>Statements>StmtSimple>QueryPlan>RelOp"`
}

// maxXMLDepth bounds element nesting in showplan documents. Real plans are
// a few dozen levels deep; without the bound, a small adversarial document
// of nothing but open tags drives unbounded recursion inside
// xml.Unmarshal (found by FuzzParseSQLServerXML).
const maxXMLDepth = 512

// checkXMLDepth rejects documents nested deeper than maxXMLDepth with a
// cheap token pre-scan. Malformed XML passes: Unmarshal reports it with a
// better error.
func checkXMLDepth(doc string) error {
	dec := xml.NewDecoder(strings.NewReader(doc))
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil
		}
		switch tok.(type) {
		case xml.StartElement:
			depth++
			if depth > maxXMLDepth {
				return fmt.Errorf("plan: XML showplan nested deeper than %d elements", maxXMLDepth)
			}
		case xml.EndElement:
			depth--
		}
	}
}

// ParseSQLServerXML parses a SQL-Server-style XML showplan into a
// vendor-neutral operator tree with Source = "sqlserver".
func ParseSQLServerXML(doc string) (*Node, error) {
	if err := checkXMLDepth(doc); err != nil {
		return nil, err
	}
	var sp msShowPlan
	if err := xml.Unmarshal([]byte(doc), &sp); err != nil {
		return nil, fmt.Errorf("plan: malformed XML showplan: %w", err)
	}
	if sp.Root == nil {
		return nil, fmt.Errorf("plan: XML showplan lacks a root RelOp")
	}
	return fromMSRelOp(sp.Root), nil
}

func fromMSRelOp(r *msRelOp) *Node {
	n := &Node{
		Name:   r.PhysicalOp,
		Source: "sqlserver",
		Rows:   r.EstimateRows,
		Cost:   r.EstimatedCost,
	}
	n.SetAttr(AttrRelation, r.Table)
	n.SetAttr(AttrAlias, r.Alias)
	n.SetAttr(AttrIndexName, r.Index)
	n.SetAttr(AttrIndexCond, r.SeekPredicate)
	n.SetAttr(AttrFilter, r.Predicate)
	n.SetAttr(AttrJoinCond, r.JoinPredicate)
	n.SetAttr(AttrSortKey, r.OrderBy)
	n.SetAttr(AttrGroupKey, r.GroupBy)
	if r.LogicalOp == "Left Outer Join" {
		n.SetAttr(AttrJoinType, "Left")
	}
	for _, c := range r.Children {
		n.Children = append(n.Children, fromMSRelOp(c))
	}
	return n
}

// msOps maps the PostgreSQL operator names of a tree to SQL Server's
// physical and logical operators. Joins take their logical operator from
// AttrJoinType instead.
var msOps = map[string][2]string{
	"Seq Scan":       {"Table Scan", "Table Scan"},
	"Index Scan":     {"Index Seek", "Index Seek"},
	"Hash":           {"Hash", "Build Hash"},
	"Hash Join":      {"Hash Match", ""},
	"Merge Join":     {"Merge Join", ""},
	"Nested Loop":    {"Nested Loops", ""},
	"Sort":           {"Sort", "Sort"},
	"Materialize":    {"Table Spool", "Spool"},
	"Aggregate":      {"Stream Aggregate", "Aggregate"},
	"GroupAggregate": {"Stream Aggregate", "Aggregate"},
	"HashAggregate":  {"Hash Match Aggregate", "Aggregate"},
	"Unique":         {"Distinct Sort", "Distinct"},
	"Limit":          {"Top", "Top"},
	"Result":         {"Constant Scan", "Constant Scan"},
}

// FormatSQLServerXML serializes a tree as a SQL-Server-style XML
// showplan, translating PostgreSQL operator names (msOps). Hash build
// nodes are inlined, since SQL Server's Hash Match has no separate build
// operator, so ParseSQLServerXML reads back a different tree: the same
// cross-vendor gap the paper's parsers bridge.
func FormatSQLServerXML(n *Node) (string, error) {
	if n == nil {
		return "", errNilTree
	}
	b, err := xml.MarshalIndent(msShowPlan{Version: "1.5", Root: toMSRelOp(n)}, "", "  ")
	if err != nil {
		return "", err
	}
	return xml.Header + string(b), nil
}

func toMSRelOp(n *Node) *msRelOp {
	ops, ok := msOps[n.Name]
	if !ok {
		ops = [2]string{n.Name, n.Name}
	}
	if ops[1] == "" {
		ops[1] = "Inner Join"
		if n.Attr(AttrJoinType) == "Left" {
			ops[1] = "Left Outer Join"
		}
	}
	r := &msRelOp{
		PhysicalOp:    ops[0],
		LogicalOp:     ops[1],
		EstimateRows:  n.Rows,
		EstimatedCost: n.Cost,
		Table:         n.Attr(AttrRelation),
		Alias:         n.Attr(AttrAlias),
		Index:         n.Attr(AttrIndexName),
		SeekPredicate: n.Attr(AttrIndexCond),
		Predicate:     n.Attr(AttrFilter),
		JoinPredicate: n.Attr(AttrJoinCond),
		OrderBy:       n.Attr(AttrSortKey),
		GroupBy:       n.Attr(AttrGroupKey),
	}
	for _, c := range n.Children {
		if c.Name == "Hash" && len(c.Children) == 1 {
			c = c.Children[0]
		}
		r.Children = append(r.Children, toMSRelOp(c))
	}
	return r
}
