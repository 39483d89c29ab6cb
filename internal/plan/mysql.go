package plan

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// myBlock is one "block" of MySQL's EXPLAIN FORMAT=JSON document: the
// top-level query_block and every wrapper operation share this shape, each
// holding exactly one content key (a table, a nested_loop array, a nested
// operation, or a message, which an attached_condition may accompany).
type myBlock struct {
	SelectID            int      `json:"select_id,omitempty"`
	CostInfo            *myCost  `json:"cost_info,omitempty"`
	Message             string   `json:"message,omitempty"`
	AttachedCondition   string   `json:"attached_condition,omitempty"`
	UsingFilesort       *bool    `json:"using_filesort,omitempty"`
	UsingTemporaryTable bool     `json:"using_temporary_table,omitempty"`
	HavingCondition     string   `json:"having_condition,omitempty"`
	Ordering            *myBlock `json:"ordering_operation,omitempty"`
	Grouping            *myBlock `json:"grouping_operation,omitempty"`
	Duplicates          *myBlock `json:"duplicates_removal,omitempty"`
	Buffer              *myBlock `json:"buffer_result,omitempty"`
	NestedLoop          []myJoin `json:"nested_loop,omitempty"`
	Table               *myTable `json:"table,omitempty"`
}

// mySubquery wraps a query block: the document itself, and a derived
// table's materialized_from_subquery.
type mySubquery struct {
	QueryBlock *myBlock `json:"query_block"`
}

// myJoin is one element of a nested_loop array.
type myJoin struct {
	Table *myTable `json:"table"`
}

// myTable is MySQL's table access object. MySQL reports the query alias
// as table_name; there is no separate base-relation field.
type myTable struct {
	TableName         string      `json:"table_name"`
	AccessType        string      `json:"access_type,omitempty"`
	Key               string      `json:"key,omitempty"`
	RowsExamined      float64     `json:"rows_examined_per_scan,omitempty"`
	RowsProduced      float64     `json:"rows_produced_per_join,omitempty"`
	Filtered          string      `json:"filtered,omitempty"`
	CostInfo          *myCost     `json:"cost_info,omitempty"`
	IndexCondition    string      `json:"index_condition,omitempty"`
	AttachedCondition string      `json:"attached_condition,omitempty"`
	UsingJoinBuffer   string      `json:"using_join_buffer,omitempty"`
	Materialized      *mySubquery `json:"materialized_from_subquery,omitempty"`
}

// myCost is MySQL's cost_info object; MySQL serializes costs as strings.
type myCost struct {
	QueryCost  string `json:"query_cost,omitempty"`
	PrefixCost string `json:"prefix_cost,omitempty"`
	ReadCost   string `json:"read_cost,omitempty"`
}

func (c *myCost) value() float64 {
	if c == nil {
		return 0
	}
	for _, s := range []string{c.QueryCost, c.PrefixCost, c.ReadCost} {
		if v := parseCost(s); v != 0 {
			return v
		}
	}
	return 0
}

func parseCost(s string) float64 {
	if s == "" {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}

// ParseMySQLJSON parses a MySQL-style EXPLAIN FORMAT=JSON document (an
// object with a "query_block" key) into a vendor-neutral operator tree
// with Source = "mysql".
//
// Mapping notes. MySQL serializes joins as flat nested_loop arrays, which
// are folded left-deep into binary join operators ("Nested Loop", or
// "Hash Join" when the table carries using_join_buffer: "hash join"); the
// attached_condition of a non-first nested_loop table is evaluated in the
// join loop, so it becomes the join condition of the fold. Wrapper
// operations map to unary operators: ordering_operation → "Filesort"
// (skipped when using_filesort is false — the order came for free from an
// index), grouping_operation → "Group" (its having_condition the Group's
// filter), duplicates_removal → "Duplicates Removal", buffer_result → "Buffer Result", materialized_from_subquery →
// "Materialize". A message ("No tables used") becomes "Constant Result",
// filtered by the block's attached_condition when it has one.
func ParseMySQLJSON(doc string) (*Node, error) {
	var outer mySubquery
	if err := json.Unmarshal([]byte(doc), &outer); err != nil {
		return nil, fmt.Errorf("plan: malformed MySQL JSON plan: %w", err)
	}
	if outer.QueryBlock == nil {
		return nil, fmt.Errorf(`plan: MySQL JSON plan lacks a "query_block" object`)
	}
	root, err := fromMyBlock(outer.QueryBlock)
	if err != nil {
		return nil, err
	}
	if root.Cost == 0 {
		root.Cost = outer.QueryBlock.CostInfo.value()
	}
	return root, nil
}

func fromMyBlock(b *myBlock) (*Node, error) {
	wrap := func(name string, inner *myBlock) (*Node, error) {
		child, err := fromMyBlock(inner)
		if err != nil {
			return nil, err
		}
		return &Node{Name: name, Source: "mysql", Children: []*Node{child},
			Rows: child.Rows, Cost: inner.CostInfo.value()}, nil
	}
	switch {
	case b.Ordering != nil:
		// using_filesort=false means the required order fell out of an
		// index: no physical sort happens, so no operator is narrated.
		if b.Ordering.UsingFilesort != nil && !*b.Ordering.UsingFilesort {
			return fromMyBlock(b.Ordering)
		}
		return wrap("Filesort", b.Ordering)
	case b.Grouping != nil:
		n, err := wrap("Group", b.Grouping)
		if err != nil {
			return nil, err
		}
		n.SetAttr(AttrFilter, b.Grouping.HavingCondition)
		return n, nil
	case b.Duplicates != nil:
		return wrap("Duplicates Removal", b.Duplicates)
	case b.Buffer != nil:
		return wrap("Buffer Result", b.Buffer)
	case len(b.NestedLoop) > 0:
		return fromMyNestedLoop(b.NestedLoop)
	case b.Table != nil:
		return fromMyTable(b.Table, false)
	case b.Message != "":
		n := &Node{Name: "Constant Result", Source: "mysql"}
		n.SetAttr(AttrFilter, b.AttachedCondition)
		return n, nil
	}
	return nil, fmt.Errorf("plan: MySQL query block has no recognized content (table, nested_loop, operation, or message)")
}

// fromMyNestedLoop folds a flat nested_loop array into left-deep binary
// join nodes: [t1, t2, t3] → join(join(t1, t2), t3).
func fromMyNestedLoop(items []myJoin) (*Node, error) {
	if items[0].Table == nil {
		return nil, fmt.Errorf("plan: MySQL nested_loop item 0 lacks a table")
	}
	left, err := fromMyTable(items[0].Table, false)
	if err != nil {
		return nil, err
	}
	if len(items) == 1 {
		return left, nil
	}
	for i, item := range items[1:] {
		t := item.Table
		if t == nil {
			return nil, fmt.Errorf("plan: MySQL nested_loop item %d lacks a table", i+1)
		}
		right, err := fromMyTable(t, true)
		if err != nil {
			return nil, err
		}
		// The inner table's prefix_cost is cumulative (the join's); the
		// table's own access cost is read_cost.
		if t.CostInfo != nil {
			if rc := parseCost(t.CostInfo.ReadCost); rc != 0 {
				right.Cost = rc
			}
		}
		name := "Nested Loop"
		if t.UsingJoinBuffer == "hash join" {
			name = "Hash Join"
		}
		// MySQL reports the join prefix's numbers on its inner table:
		// rows_produced_per_join is the join's output estimate and
		// prefix_cost its cumulative cost.
		rows := t.RowsProduced
		if rows == 0 {
			rows = right.Rows
		}
		join := &Node{Name: name, Source: "mysql", Children: []*Node{left, right},
			Rows: rows, Cost: t.CostInfo.value()}
		// The attached_condition of an inner nested_loop table is
		// evaluated per join iteration: it is the join condition (MySQL
		// folds residual scan filters into the same predicate).
		join.SetAttr(AttrJoinCond, t.AttachedCondition)
		left = join
	}
	return left, nil
}

// fromMyTable converts one table access object. inner marks tables in a
// join position after the first, whose attached_condition belongs to the
// enclosing join (see fromMyNestedLoop) rather than to the scan.
func fromMyTable(t *myTable, inner bool) (*Node, error) {
	if t.Materialized != nil {
		if t.Materialized.QueryBlock == nil {
			return nil, fmt.Errorf("plan: MySQL materialized_from_subquery lacks a query_block")
		}
		child, err := fromMyBlock(t.Materialized.QueryBlock)
		if err != nil {
			return nil, err
		}
		n := &Node{Name: "Materialize", Source: "mysql", Children: []*Node{child},
			Rows: t.RowsExamined, Cost: t.CostInfo.value()}
		n.SetAttr(AttrAlias, t.TableName)
		if !inner {
			// In first-join or standalone position the attached_condition
			// filters the derived table itself (inner-position conditions
			// become the enclosing join's predicate in fromMyNestedLoop).
			n.SetAttr(AttrFilter, t.AttachedCondition)
		}
		return n, nil
	}
	var name string
	switch t.AccessType {
	case "ALL", "":
		name = "Table Scan"
	case "ref", "eq_ref", "const", "system", "fulltext", "ref_or_null":
		name = "Index Lookup"
	case "range", "index_merge":
		name = "Index Range Scan"
	case "index":
		name = "Index Scan"
	default:
		name = "Table Scan"
	}
	n := &Node{Name: name, Source: "mysql", Rows: t.RowsExamined, Cost: t.CostInfo.value()}
	n.SetAttr(AttrRelation, t.TableName)
	n.SetAttr(AttrIndexName, t.Key)
	n.SetAttr(AttrIndexCond, t.IndexCondition)
	if !inner {
		n.SetAttr(AttrFilter, t.AttachedCondition)
	}
	return n, nil
}

// FormatMySQLJSON serializes a tree as a MySQL-style EXPLAIN FORMAT=JSON
// document. MySQL executes only nested-loop-family joins and reports
// sorting, grouping and duplicate removal as wrapper operations rather
// than tree nodes, so the document keeps less than the tree: Limit and
// Hash nodes are transparent, sort and group keys are left out (an
// aggregate's HAVING filter stays, as its grouping operation's
// having_condition, and so does a FROM-less Result's, as the
// attached_condition beside its message), and a join input that is not a
// scan becomes a materialized derived table.
// ParseMySQLJSON reads back a tree in MySQL's own vocabulary, the
// cross-vendor gap the paper's parsers bridge.
func FormatMySQLJSON(n *Node) (string, error) {
	if n == nil {
		return "", errNilTree
	}
	w := &myWriter{}
	b := w.block(n)
	b.SelectID = 1
	b.CostInfo = &myCost{QueryCost: myCostText(n.Cost)}
	out, err := json.MarshalIndent(mySubquery{QueryBlock: b}, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// myWriter counts the derived tables it has named, mirroring MySQL's
// <derivedN> naming.
type myWriter struct {
	nderived int
}

func myCostText(cost float64) string { return fmt.Sprintf("%.2f", cost) }

func isMyJoin(n *Node) bool { return pgJoin(n.Name) && len(n.Children) == 2 }

func (w *myWriter) block(n *Node) *myBlock {
	switch {
	case n.Name == "Result":
		return &myBlock{Message: "No tables used", AttachedCondition: n.Attr(AttrFilter)}
	case isMyJoin(n):
		return &myBlock{NestedLoop: w.nestedLoop(n)}
	case len(n.Children) == 0:
		return &myBlock{Table: myScan(n, "", "")}
	}
	inner := w.block(n.Children[0])
	switch n.Name {
	case "Sort":
		filesort := true
		inner.UsingFilesort = &filesort
		return &myBlock{Ordering: inner}
	case "Unique":
		return &myBlock{Duplicates: inner}
	case "Aggregate", "HashAggregate", "GroupAggregate":
		inner.UsingTemporaryTable = n.Name == "HashAggregate"
		inner.HavingCondition = n.Attr(AttrFilter)
		return &myBlock{Grouping: inner}
	case "Materialize":
		return &myBlock{Buffer: inner}
	}
	return inner // Limit and Hash: MySQL reports neither
}

// nestedLoop flattens a left-deep join subtree into MySQL's flat
// nested_loop array. The join predicate lands on the inner table's
// attached_condition (that is where MySQL evaluates it); hash joins mark
// the inner table with using_join_buffer, everything else degrades to the
// nested-loop family MySQL actually executes.
func (w *myWriter) nestedLoop(n *Node) []myJoin {
	left, right := n.Children[0], n.Children[1]
	if right.Name == "Hash" && len(right.Children) == 1 {
		right = right.Children[0]
	}
	var items []myJoin
	if isMyJoin(left) && left.Attr(AttrFilter) == "" {
		items = w.nestedLoop(left)
	} else {
		items = []myJoin{{Table: w.tableRef(left, "", "")}}
	}
	joinBuffer := ""
	if n.Name == "Hash Join" {
		joinBuffer = "hash join"
	}
	inner := w.tableRef(right, andConds(n.Attr(AttrJoinCond), n.Attr(AttrFilter)), joinBuffer)
	// As in real MySQL, the inner table of a join prefix reports the
	// cumulative numbers of the whole prefix: prefix_cost is the join's
	// total cost and rows_produced_per_join its output estimate; the
	// table's own access cost moves to read_cost.
	inner.CostInfo = &myCost{PrefixCost: myCostText(n.Cost), ReadCost: myCostText(right.Cost)}
	inner.RowsProduced = n.Rows
	return append(items, myJoin{Table: inner})
}

// tableRef renders one join input as a table access object. Scans map
// directly; any other operator becomes a materialized derived table, the
// way MySQL represents non-table join inputs. joinCond is the enclosing
// join's predicate ("" for the first table of a nested_loop).
func (w *myWriter) tableRef(n *Node, joinCond, joinBuffer string) *myTable {
	if n.Name == "Seq Scan" || n.Name == "Index Scan" {
		return myScan(n, joinCond, joinBuffer)
	}
	w.nderived++
	return &myTable{
		TableName:         fmt.Sprintf("<derived%d>", w.nderived+1),
		AccessType:        "ALL",
		RowsExamined:      n.Rows,
		RowsProduced:      n.Rows,
		CostInfo:          &myCost{PrefixCost: myCostText(n.Cost)},
		AttachedCondition: joinCond,
		UsingJoinBuffer:   joinBuffer,
		Materialized:      &mySubquery{QueryBlock: w.block(n)},
	}
}

// myScan renders a scan as a table access object: a full scan, or an index
// lookup ("ref") when the index has a condition.
func myScan(n *Node, joinCond, joinBuffer string) *myTable {
	t := &myTable{
		TableName:         n.Attr(AttrAlias),
		AccessType:        "ALL",
		RowsExamined:      n.Rows,
		RowsProduced:      n.Rows,
		Filtered:          "100.00",
		CostInfo:          &myCost{PrefixCost: myCostText(n.Cost)},
		AttachedCondition: andConds(joinCond, n.Attr(AttrFilter)),
		UsingJoinBuffer:   joinBuffer,
	}
	if n.Name == "Index Scan" {
		t.AccessType = "index"
		if n.Attr(AttrIndexCond) != "" {
			t.AccessType = "ref"
		}
		t.Key = n.Attr(AttrIndexName)
		t.IndexCondition = n.Attr(AttrIndexCond)
	}
	return t
}

// andConds joins two rendered predicates with AND, tolerating either
// being empty.
func andConds(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return "(" + a + " AND " + b + ")"
}
