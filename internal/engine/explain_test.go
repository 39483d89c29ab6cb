package engine

import (
	"encoding/json"
	"encoding/xml"
	"strings"
	"testing"

	"lantern/internal/plan"
)

// goldenEngine is a tiny fixed database whose plans are deterministic.
func goldenEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.EnableMergeJoin = false
	cfg.EnableNestLoop = false
	e := New(cfg)
	script := `
CREATE TABLE dept (d_id INTEGER, d_name VARCHAR(20));
CREATE TABLE emp (e_id INTEGER, e_dept INTEGER, e_salary FLOAT);
INSERT INTO dept VALUES (1, 'eng'), (2, 'ops');
INSERT INTO emp VALUES (1, 1, 100.0), (2, 1, 120.0), (3, 2, 90.0), (4, 2, 95.0), (5, 1, 130.0);
`
	if _, err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	return e
}

const goldenQuery = `SELECT d.d_name, COUNT(*) FROM dept d, emp e
	WHERE d.d_id = e.e_dept AND e.e_salary > 90 GROUP BY d.d_name`

func TestExplainTextStructure(t *testing.T) {
	e := goldenEngine(t)
	plan, err := e.PlanSQL(goldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	text := ExplainText(plan)
	// Structure (not costs): aggregate over hash join over two scans with
	// the filter on the emp scan.
	for _, want := range []string{
		"Hash Join",
		"Hash Cond: ((d.d_id) = (e.e_dept))",
		"->  Seq Scan on emp e",
		"Filter: ((e.e_salary) > (90))",
		"->  Hash",
		"Seq Scan on dept d",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text plan lacks %q:\n%s", want, text)
		}
	}
	// PG-style indentation: Hash's child is nested deeper.
	if !strings.Contains(text, "->  Hash  (") {
		t.Fatalf("no Hash line:\n%s", text)
	}
}

func TestExplainTextDeterministic(t *testing.T) {
	e := goldenEngine(t)
	p1, err := e.PlanSQL(goldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.PlanSQL(goldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ExplainText(p1) != ExplainText(p2) {
		t.Error("EXPLAIN text is nondeterministic")
	}
}

func TestExplainJSONWellFormed(t *testing.T) {
	e := goldenEngine(t)
	pl, err := e.PlanSQL(goldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := plan.FormatPostgresJSON(ToPlanNode(pl))
	if err != nil {
		t.Fatal(err)
	}
	var outer []map[string]any
	if err := json.Unmarshal([]byte(doc), &outer); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	root, ok := outer[0]["Plan"].(map[string]any)
	if !ok {
		t.Fatal("no Plan object")
	}
	// PostgreSQL-shaped keys.
	for _, key := range []string{"Node Type", "Total Cost", "Plan Rows"} {
		if _, ok := root[key]; !ok {
			t.Errorf("root lacks %q", key)
		}
	}
	// Aggregate is reported PostgreSQL-style: Node Type + Strategy.
	if root["Node Type"] != "Aggregate" {
		t.Errorf("root Node Type = %v, want Aggregate", root["Node Type"])
	}
	if root["Strategy"] == "" {
		t.Error("aggregate lacks a Strategy")
	}
}

func TestExplainXMLWellFormed(t *testing.T) {
	e := goldenEngine(t)
	pl, err := e.PlanSQL(goldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := plan.FormatSQLServerXML(ToPlanNode(pl))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(doc, xml.Header) {
		t.Error("missing XML header")
	}
	var parsed struct {
		XMLName xml.Name `xml:"ShowPlanXML"`
		Version string   `xml:"Version,attr"`
	}
	if err := xml.Unmarshal([]byte(doc), &parsed); err != nil {
		t.Fatalf("not valid XML: %v", err)
	}
	if parsed.Version != "1.5" {
		t.Errorf("version = %q", parsed.Version)
	}
	// SQL Server vocabulary only.
	if strings.Contains(doc, "Seq Scan") {
		t.Error("PostgreSQL operator name leaked into showplan")
	}
	if !strings.Contains(doc, `PhysicalOp="Hash Match"`) {
		t.Errorf("no Hash Match operator:\n%s", doc)
	}
}

func TestExplainMySQLWellFormed(t *testing.T) {
	e := goldenEngine(t)
	pl, err := e.PlanSQL(goldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := plan.FormatMySQLJSON(ToPlanNode(pl))
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		QueryBlock struct {
			SelectID int `json:"select_id"`
			CostInfo struct {
				QueryCost string `json:"query_cost"`
			} `json:"cost_info"`
		} `json:"query_block"`
	}
	if err := json.Unmarshal([]byte(doc), &parsed); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if parsed.QueryBlock.SelectID != 1 || parsed.QueryBlock.CostInfo.QueryCost == "" {
		t.Errorf("query_block header incomplete:\n%s", doc)
	}
	// MySQL vocabulary only: flat nested_loop with a hash join buffer, no
	// PostgreSQL node names.
	if strings.Contains(doc, "Node Type") || strings.Contains(doc, "Seq Scan") {
		t.Error("PostgreSQL shape leaked into MySQL explain")
	}
	for _, want := range []string{`"nested_loop"`, `"using_join_buffer": "hash join"`,
		`"grouping_operation"`, `"access_type": "ALL"`, `"attached_condition"`} {
		if !strings.Contains(doc, want) {
			t.Errorf("missing %s:\n%s", want, doc)
		}
	}
}

func TestExplainMySQLLimitTransparent(t *testing.T) {
	e := goldenEngine(t)
	pl, err := e.PlanSQL("SELECT e_id FROM emp ORDER BY e_salary LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := plan.FormatMySQLJSON(ToPlanNode(pl))
	if err != nil {
		t.Fatal(err)
	}
	// MySQL's JSON explain does not report LIMIT; the ordering must still
	// appear as a filesort.
	if strings.Contains(doc, "limit") || strings.Contains(doc, "Top") {
		t.Errorf("limit leaked into MySQL explain:\n%s", doc)
	}
	if !strings.Contains(doc, `"using_filesort": true`) {
		t.Errorf("missing filesort:\n%s", doc)
	}
}

func TestCondTextFormat(t *testing.T) {
	e := goldenEngine(t)
	plan, err := e.PlanSQL("SELECT e_id FROM emp WHERE e_salary > 90 AND e_dept = 1")
	if err != nil {
		t.Fatal(err)
	}
	text := ExplainText(plan)
	// Conjunctions render PostgreSQL-style with doubled parens per side.
	if !strings.Contains(text, "((e_salary) > (90))") {
		t.Errorf("condition format:\n%s", text)
	}
	if !strings.Contains(text, " AND ") {
		t.Errorf("conjunction lost:\n%s", text)
	}
}

func TestExplainStatementThroughSQL(t *testing.T) {
	e := goldenEngine(t)
	r, err := e.Exec("EXPLAIN " + goldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan == "" || len(r.Rows) != 1 {
		t.Error("EXPLAIN statement returned no plan")
	}
	if r.Columns[0] != "QUERY PLAN" {
		t.Errorf("columns = %v", r.Columns)
	}
}
