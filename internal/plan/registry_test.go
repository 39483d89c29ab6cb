package plan_test

import (
	"strings"
	"testing"

	"lantern/internal/plan"
)

func TestRegistryBuiltins(t *testing.T) {
	names := plan.Dialects()
	joined := strings.Join(names, ",")
	for _, want := range []string{"native", "pg", "sqlserver", "mysql"} {
		d, ok := plan.Lookup(want)
		if !ok {
			t.Fatalf("built-in dialect %q not registered (have %s)", want, joined)
		}
		if d.Parse == nil || d.Detect == nil || d.EngineFormat == "" || d.FromEngine == nil {
			t.Errorf("built-in dialect %q incompletely registered: %+v", want, d)
		}
	}
}

func TestRegisterDialect(t *testing.T) {
	called := false
	err := plan.RegisterDialect("duckdb-test", func(doc string) (*plan.Node, error) {
		called = true
		return &plan.Node{Name: "Dummy Scan", Source: "duckdb-test"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := plan.Parse("duckdb-test", "whatever")
	if err != nil {
		t.Fatal(err)
	}
	if !called || tree.Name != "Dummy Scan" {
		t.Errorf("registered parser not used: called=%v tree=%+v", called, tree)
	}
	// No detector: auto-detection must never attribute documents to it.
	if got, err := plan.Detect("whatever"); err == nil {
		t.Errorf("Detect attributed junk to %q", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	if err := plan.Register(plan.Dialect{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if err := plan.Register(plan.Dialect{Name: "x"}); err == nil {
		t.Error("nil parser accepted")
	}
}

func TestParseUnknownDialect(t *testing.T) {
	_, err := plan.Parse("no-such-dialect", "{}")
	if err == nil || !strings.Contains(err.Error(), "unknown dialect") {
		t.Errorf("err = %v", err)
	}
}

func TestDetectRejectsJunk(t *testing.T) {
	for _, doc := range []string{"", "hello", "42", "null"} {
		if got, err := plan.Detect(doc); err == nil {
			t.Errorf("Detect(%q) = %q, want error", doc, got)
		}
	}
}

func TestParseMySQLJSONErrors(t *testing.T) {
	cases := []string{
		"not json",
		"{}",
		`{"query_block": {}}`,
		`{"query_block": {"nested_loop": [{}]}}`,
		`{"query_block": {"nested_loop": [{"table": {"table_name": "t"}}, {}]}}`,
		`{"query_block": {"table": {"materialized_from_subquery": {}}}}`,
	}
	for _, doc := range cases {
		if _, err := plan.ParseMySQLJSON(doc); err == nil {
			t.Errorf("ParseMySQLJSON(%q) succeeded, want error", doc)
		}
	}
}

func TestParseMySQLJSONShapes(t *testing.T) {
	// Ordering resolved by an index performs no filesort: no operator.
	tree, err := plan.ParseMySQLJSON(`{"query_block": {
		"ordering_operation": {"using_filesort": false, "table": {"table_name": "t", "access_type": "index", "key": "t_pk"}}}}`)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Name != "Index Scan" {
		t.Errorf("index-ordered plan root = %q, want the scan itself", tree.Name)
	}
	// A bare message is a constant result.
	tree, err = plan.ParseMySQLJSON(`{"query_block": {"message": "No tables used"}}`)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Name != "Constant Result" {
		t.Errorf("message plan root = %q", tree.Name)
	}
	// Hash-join buffer marks the fold as a hash join and the inner
	// table's attached_condition becomes the join condition.
	tree, err = plan.ParseMySQLJSON(`{"query_block": {"nested_loop": [
		{"table": {"table_name": "a", "access_type": "ALL"}},
		{"table": {"table_name": "b", "access_type": "ALL", "using_join_buffer": "hash join", "attached_condition": "(a.x = b.y)"}}]}}`)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Name != "Hash Join" {
		t.Errorf("root = %q, want Hash Join", tree.Name)
	}
	if tree.Attr(plan.AttrJoinCond) != "(a.x = b.y)" {
		t.Errorf("joincond = %q", tree.Attr(plan.AttrJoinCond))
	}
	if len(tree.Children) != 2 || tree.Children[1].Attr(plan.AttrFilter) != "" {
		t.Errorf("inner table kept the join condition as its own filter: %+v", tree.Children)
	}
	// A filter on a derived table in standalone (non-inner) position
	// belongs to the Materialize node, not to the enclosing join.
	tree, err = plan.ParseMySQLJSON(`{"query_block": {"table": {
		"table_name": "<derived2>", "attached_condition": "(d.total > 5)",
		"materialized_from_subquery": {"query_block": {"table": {"table_name": "x", "access_type": "ALL"}}}}}}`)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Name != "Materialize" || tree.Attr(plan.AttrFilter) != "(d.total > 5)" {
		t.Errorf("materialized table dropped its filter: %q %+v", tree.Name, tree.Attrs)
	}
}

func TestXMLDepthGuard(t *testing.T) {
	deep := strings.Repeat("<RelOp>", 100000)
	if _, err := plan.ParseSQLServerXML(deep); err == nil {
		t.Error("pathologically nested showplan accepted")
	}
}

// TestNativeDetectPriority: native documents must never be misclassified
// as pg or mysql JSON, even when their condition text contains another
// dialect's detection marker — native registers first, so its detector
// wins, and the other detectors cannot claim a lantern_plan document.
func TestNativeDetectPriority(t *testing.T) {
	cases := []string{
		`{"lantern_plan": {"name": "Seq Scan", "attrs": {"relation": "t"}}}`,
		// Adversarial: a filter mentioning mysql's marker string.
		`{"lantern_plan": {"name": "Seq Scan", "attrs": {"filter": "((c) = ('query_block'))"}}}`,
		// Leading whitespace must not defeat detection.
		"\n\t {\"lantern_plan\": {\"name\": \"Result\"}}",
	}
	for _, doc := range cases {
		got, err := plan.Detect(doc)
		if err != nil {
			t.Errorf("Detect(%q): %v", doc, err)
			continue
		}
		if got != "native" {
			t.Errorf("Detect(%q) = %q, want native", doc, got)
		}
	}
	// And the converse: foreign documents never detect as native — even a
	// mysql document whose condition text mentions native's marker string,
	// since the detector requires a genuine top-level lantern_plan key.
	foreign := []string{
		`[{"Plan": {"Node Type": "Seq Scan"}}]`,
		`{"query_block": {"table": {"table_name": "t"}}}`,
		`{"query_block": {"table": {"table_name": "t", "attached_condition": "(c = '\"lantern_plan\"')"}}}`,
		`<ShowPlanXML></ShowPlanXML>`,
	}
	for _, doc := range foreign {
		got, err := plan.Detect(doc)
		if err == nil && got == "native" {
			t.Errorf("Detect(%q) = native, want another dialect", doc)
		}
	}
}

// TestNativeRoundTripAttrs: FormatNative/ParseNativeJSON must preserve the
// actual-stats attributes bit-for-bit.
func TestNativeRoundTripAttrs(t *testing.T) {
	n := &plan.Node{Name: "Seq Scan", Source: "native", Rows: 100, Cost: 4.5}
	n.SetAttr(plan.AttrRelation, "customer")
	n.SetAttr(plan.AttrActualRows, "42")
	n.SetAttr(plan.AttrLoops, "3")
	n.SetAttr(plan.AttrTimeMs, "0.125")
	doc, err := plan.FormatNative(n)
	if err != nil {
		t.Fatal(err)
	}
	back, err := plan.ParseNativeJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{plan.AttrRelation, plan.AttrActualRows, plan.AttrLoops, plan.AttrTimeMs} {
		if back.Attr(key) != n.Attr(key) {
			t.Errorf("attr %q: got %q, want %q", key, back.Attr(key), n.Attr(key))
		}
	}
	if back.Rows != n.Rows || back.Cost != n.Cost {
		t.Errorf("estimates changed: rows %g cost %g", back.Rows, back.Cost)
	}
}

// TestParsePostgresJSONActualsPerLoop: PostgreSQL reports Actual Rows and
// Actual Total Time as per-loop averages; the frontend must scale them by
// the loop count into the standardized across-all-loops totals.
func TestParsePostgresJSONActualsPerLoop(t *testing.T) {
	tree, err := plan.ParsePostgresJSON(`[{"Plan": {
		"Node Type": "Seq Scan", "Relation Name": "t", "Plan Rows": 1,
		"Actual Rows": 0.5, "Actual Loops": 100, "Actual Total Time": 0.25}}]`)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Attr(plan.AttrActualRows); got != "50" {
		t.Errorf("actual rows = %q, want 50 (0.5/loop x 100 loops)", got)
	}
	if got := tree.Attr(plan.AttrLoops); got != "100" {
		t.Errorf("loops = %q, want 100", got)
	}
	if got := tree.Attr(plan.AttrTimeMs); got != "25.000" {
		t.Errorf("time = %q, want 25.000", got)
	}
}
