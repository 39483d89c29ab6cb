package plan_test

import (
	"testing"

	"lantern/internal/plan"
	"lantern/internal/plantest"
)

// The fuzz targets assert the parser contract the serving layer depends
// on: any input either parses into a well-formed tree or returns an
// error — never a panic, out-of-bounds access, or runaway recursion.
// Each target is seeded from its dialect's golden corpus plus the
// adversarial shapes past fuzzing surfaced (deep nesting, missing
// fields, non-UTF8 bytes).

func seedCorpus(f *testing.F, dialect string, extra ...string) {
	entries, err := plantest.LoadEntries()
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if e.Dialect == dialect {
			f.Add(e.Doc)
		}
	}
	for _, doc := range extra {
		f.Add(doc)
	}
}

// checkTree walks whatever a successful parse returned, proving the tree
// is traversable (no nil children) and serializable.
func checkTree(t *testing.T, tree *plan.Node) {
	t.Helper()
	if tree == nil {
		t.Fatal("nil tree without error")
	}
	tree.Walk(func(n *plan.Node) {
		if n == nil {
			t.Fatal("nil node in parsed tree")
		}
	})
	_ = tree.String()
	_ = tree.OperatorSet()
}

func FuzzParsePostgresJSON(f *testing.F) {
	seedCorpus(f, "pg",
		`[]`,
		`[{"NotPlan": {}}]`,
		`[{"Plan": {"Node Type": "Seq Scan", "Plans": [{"Node Type": "Seq Scan"}]}}]`,
		"[{\"Plan\": {\"Node Type\": \"\xff\xfe\"}}]",
	)
	f.Fuzz(func(t *testing.T, doc string) {
		tree, err := plan.ParsePostgresJSON(doc)
		if err == nil {
			checkTree(t, tree)
		}
	})
}

func FuzzParseSQLServerXML(f *testing.F) {
	seedCorpus(f, "sqlserver",
		`<ShowPlanXML></ShowPlanXML>`,
		`<ShowPlanXML><BatchSequence><Batch><Statements><StmtSimple><QueryPlan><RelOp PhysicalOp="Table Scan"><RelOp/></RelOp></QueryPlan></StmtSimple></Statements></Batch></BatchSequence></ShowPlanXML>`,
		`<RelOp><RelOp><RelOp><RelOp></RelOp></RelOp></RelOp></RelOp>`,
	)
	f.Fuzz(func(t *testing.T, doc string) {
		tree, err := plan.ParseSQLServerXML(doc)
		if err == nil {
			checkTree(t, tree)
		}
	})
}

func FuzzParseNativeJSON(f *testing.F) {
	seedCorpus(f, "native",
		`{"lantern_plan": {}}`,
		`{"lantern_plan": {"name": "Seq Scan", "attrs": {"relation": "t"}}}`,
		`{"lantern_plan": {"name": "Limit", "children": [{"name": "Sort", "children": [null]}]}}`,
		`{"lantern_plan": {"name": "Seq Scan", "attrs": {"filter": "query_block"}}}`,
		"{\"lantern_plan\": {\"name\": \"\xff\xfe\"}}",
	)
	f.Fuzz(func(t *testing.T, doc string) {
		tree, err := plan.ParseNativeJSON(doc)
		if err == nil {
			checkTree(t, tree)
		}
	})
}

func FuzzParseMySQLJSON(f *testing.F) {
	seedCorpus(f, "mysql",
		`{"query_block": {}}`,
		`{"query_block": {"message": "No tables used"}}`,
		`{"query_block": {"nested_loop": [{"table": {"table_name": "a"}}]}}`,
		`{"query_block": {"table": {"materialized_from_subquery": {"query_block": {"table": {"table_name": "x"}}}}}}`,
		`{"query_block": {"ordering_operation": {"using_filesort": true, "grouping_operation": {"duplicates_removal": {"buffer_result": {"table": {"table_name": "t"}}}}}}}`,
		"{\"query_block\": {\"table\": {\"table_name\": \"\xc3\x28\"}}}",
	)
	f.Fuzz(func(t *testing.T, doc string) {
		tree, err := plan.ParseMySQLJSON(doc)
		if err == nil {
			checkTree(t, tree)
		}
	})
}

// FuzzFormatRoundTrip: whatever tree the pg or native parser accepts,
// writing it back out in the same format and parsing that keeps the
// tree's canonical form, Rows and Cost (AttrTimeMs, which the canonical
// form leaves out, is rounded to three decimals on every parse).
func FuzzFormatRoundTrip(f *testing.F) {
	seedCorpus(f, "pg")
	seedCorpus(f, "native")
	f.Fuzz(func(t *testing.T, doc string) {
		for _, rt := range roundTrips {
			tree, err := rt.parse(doc)
			if err != nil {
				continue
			}
			out, err := rt.format(tree)
			if err != nil {
				t.Fatalf("%s: format: %v", rt.name, err)
			}
			back, err := rt.parse(out)
			if err != nil {
				t.Fatalf("%s: parse of the formatted tree: %v\n%s", rt.name, err, out)
			}
			if d := treeDiff(tree, back, plan.AttrTimeMs); d != "" {
				t.Fatalf("%s: round trip changed the tree: %s", rt.name, d)
			}
		}
	})
}
