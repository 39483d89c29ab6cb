package plan_test

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/plan"
	"lantern/internal/plantest"
)

// roundTrips are the formats narration reads back from the engine's
// EXPLAIN: for each, Parse∘Format must be the identity up to Source.
var roundTrips = []struct {
	name   string
	format func(*plan.Node) (string, error)
	parse  plan.ParseFunc
}{
	{"pg", plan.FormatPostgresJSON, plan.ParsePostgresJSON},
	{"native", plan.FormatNative, plan.ParseNativeJSON},
}

// treeDiff describes the first difference between two trees up to
// Source — shape, operator names, attributes other than the ignored keys,
// row estimates and costs — or returns "" when they agree.
func treeDiff(a, b *plan.Node, ignore ...string) string {
	attrs := func(n *plan.Node) map[string]string {
		m := maps.Clone(n.Attrs)
		for _, k := range ignore {
			delete(m, k)
		}
		return m
	}
	if a.Name != b.Name || !maps.Equal(attrs(a), attrs(b)) || a.Rows != b.Rows || a.Cost != b.Cost ||
		len(a.Children) != len(b.Children) {
		return fmt.Sprintf("%q rows=%g cost=%g attrs=%v children=%d\nbecame %q rows=%g cost=%g attrs=%v children=%d",
			a.Name, a.Rows, a.Cost, a.Attrs, len(a.Children), b.Name, b.Rows, b.Cost, b.Attrs, len(b.Children))
	}
	for i := range a.Children {
		if d := treeDiff(a.Children[i], b.Children[i], ignore...); d != "" {
			return d
		}
	}
	return ""
}

// corpusEngine is the engine the corpus inputs are generated on
// (testdata/gen).
func corpusEngine(t *testing.T) *engine.Engine {
	eng := engine.NewDefault()
	if err := datasets.LoadTPCH(eng, 0.05, 1); err != nil {
		t.Fatal(err)
	}
	return eng
}

// engineQueries are the corpus queries and the TPC-H workload queries,
// whose bridged trees the format tests run over.
func engineQueries() []struct{ Name, SQL string } {
	queries := slices.Clone(plantest.CorpusQueries)
	for _, w := range datasets.TPCHWorkload() {
		queries = append(queries, struct{ Name, SQL string }{w.Name, w.SQL})
	}
	return queries
}

// TestCorpusCurrent: each conformance query's corpus document is, byte
// for byte, what the engine's EXPLAIN writes in that format today
// (regenerate the corpus with make corpus).
func TestCorpusCurrent(t *testing.T) {
	eng := corpusEngine(t)
	for _, name := range plan.Dialects() {
		d, _ := plan.Lookup(name)
		if d.EngineFormat == "" {
			continue
		}
		for _, q := range plantest.CorpusQueries {
			r, err := eng.Exec("EXPLAIN (FORMAT " + d.EngineFormat + ") " + q.SQL)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, q.Name, err)
			}
			want, err := os.ReadFile(filepath.Join(plantest.CorpusDir(), name, q.Name+".plan"))
			if err != nil {
				t.Fatal(err)
			}
			if r.Plan+"\n" != string(want) {
				t.Errorf("%s/%s: the engine writes\n%s\nthe corpus holds\n%s", name, q.Name, r.Plan, want)
			}
		}
	}
}

// TestFormatRoundTrip pins the round trip narration runs on the engine's
// plans: every bridged tree of the corpus queries and the TPC-H workload,
// planned and executed with actuals, parses back from its pg and native
// documents unchanged up to Source.
func TestFormatRoundTrip(t *testing.T) {
	eng := corpusEngine(t)
	for _, q := range engineQueries() {
		qr, err := eng.QueryInstrumented(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		trees := map[string]*plan.Node{
			"plain":   engine.ToPlanNode(qr.Plan),
			"actuals": engine.ToPlanNodeStats(qr.Plan, qr.Stats),
		}
		for kind, tree := range trees {
			for _, rt := range roundTrips {
				doc, err := rt.format(tree)
				if err != nil {
					t.Fatalf("%s %s %s: format: %v", q.Name, kind, rt.name, err)
				}
				back, err := rt.parse(doc)
				if err != nil {
					t.Fatalf("%s %s %s: parse: %v\n%s", q.Name, kind, rt.name, err, doc)
				}
				if d := treeDiff(tree, back); d != "" {
					t.Errorf("%s %s %s: round trip changed the tree: %s", q.Name, kind, rt.name, d)
				}
			}
		}
	}
}

// TestFormatPostgresJSONKeys: a sort or group key holding ", " inside a
// call or a quoted literal stays one key of the document.
func TestFormatPostgresJSONKeys(t *testing.T) {
	n := &plan.Node{Name: "Sort"}
	n.SetAttr(plan.AttrSortKey, "SUBSTR(COALESCE(seg, 'p, q'), 1, 2), COUNT(*), 'a, (b', x DESC")
	doc, err := plan.FormatPostgresJSON(n)
	if err != nil {
		t.Fatal(err)
	}
	var outer []map[string]struct {
		SortKey []string `json:"Sort Key"`
	}
	if err := json.Unmarshal([]byte(doc), &outer); err != nil {
		t.Fatal(err)
	}
	want := []string{"SUBSTR(COALESCE(seg, 'p, q'), 1, 2)", "COUNT(*)", "'a, (b'", "x DESC"}
	if got := outer[0]["Plan"].SortKey; !slices.Equal(got, want) {
		t.Errorf("Sort Key = %q, want %q", got, want)
	}
}
