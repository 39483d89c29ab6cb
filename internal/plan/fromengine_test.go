package plan_test

import (
	"errors"
	"slices"
	"testing"

	"lantern/internal/engine"
	"lantern/internal/plan"
)

// goldenConfigs are the six planner configurations of the TPC-H plan
// golden (plan_golden_test.go at the repository root): each join
// algorithm, access path and ordering strategy forced in turn.
func goldenConfigs() map[string]engine.Config {
	def := engine.DefaultConfig()
	def.MaxQueryParallelism = 2
	hashOnly, mergeOnly, nlOnly, noIndex, greedy := def, def, def, def, def
	hashOnly.EnableMergeJoin, hashOnly.EnableNestLoop = false, false
	mergeOnly.EnableHashJoin, mergeOnly.EnableNestLoop = false, false
	nlOnly.EnableHashJoin, nlOnly.EnableMergeJoin = false, false
	noIndex.EnableIndexScan = false
	greedy.DPThreshold = 1
	return map[string]engine.Config{
		"default": def, "hash-only": hashOnly, "merge-only": mergeOnly,
		"nl-only": nlOnly, "no-index": noIndex, "greedy": greedy,
	}
}

// sources lists a tree's Source fields in pre-order; treeDiff compares
// trees up to Source.
func sources(n *plan.Node) []string {
	var out []string
	n.Walk(func(x *plan.Node) { out = append(out, x.Source) })
	return out
}

// TestFromEngineMatchesExplainAndParse: for every dialect the engine
// emits, FromEngine on the bridged plan is, node by node (Source, name,
// attributes, rows and cost), the tree ExplainAndParse parses from the
// engine's EXPLAIN document, for the corpus queries and the TPC-H
// workload under the six configurations of the TPC-H plan golden.
func TestFromEngineMatchesExplainAndParse(t *testing.T) {
	base := corpusEngine(t)
	queries := engineQueries()
	for cfgName, cfg := range goldenConfigs() {
		eng := base.Session()
		eng.Cfg = cfg
		for _, name := range plan.Dialects() {
			if d, _ := plan.Lookup(name); d.EngineFormat == "" {
				continue
			}
			for _, q := range queries {
				want, _, err := plan.ExplainAndParse(name, func(format string) (string, error) {
					r, err := eng.Exec("EXPLAIN (FORMAT " + format + ") " + q.SQL)
					if err != nil {
						return "", err
					}
					return r.Plan, nil
				})
				if err != nil {
					t.Fatalf("%s %s %s: ExplainAndParse: %v", cfgName, name, q.Name, err)
				}
				pl, err := eng.PlanSQL(q.SQL)
				if err != nil {
					t.Fatalf("%s %s %s: %v", cfgName, name, q.Name, err)
				}
				got, err := plan.FromEngine(name, engine.ToPlanNode(pl))
				if err != nil {
					t.Fatalf("%s %s %s: FromEngine: %v", cfgName, name, q.Name, err)
				}
				if d := treeDiff(want, got); d != "" {
					t.Errorf("%s %s %s: FromEngine differs from the parsed document: %s", cfgName, name, q.Name, d)
				} else if ws, gs := sources(want), sources(got); !slices.Equal(ws, gs) {
					t.Errorf("%s %s %s: sources %q, the parsed document's %q", cfgName, name, q.Name, gs, ws)
				}
			}
		}
	}
}

// TestFromEngineDialects: FromEngine fails as ExplainAndParse does for a
// dialect the engine cannot emit, and Register refuses an engine format
// without a FromEngine and the converse.
func TestFromEngineDialects(t *testing.T) {
	if err := plan.RegisterDialect("fromengine-doc-only", func(string) (*plan.Node, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	tree := &plan.Node{Name: "Result", Source: "native"}
	for name, want := range map[string]error{"no-such-dialect": plan.ErrUnknownDialect, "fromengine-doc-only": plan.ErrNoEngineSerializer} {
		_, err := plan.FromEngine(name, tree)
		if !errors.Is(err, want) {
			t.Errorf("FromEngine(%q): err = %v, want %v", name, err, want)
		}
		_, _, ref := plan.ExplainAndParse(name, func(string) (string, error) { return "", nil })
		if err == nil || ref == nil || err.Error() != ref.Error() {
			t.Errorf("FromEngine(%q): err = %v, ExplainAndParse's %v", name, err, ref)
		}
	}
	parse := func(string) (*plan.Node, error) { return nil, nil }
	if err := plan.Register(plan.Dialect{Name: "fromengine-half", Parse: parse, EngineFormat: "JSON"}); err == nil {
		t.Error("an engine format without FromEngine was accepted")
	}
	if err := plan.Register(plan.Dialect{Name: "fromengine-half", Parse: parse,
		FromEngine: func(n *plan.Node) (*plan.Node, error) { return n, nil }}); err == nil {
		t.Error("a FromEngine without an engine format was accepted")
	}
}
