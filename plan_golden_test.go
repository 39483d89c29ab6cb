package lantern

// Plan goldens: the text EXPLAIN of the 22 TPC-H workload queries under
// the planner configurations that force each join algorithm, access path
// and ordering strategy. Planner work that must not move a plan (a faster
// search, a cheaper cost computation) shows up here as a diff. Regenerate
// the file only when a plan change is intended:
//
//	go test -run TestTPCHPlanGolden -update .

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lantern/internal/datasets"
	"lantern/internal/engine"
)

var updatePlans = flag.Bool("update", false, "rewrite testdata/tpch_plans.golden")

const planGoldenPath = "testdata/tpch_plans.golden"

// planGoldenConfigs are the configurations the golden records, in file
// order. MaxQueryParallelism is pinned so the DOP annotations do not
// depend on the cores of the machine running the test.
func planGoldenConfigs() []struct {
	name string
	cfg  engine.Config
} {
	def := engine.DefaultConfig()
	def.MaxQueryParallelism = 2
	hashOnly, mergeOnly, nlOnly, noIndex, greedy := def, def, def, def, def
	hashOnly.EnableMergeJoin, hashOnly.EnableNestLoop = false, false
	mergeOnly.EnableHashJoin, mergeOnly.EnableNestLoop = false, false
	nlOnly.EnableHashJoin, nlOnly.EnableMergeJoin = false, false
	noIndex.EnableIndexScan = false
	greedy.DPThreshold = 1
	return []struct {
		name string
		cfg  engine.Config
	}{
		{"default", def}, {"hash-only", hashOnly}, {"merge-only", mergeOnly},
		{"nl-only", nlOnly}, {"no-index", noIndex}, {"greedy", greedy},
	}
}

func TestTPCHPlanGolden(t *testing.T) {
	base := engine.NewDefault()
	if err := datasets.LoadTPCH(base, 0.05, 1); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, c := range planGoldenConfigs() {
		e := base.Session()
		e.Cfg = c.cfg
		for _, w := range datasets.TPCHWorkload() {
			r, err := e.Exec("EXPLAIN " + w.SQL)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, w.Name, err)
			}
			sb.WriteString("-- " + c.name + " " + w.Name + "\n" + r.Plan + "\n")
		}
	}
	got := sb.String()
	if *updatePlans {
		if err := os.MkdirAll(filepath.Dir(planGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(planGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got == string(want) {
		return
	}
	gotBlocks, wantBlocks := strings.Split(got, "\n-- "), strings.Split(string(want), "\n-- ")
	for i := range min(len(gotBlocks), len(wantBlocks)) {
		if gotBlocks[i] != wantBlocks[i] {
			t.Fatalf("plan differs from %s:\ngot:\n-- %s\nwant:\n-- %s", planGoldenPath, gotBlocks[i], wantBlocks[i])
		}
	}
	t.Fatalf("plan count differs from %s: got %d, want %d", planGoldenPath, len(gotBlocks), len(wantBlocks))
}

// TestPlannerKeepsCartesianSubProducts pins plans that take a Cartesian
// product under connected joins: a Nested Loop with no join condition
// over the scans of part and region, which no predicate connects, below
// the joins on their keys. Join ordering that enumerated only connected
// pairs (DPccp, Moerkotte and Neumann, VLDB 2006) would never consider
// these plans, so it would change what Q2 narrates.
func TestPlannerKeepsCartesianSubProducts(t *testing.T) {
	var q2 string
	for _, w := range datasets.TPCHWorkload() {
		if w.Name == "Q2" {
			q2 = w.SQL
		}
	}
	// narrate-cold's rendering of Q2 with the type filter and AFRICA.
	cold := strings.NewReplacer("p.p_size = 15", "p.p_size = 1 AND p.p_type LIKE '%BRASS'", "'EUROPE'", "'AFRICA'").Replace(q2)
	for _, c := range []struct {
		name         string
		scale        float64
		sql          string
		outer, inner string
	}{
		{"workload Q2", 0.02, q2, "region", "part"},
		{"narrate-cold Q2", 0.05, cold, "part", "region"},
		{"narrate-cold Q2", 0.5, cold, "part", "region"},
	} {
		e := engine.NewDefault()
		if err := datasets.LoadTPCH(e, c.scale, 1); err != nil {
			t.Fatal(err)
		}
		root, err := e.PlanSQL(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		var product, connected bool
		root.Walk(func(n *engine.Node) {
			switch {
			case n.Op == engine.OpNestedLoop && n.JoinCond == nil:
				product = n.Children[0].Relation == c.outer && n.Children[1].Relation == c.inner
			case n.JoinCond != nil:
				connected = true
			}
		})
		if !product || !connected {
			t.Errorf("%s at scale %v: want %s × %s as a Nested Loop without a condition under connected joins, got\n%s",
				c.name, c.scale, c.outer, c.inner, engine.ExplainText(root))
		}
	}
}
