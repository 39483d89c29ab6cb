package lot

import (
	"fmt"
	"sync"
	"testing"

	"lantern/internal/plan"
	"lantern/internal/pool"
)

// figure4Tree hand-builds the operator tree of the paper's Figure 4.
func figure4Tree() *plan.Node {
	scanIn := &plan.Node{Name: "Seq Scan", Source: "pg",
		Attrs: map[string]string{plan.AttrRelation: "inproceedings", plan.AttrAlias: "inproceedings"}}
	scanPub := &plan.Node{Name: "Seq Scan", Source: "pg",
		Attrs: map[string]string{plan.AttrRelation: "publication", plan.AttrAlias: "publication",
			plan.AttrFilter: "(title LIKE '%July%')"}}
	hash := &plan.Node{Name: "Hash", Source: "pg", Children: []*plan.Node{scanPub}}
	join := &plan.Node{Name: "Hash Join", Source: "pg",
		Attrs:    map[string]string{plan.AttrJoinCond: "((i.proceeding_key) = (p.pub_key))"},
		Children: []*plan.Node{scanIn, hash}}
	sort := &plan.Node{Name: "Sort", Source: "pg",
		Attrs:    map[string]string{plan.AttrSortKey: "i.proceeding_key"},
		Children: []*plan.Node{join}}
	agg := &plan.Node{Name: "GroupAggregate", Source: "pg",
		Attrs: map[string]string{plan.AttrGroupKey: "i.proceeding_key",
			plan.AttrFilter: "(count(*) > 200)"},
		Children: []*plan.Node{sort}}
	return &plan.Node{Name: "Unique", Source: "pg", Children: []*plan.Node{agg}}
}

func TestBuildFigure4(t *testing.T) {
	store := pool.NewSeededStore()
	lt, err := Build(figure4Tree(), store)
	if err != nil {
		t.Fatal(err)
	}
	// 7 nodes, 2 auxiliary (Hash, Sort), 5 narration steps.
	if got := len(lt.Steps); got != 5 {
		t.Fatalf("steps = %d, want 5", got)
	}
	pairs := lt.ClusterPairs()
	if len(pairs) != 2 {
		t.Fatalf("cluster pairs = %d, want 2", len(pairs))
	}
	// Identifier assignment follows the paper: T1 on the filtered scan,
	// T2 on the join, T3 on the aggregate; none on the pass-through scan
	// or the root.
	want := map[string]string{
		"Seq Scan@publication": "T1",
		"Hash Join":            "T2",
		"GroupAggregate":       "T3",
	}
	var unique, scanIn *Node
	var rec func(n *Node)
	rec = func(n *Node) {
		for _, c := range n.Children {
			rec(c)
		}
		key := n.Plan.Name
		if r := n.Plan.Attr(plan.AttrRelation); r != "" {
			key += "@" + r
		}
		if w, ok := want[key]; ok && n.Identifier != w {
			t.Errorf("%s: identifier = %q, want %q", key, n.Identifier, w)
		}
		if key == "Unique" {
			unique = n
		}
		if key == "Seq Scan@inproceedings" {
			scanIn = n
		}
	}
	rec(lt.Root)
	if unique == nil || unique.Identifier != "" {
		t.Errorf("root should have no identifier: %+v", unique)
	}
	if scanIn == nil || scanIn.Identifier != "" {
		t.Errorf("pass-through scan should have no identifier: %+v", scanIn)
	}
}

func TestOutputNames(t *testing.T) {
	store := pool.NewSeededStore()
	lt, err := Build(figure4Tree(), store)
	if err != nil {
		t.Fatal(err)
	}
	root := lt.Root // Unique
	agg := root.Children[0]
	sortN := agg.Children[0]
	join := sortN.Children[0]
	scanIn, hash := join.Children[0], join.Children[1]
	if scanIn.OutputName() != "inproceedings" {
		t.Errorf("scan output = %q", scanIn.OutputName())
	}
	// The Hash auxiliary passes its child's identifier through.
	if hash.OutputName() != "T1" {
		t.Errorf("hash output = %q", hash.OutputName())
	}
	if join.OutputName() != "T2" {
		t.Errorf("join output = %q", join.OutputName())
	}
	if sortN.OutputName() != "T2" {
		t.Errorf("sort output = %q (should pass through)", sortN.OutputName())
	}
	if agg.OutputName() != "T3" {
		t.Errorf("agg output = %q", agg.OutputName())
	}
}

func TestNamesAndDefinitions(t *testing.T) {
	store := pool.NewSeededStore()
	lt, err := Build(figure4Tree(), store)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	var rec func(n *Node)
	rec = func(n *Node) {
		for _, c := range n.Children {
			rec(c)
		}
		names = append(names, n.Name)
	}
	rec(lt.Root)
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	// POEM aliases surface as display names.
	if !found["sequential scan"] || !found["duplicate removal"] {
		t.Errorf("names = %v", names)
	}
	if lt.Root.Children[0].Definition == "" {
		t.Error("aggregate should carry a POEM definition")
	}
}

func TestBuildAliasOutputName(t *testing.T) {
	store := pool.NewSeededStore()
	tree := &plan.Node{Name: "Seq Scan", Source: "pg",
		Attrs: map[string]string{plan.AttrRelation: "customer", plan.AttrAlias: "c"}}
	lt, err := Build(tree, store)
	if err != nil {
		t.Fatal(err)
	}
	if got := lt.Root.OutputName(); got != "customer (c)" {
		t.Errorf("output = %q", got)
	}
}

func TestBuildUnknownSource(t *testing.T) {
	store := pool.NewSeededStore()
	tree := &plan.Node{Name: "Seq Scan", Source: "oracle"}
	if _, err := Build(tree, store); err == nil {
		t.Error("expected error for unseeded source")
	}
}

// TestBuildReadsOnePoolState: a writer keeps rewriting the description of
// every binary pg operator to a new epoch while readers build LOTs of a
// plan with two binary joins. Build reads one published index for the
// whole tree, so both join labels of every LOT carry the same epoch. Run
// under -race in CI.
func TestBuildReadsOnePoolState(t *testing.T) {
	store := pool.NewSeededStore()
	scan := func(rel string) *plan.Node {
		return &plan.Node{Name: "Seq Scan", Source: "pg", Attrs: map[string]string{plan.AttrRelation: rel}}
	}
	hash := func(c *plan.Node) *plan.Node {
		return &plan.Node{Name: "Hash", Source: "pg", Children: []*plan.Node{c}}
	}
	inner := &plan.Node{Name: "Hash Join", Source: "pg", Children: []*plan.Node{scan("orders"), hash(scan("customer"))}}
	tree := &plan.Node{Name: "Nested Loop", Source: "pg", Children: []*plan.Node{scan("lineitem"), inner}}

	epoch := func(v int) {
		store.MustExec(fmt.Sprintf(`UPDATE pg SET desc = 'join in epoch-%d' WHERE type = 'binary'`, v))
	}
	epoch(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := 1; v <= 100; v++ {
			epoch(v)
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				lt, err := Build(tree, store)
				if err != nil {
					t.Error(err)
					return
				}
				// Both joins are binary with COND = 'true', so one epoch
				// composes both to the same label.
				if outer, join := lt.Root.Label, lt.Root.Children[1].Label; outer != join {
					t.Errorf("one LOT mixes two POOL states: %q and %q", outer, join)
					return
				}
			}
		}()
	}
	wg.Wait()
}
