// Package lot implements the language-annotated operator tree of paper
// §5.3–5.4: the operator tree of a QEP extended with, per node, the
// display name (POEM alias or name), the natural-language description
// template obtained through POOL's COMPOSE statement, the clustering of
// auxiliary nodes with their critical nodes, and the unique identifiers
// (T1, T2, ...) assigned to intermediate results.
package lot

import (
	"fmt"

	"lantern/internal/plan"
	"lantern/internal/pool"
)

// Node is one annotated node of a LOT.
type Node struct {
	Plan *plan.Node
	// Name is the n.name of §5.3: the POEM alias when specified, the
	// operator name otherwise.
	Name string
	// Label is the n.label of §5.3: the natural-language template for this
	// node (for a critical node with clustered auxiliaries, the composed
	// template of the whole cluster is assembled by the narrator from the
	// auxiliary labels and this one).
	Label string
	// Auxiliary marks nodes that were clustered into their parent and are
	// therefore not narrated as a separate step.
	Auxiliary bool
	// AuxChildren are the clustered auxiliary children of this node, in
	// child order.
	AuxChildren []*Node
	// Identifier names this node's output when it is an intermediate
	// result referenced by a later step ("T1", "T2", ...). Empty when the
	// output needs no name (a scan that passes the base relation through
	// unchanged, an auxiliary node, or the root).
	Identifier string
	// Definition is the POEM defn attribute, surfaced so presentation
	// layers can offer operator definitions to the learner.
	Definition string

	Children []*Node
	Parent   *Node
}

// OutputName is how a later narration step refers to this node's output:
// its identifier when one was assigned, otherwise the base relation (with
// alias when the query renames it), otherwise the output of its only child
// (auxiliary pass-through).
func (n *Node) OutputName() string {
	if n.Identifier != "" {
		return n.Identifier
	}
	if rel := n.Plan.Attr(plan.AttrRelation); rel != "" {
		if alias := n.Plan.Attr(plan.AttrAlias); alias != "" && alias != rel {
			return fmt.Sprintf("%s (%s)", rel, alias)
		}
		return rel
	}
	if len(n.Children) > 0 {
		return n.Children[0].OutputName()
	}
	return "the result"
}

// Tree is a fully annotated LOT.
type Tree struct {
	Root   *Node
	Source string
	// Steps lists the non-auxiliary nodes in narration (post) order.
	Steps []*Node
}

// Build constructs the LOT for an operator tree using the POEM store,
// clustering auxiliary nodes and assigning intermediate identifiers in
// post-order — lines 1–2 of Algorithm 1. The whole tree reads one published
// index, so a LOT never mixes two POOL states.
func Build(tree *plan.Node, store *pool.Store) (*Tree, error) {
	ix := store.Index()
	targets := ix.AuxiliaryTargets(tree.Source)
	var build func(p *plan.Node, parent *Node) (*Node, error)
	build = func(p *plan.Node, parent *Node) (*Node, error) {
		obj, err := ix.Lookup(tree.Source, plan.Canon(p.Name))
		if err != nil {
			return nil, fmt.Errorf("lot: operator %q has no POEM entry for source %q: %w",
				p.Name, tree.Source, err)
		}
		n := &Node{Plan: p, Name: obj.DisplayName(), Definition: obj.Defn, Parent: parent}
		label, err := ix.ComposeTemplate(tree.Source, []string{obj.Name}, nil)
		if err != nil {
			return nil, err
		}
		n.Label = label
		for _, c := range p.Children {
			cn, err := build(c, n)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, cn)
		}
		// Cluster auxiliary children: child c is auxiliary to n when the
		// POEM store records an edge canon(c) -> canon(n).
		for _, cn := range n.Children {
			if targets[plan.Canon(cn.Plan.Name)][plan.Canon(p.Name)] {
				cn.Auxiliary = true
				n.AuxChildren = append(n.AuxChildren, cn)
			}
		}
		return n, nil
	}
	root, err := build(tree, nil)
	if err != nil {
		return nil, err
	}
	t := &Tree{Root: root, Source: tree.Source}
	t.assignIdentifiers()
	return t, nil
}

// assignIdentifiers numbers intermediate results in post-order, skipping
// auxiliary nodes, the root, and pass-through scans (a scan with no filter
// emits the base relation unchanged, so the paper leaves its identifier
// null — Example 5.1 step 1).
func (t *Tree) assignIdentifiers() {
	counter := 0
	var rec func(n *Node)
	rec = func(n *Node) {
		for _, c := range n.Children {
			rec(c)
		}
		if n.Auxiliary {
			return
		}
		t.Steps = append(t.Steps, n)
		if n.Parent == nil {
			return // root: "final results", no identifier
		}
		if isPassThroughScan(n) {
			return
		}
		counter++
		n.Identifier = fmt.Sprintf("T%d", counter)
	}
	rec(t.Root)
}

func isPassThroughScan(n *Node) bool {
	if len(n.Children) > 0 {
		return false
	}
	p := n.Plan
	return p.Attr(plan.AttrFilter) == "" && p.Attr(plan.AttrIndexCond) == ""
}

// ClusterPairs returns the (auxiliary, critical) node pairs of the tree —
// the cluster(T_N) set of §5.4 — for inspection and testing.
func (t *Tree) ClusterPairs() [][2]*Node {
	var out [][2]*Node
	var rec func(n *Node)
	rec = func(n *Node) {
		for _, c := range n.Children {
			rec(c)
		}
		for _, aux := range n.AuxChildren {
			out = append(out, [2]*Node{aux, n})
		}
	}
	rec(t.Root)
	return out
}
