// Package core implements LANTERN, the paper's primary contribution: given
// an SQL query's execution plan (as a vendor-neutral operator tree parsed
// by internal/plan), it generates a natural-language narration of the
// execution strategy.
//
// Two generators are provided, matching the paper:
//
//   - RuleLantern (§5) — deterministic template-based narration driven by
//     the POOL/POEM descriptions; Algorithm 1 of the paper.
//   - NeuralLantern (§6) — an LSTM sequence-to-sequence model with
//     attention, trained on RULE-LANTERN output diversified by paraphrasing
//     tools, that injects language variability to counter habituation.
//
// The narration follows the paper's four-layer model (§5.1): the factual
// layer is the language-annotated operator tree (internal/lot); the
// intentional layer is the per-operator content selected from the POEM
// store; the structural layer arranges the plot as a sequence of steps
// (post-order, with intermediate-result identifiers); the presentation
// layer renders the steps document-style (or annotated onto the visual
// tree, see PresentTree).
package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"lantern/internal/lot"
	"lantern/internal/plan"
	"lantern/internal/pool"
)

// Step is one sentence of a QEP narration.
type Step struct {
	Text string
	Node *lot.Node
	// Identifier is the intermediate-relation name this step introduced,
	// "" for pass-through and final steps.
	Identifier string
}

// Narration is the result of narrating one QEP.
type Narration struct {
	Steps  []Step
	Source string
}

// Text renders the document-style presentation (the format 38 of 43
// learners preferred in the paper's US 6).
func (n *Narration) Text() string {
	var sb strings.Builder
	for i, s := range n.Steps {
		fmt.Fprintf(&sb, "Step %d: %s\n", i+1, s.Text)
	}
	return sb.String()
}

// Sentences returns just the step sentences, for training-data generation
// and metric computation.
func (n *Narration) Sentences() []string {
	out := make([]string, len(n.Steps))
	for i, s := range n.Steps {
		out[i] = s.Text
	}
	return out
}

// TokenCount returns the number of whitespace tokens across all steps —
// the output-length measure of the paper's Exp 2.
func (n *Narration) TokenCount() int {
	c := 0
	for _, s := range n.Steps {
		c += len(strings.Fields(s.Text))
	}
	return c
}

// RuleLantern is the rule-based narration generator of paper §5.
type RuleLantern struct {
	Store *pool.Store
}

// NewRuleLantern creates a generator over a seeded POEM store.
func NewRuleLantern(store *pool.Store) *RuleLantern {
	return &RuleLantern{Store: store}
}

// Narrate runs Algorithm 1: build the LOT, cluster auxiliary nodes, then
// translate each non-auxiliary node in post-order into one step.
func (rl *RuleLantern) Narrate(tree *plan.Node) (*Narration, error) {
	lt, err := rl.BuildLOT(tree)
	if err != nil {
		return nil, err
	}
	return rl.NarrateLOT(lt)
}

// BuildLOT annotates the plan tree against the generator's POEM store —
// the first half of Narrate, exposed so callers that also need the LOT
// (tree-view presentation, the serving layer) build it exactly once.
func (rl *RuleLantern) BuildLOT(tree *plan.Node) (*lot.Tree, error) {
	return lot.Build(tree, rl.Store)
}

// NarrateLOT narrates an already-built LOT.
func (rl *RuleLantern) NarrateLOT(lt *lot.Tree) (*Narration, error) {
	nar := &Narration{Source: lt.Source}
	for _, node := range lt.Steps {
		text := NodeSentence(node)
		if ac := ActualsClause(node.Plan); ac != "" {
			text += " " + ac
		}
		switch {
		case node.Parent == nil:
			text += " to get the final results."
		case node.Identifier != "":
			text += fmt.Sprintf(" to get the intermediate relation %s.", node.Identifier)
		default:
			text += "."
		}
		nar.Steps = append(nar.Steps, Step{Text: text, Node: node, Identifier: node.Identifier})
	}
	return nar, nil
}

// NodeSentence renders the sentence body for one narration step: the
// composed, filled labels of the node's auxiliary cluster followed by the
// node's own label (the ∘ composition of §5.4, generalized to any number
// of auxiliary children — a merge join may sort both inputs).
func NodeSentence(node *lot.Node) string {
	var parts []string
	for _, aux := range node.AuxChildren {
		parts = append(parts, pool.FillTemplate(aux.Label, auxValues(aux)))
	}
	parts = append(parts, pool.FillTemplate(node.Label, nodeValues(node)))
	return strings.Join(parts, " and ")
}

// auxValues builds the placeholder values for an auxiliary node: its input
// is its only child's output.
func auxValues(aux *lot.Node) map[string]string {
	vals := map[string]string{
		"sort": aux.Plan.Attr(plan.AttrSortKey),
		"cond": aux.Plan.Attr(plan.AttrFilter),
	}
	if len(aux.Children) > 0 {
		vals["R1"] = aux.Children[0].OutputName()
	}
	return vals
}

// nodeValues builds the placeholder values for a critical (or standalone)
// node from its plan attributes and children outputs. For binary operators
// the convention follows the paper: $R2$ is the first (probe/outer) input
// and $R1$ the second (hashed/inner) one — "perform hash join on
// inproceedings and T1".
func nodeValues(node *lot.Node) map[string]string {
	p := node.Plan
	vals := map[string]string{
		"group": p.Attr(plan.AttrGroupKey),
		"sort":  p.Attr(plan.AttrSortKey),
		"index": p.Attr(plan.AttrIndexName),
	}
	if rel := p.Attr(plan.AttrRelation); rel != "" {
		vals["R1"] = relationDisplay(p)
	} else if len(node.Children) > 0 {
		vals["R1"] = node.Children[0].OutputName()
	}
	if len(node.Children) >= 2 {
		vals["R2"] = node.Children[0].OutputName()
		vals["R1"] = node.Children[1].OutputName()
	}
	switch {
	case p.Attr(plan.AttrJoinCond) != "":
		vals["cond"] = p.Attr(plan.AttrJoinCond)
	case p.Attr(plan.AttrIndexCond) != "":
		cond := p.Attr(plan.AttrIndexCond)
		if f := p.Attr(plan.AttrFilter); f != "" {
			cond += " AND " + f
		}
		vals["cond"] = cond
	default:
		vals["cond"] = p.Attr(plan.AttrFilter)
	}
	return vals
}

// MisEstimateFactor is the estimate-vs-actual ratio beyond which a
// narration calls out the optimizer's mis-estimate. Smaller gaps are
// normal statistical noise and would train learners to ignore the callout.
const MisEstimateFactor = 4.0

// ActualsClause renders the runtime-statistics aside for a narrated node
// when the plan carries actual-stats attributes (an EXPLAIN ANALYZE
// document or a tree bridged from an instrumented execution): the actual
// row count, the loop count when the operator restarted, and — when
// estimate and actual are both present and disagree by at least
// MisEstimateFactor — the mis-estimate, with direction and magnitude.
// Wall time is deliberately not narrated: it varies run to run, and
// keeping it out makes the narration a pure function of the
// fingerprint-keyed plan (see plan.AttrTimeMs).
func ActualsClause(p *plan.Node) string {
	raw := p.Attr(plan.AttrActualRows)
	if raw == "" {
		return ""
	}
	actual, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("(this step actually produced ")
	sb.WriteString(raw)
	if actual == 1 {
		sb.WriteString(" row")
	} else {
		sb.WriteString(" rows")
	}
	if loops, err := strconv.ParseFloat(p.Attr(plan.AttrLoops), 64); err == nil && loops > 1 {
		fmt.Fprintf(&sb, " across %s loops", p.Attr(plan.AttrLoops))
	}
	if workers := p.Attr(plan.AttrWorkers); workers != "" {
		fmt.Fprintf(&sb, " using %s parallel workers", workers)
	}
	if segs := p.Attr(plan.AttrSegments); segs != "" {
		// Zone-map pruning is worth narrating even when nothing was
		// skipped: "0 of N pruned" teaches that the storage layout offered
		// the optimization and the predicate could not use it.
		pruned := p.Attr(plan.AttrSegmentsPruned)
		if pruned == "" {
			pruned = "0"
		}
		fmt.Fprintf(&sb, ", skipping %s of %s storage segments via zone maps", pruned, segs)
	}
	// The displayed magnitude is the raw ratio: smoothing would understate
	// small-estimate gaps, exactly the cases the callout exists to teach
	// (est 1 vs actual 99 is 99x, not 50x).
	switch perLoop, dir := MisEstimate(p); dir {
	case 1:
		fmt.Fprintf(&sb, "; the optimizer expected only %.0f, a %.1fx underestimate", p.Rows, perLoop/p.Rows)
	case -1:
		fmt.Fprintf(&sb, "; the optimizer expected %.0f, a %.1fx overestimate", p.Rows, p.Rows/math.Max(perLoop, 1))
	}
	if wanted := p.Attr(plan.AttrWorkersWanted); wanted != "" {
		// The engine's DOP policy, re-applied to the actual row count, would
		// have chosen more workers than the estimate-driven plan got — the
		// mis-estimate cost real parallelism, which is worth teaching.
		fmt.Fprintf(&sb, "; the row count would have justified %s parallel workers", wanted)
	}
	sb.WriteString(")")
	return sb.String()
}

// MisEstimate is the mis-estimate test of ActualsClause and the service's
// slow log. It returns p's actual rows per loop (the estimate is per
// loop, so an inner side rescanned N times is no N-fold underestimate),
// and 1 or -1 when the estimate is at least MisEstimateFactor under or
// over them, add-one smoothed so zero-row actuals stay comparable; 0
// otherwise, or when p lacks an estimate or actuals.
func MisEstimate(p *plan.Node) (perLoop float64, dir int) {
	actual, err := strconv.ParseFloat(p.Attr(plan.AttrActualRows), 64)
	if err != nil || p.Rows <= 0 {
		return 0, 0
	}
	perLoop = actual
	if loops, err := strconv.ParseFloat(p.Attr(plan.AttrLoops), 64); err == nil && loops > 1 {
		perLoop = actual / loops
	}
	switch smoothed := (perLoop + 1) / (p.Rows + 1); {
	case smoothed >= MisEstimateFactor:
		return perLoop, 1
	case smoothed <= 1/MisEstimateFactor:
		return perLoop, -1
	}
	return perLoop, 0
}

// relationDisplay shows the base relation, keeping the query's alias
// visible when it differs ("customer (c)") so self-joins stay readable.
func relationDisplay(p *plan.Node) string {
	rel := p.Attr(plan.AttrRelation)
	alias := p.Attr(plan.AttrAlias)
	if alias != "" && alias != rel {
		return fmt.Sprintf("%s (%s)", rel, alias)
	}
	return rel
}

// PresentTree renders the visual-tree presentation mode of US 6: the
// operator tree with each narrated node annotated with its sentence.
func PresentTree(lt *lot.Tree, nar *Narration) string {
	sentences := make(map[*lot.Node]string, len(nar.Steps))
	for _, s := range nar.Steps {
		sentences[s.Node] = s.Text
	}
	var sb strings.Builder
	var rec func(n *lot.Node, depth int)
	rec = func(n *lot.Node, depth int) {
		indent := strings.Repeat("  ", depth)
		sb.WriteString(indent)
		sb.WriteString(n.Name)
		if n.Auxiliary {
			sb.WriteString(" [auxiliary]")
		}
		if s, ok := sentences[n]; ok {
			sb.WriteString("  — ")
			sb.WriteString(s)
		}
		sb.WriteString("\n")
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(lt.Root, 0)
	return sb.String()
}
