// Package qa implements a natural-language question-answering interface
// over a narrated QEP, the companion capability the paper attributes to the
// NEURON demonstration [36] ("a natural language question answering system
// that allows a user to seek answers to a variety of concepts and features
// associated with a qep") — rebuilt here on top of LANTERN's declarative
// POEM store, so definitions work for every registered engine rather than
// hardcoded PostgreSQL rules.
//
// The matcher is deliberately rule-based (keyword patterns over the
// question), which covers the question families the demo supports:
// operator definitions, step lookups, intermediate-result provenance,
// cardinality/cost estimates, and plan structure.
package qa

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"lantern/internal/core"
	"lantern/internal/lot"
	"lantern/internal/plan"
	"lantern/internal/pool"
)

// Answerer answers questions about one QEP and its narration.
type Answerer struct {
	Store *pool.Store
	Tree  *plan.Node
	LOT   *lot.Tree
	Nar   *core.Narration
}

// New builds an answerer: the plan is annotated and narrated once.
func New(store *pool.Store, tree *plan.Node) (*Answerer, error) {
	lt, err := lot.Build(tree, store)
	if err != nil {
		return nil, err
	}
	nar, err := core.NewRuleLantern(store).NarrateLOT(lt)
	if err != nil {
		return nil, err
	}
	return &Answerer{Store: store, Tree: tree, LOT: lt, Nar: nar}, nil
}

var (
	stepRe       = regexp.MustCompile(`step\s+(\d+)`)
	identifierRe = regexp.MustCompile(`\b(t\d+)\b`)
)

// Answer replies to a natural-language question about the plan. Unknown
// question shapes return an error listing what can be asked.
func (a *Answerer) Answer(question string) (string, error) {
	q := strings.ToLower(strings.TrimSpace(question))
	q = strings.TrimSuffix(q, "?")
	switch {
	case strings.Contains(q, "how many steps"):
		return fmt.Sprintf("The plan is executed in %d steps.", len(a.Nar.Steps)), nil

	case strings.Contains(q, "how many operators") || strings.Contains(q, "how many nodes"):
		return fmt.Sprintf("The operator tree has %d nodes (%d distinct operators: %s).",
			a.Tree.CountNodes(), len(a.Tree.OperatorNames()),
			strings.Join(a.Tree.OperatorNames(), ", ")), nil

	case stepRe.MatchString(q) && (strings.Contains(q, "what") || strings.Contains(q, "explain") || strings.Contains(q, "do")):
		m := stepRe.FindStringSubmatch(q)
		idx := atoi(m[1])
		if idx < 1 || idx > len(a.Nar.Steps) {
			return "", fmt.Errorf("qa: the plan has steps 1..%d", len(a.Nar.Steps))
		}
		return a.Nar.Steps[idx-1].Text, nil

	case identifierRe.MatchString(q) && (strings.Contains(q, "produce") || strings.Contains(q, "what is") || strings.Contains(q, "where") || strings.Contains(q, "come")):
		id := strings.ToUpper(identifierRe.FindStringSubmatch(q)[1])
		for i, s := range a.Nar.Steps {
			if s.Identifier == id {
				return fmt.Sprintf("%s is the intermediate relation produced by step %d: %s",
					id, i+1, s.Text), nil
			}
		}
		return "", fmt.Errorf("qa: no step produces %s", id)

	case strings.Contains(q, "scanned") || strings.Contains(q, "which relations") || strings.Contains(q, "which tables"):
		rels := a.scannedRelations()
		if len(rels) == 0 {
			return "No base relations are scanned (constant result).", nil
		}
		return "The plan scans: " + strings.Join(rels, ", ") + ".", nil

	case strings.Contains(q, "most expensive") || strings.Contains(q, "costliest"):
		node, step := a.mostExpensiveStep()
		return fmt.Sprintf("The most expensive operation is %q (estimated cost %.2f), narrated as: %s",
			node.Name, node.Plan.Cost, step), nil

	case strings.Contains(q, "how many rows"):
		if id := identifierRe.FindStringSubmatch(q); id != nil {
			want := strings.ToUpper(id[1])
			for _, s := range a.Nar.Steps {
				if s.Identifier == want {
					return fmt.Sprintf("%s is estimated to contain %.0f rows.", want, s.Node.Plan.Rows), nil
				}
			}
			return "", fmt.Errorf("qa: no step produces %s", want)
		}
		return fmt.Sprintf("The final result is estimated to contain %.0f rows.", a.Tree.Rows), nil

	case strings.Contains(q, "why") && (strings.Contains(q, "sort") || strings.Contains(q, "hash ")):
		return a.whyAuxiliary(q)

	case strings.HasPrefix(q, "what is a ") || strings.HasPrefix(q, "what is an ") ||
		strings.HasPrefix(q, "what is ") || strings.Contains(q, "define"):
		return a.define(q)
	}
	return "", fmt.Errorf("qa: I can answer: 'what is <operator>', 'what does step N do', " +
		"'which operator produces TN', 'how many rows in TN', 'which tables are scanned', " +
		"'how many steps', 'why is there a sort', 'what is the most expensive step'")
}

// define answers operator-definition questions from the POEM store's defn
// attribute, matching by name or alias across the plan's source.
func (a *Answerer) define(q string) (string, error) {
	objs := a.Store.Index().Objects(a.LOT.Source)
	// Longest matching name/alias wins ("hash join" over "hash"). Names are
	// canonical (no spaces), so match them against the space-stripped
	// question too.
	squeezed := strings.ReplaceAll(q, " ", "")
	best := -1
	bestLen := 0
	for i, o := range objs {
		if cand := strings.ToLower(o.DisplayName()); strings.Contains(q, cand) && len(cand) > bestLen {
			best, bestLen = i, len(cand)
		}
		if strings.Contains(squeezed, o.Name) && len(o.Name) > bestLen {
			best, bestLen = i, len(o.Name)
		}
	}
	if best < 0 {
		return "", fmt.Errorf("qa: no operator of source %q matches the question", a.LOT.Source)
	}
	o := objs[best]
	if o.Defn == "" {
		return fmt.Sprintf("%s: no definition is recorded in the POEM store; its narration template is %q.",
			o.DisplayName(), o.Descs[0]), nil
	}
	return fmt.Sprintf("%s: %s.", o.DisplayName(), strings.TrimSuffix(o.Defn, ".")), nil
}

// whyAuxiliary explains the presence of an auxiliary operator via the
// cluster structure.
func (a *Answerer) whyAuxiliary(q string) (string, error) {
	for _, pair := range a.LOT.ClusterPairs() {
		aux, crit := pair[0], pair[1]
		auxName := strings.ToLower(aux.Name)
		if strings.Contains(q, plan.Canon(aux.Plan.Name)) || strings.Contains(q, auxName) {
			return fmt.Sprintf("The %s is an auxiliary operation supporting the %s: %s.",
				aux.Name, crit.Name, supportReason(aux, crit)), nil
		}
	}
	return "", fmt.Errorf("qa: the plan has no auxiliary operator matching the question")
}

func supportReason(aux, crit *lot.Node) string {
	switch plan.Canon(aux.Plan.Name) {
	case "hash":
		return "it builds the in-memory hash table the hash join probes"
	case "sort":
		return "it orders the input so the " + strings.ToLower(crit.Name) + " can consume sorted runs"
	}
	return "it prepares the input of the " + strings.ToLower(crit.Name)
}

// scannedRelations lists the base relations touched by the plan, sorted.
func (a *Answerer) scannedRelations() []string {
	seen := map[string]bool{}
	a.Tree.Walk(func(n *plan.Node) {
		if r := n.Attr(plan.AttrRelation); r != "" {
			seen[r] = true
		}
	})
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// mostExpensiveStep finds the narrated node with the highest estimated
// plan cost.
func (a *Answerer) mostExpensiveStep() (*lot.Node, string) {
	var best *lot.Node
	bestText := ""
	for _, s := range a.Nar.Steps {
		if best == nil || s.Node.Plan.Cost > best.Plan.Cost {
			best = s.Node
			bestText = s.Text
		}
	}
	return best, bestText
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}
