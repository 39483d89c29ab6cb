// Package acts implements the act decomposition of paper §6.2: a QEP is
// split into acts — each a single operator node or an (auxiliary, critical)
// cluster — and each act becomes one training sample for the QEP2Seq model:
// a compact operator-level input serialization paired with its tagged
// RULE-LANTERN description as output.
package acts

import (
	"sort"
	"strings"

	"lantern/internal/core"
	"lantern/internal/lot"
	"lantern/internal/plan"
	"lantern/internal/pool"
)

// Act is one decomposed unit of a QEP.
type Act struct {
	// Critical is the act's main node (cluster head).
	Critical *lot.Node
	// Input is the encoder token sequence: the canonical operator names of
	// the cluster followed by the tags of the operands it consumes.
	Input []string
	// Target is the tagged natural-language description (training output).
	Target string
	// Sentence is the untagged RULE-LANTERN sentence (ground truth for
	// BLEU evaluation after detagging).
	Sentence string
	// Tags maps each special tag to the concrete values it stands for.
	Tags core.TagMap
}

// Decompose builds the acts of a plan tree using the POEM store: one act
// per narration step of RULE-LANTERN (Algorithm 1's non-auxiliary nodes).
func Decompose(tree *plan.Node, store *pool.Store) ([]Act, error) {
	lt, err := lot.Build(tree, store)
	if err != nil {
		return nil, err
	}
	rl := core.NewRuleLantern(store)
	nar, err := rl.NarrateLOT(lt)
	if err != nil {
		return nil, err
	}
	out := make([]Act, 0, len(nar.Steps))
	for _, step := range nar.Steps {
		tagged, tags := core.TaggedNodeSentence(step.Node)
		out = append(out, Act{
			Critical: step.Node,
			Input:    InputTokens(step.Node),
			Target:   tagged,
			Sentence: step.Text,
			Tags:     tags,
		})
	}
	return out, nil
}

// InputTokens serializes an act for the encoder: auxiliary operator names,
// the critical operator name, then one operand tag per attribute the act
// consumes. The serialization is schema-independent by construction.
func InputTokens(node *lot.Node) []string {
	var toks []string
	for _, aux := range node.AuxChildren {
		toks = append(toks, plan.Canon(aux.Plan.Name))
	}
	toks = append(toks, plan.Canon(node.Plan.Name))
	p := node.Plan
	// Operand tags in a canonical order.
	if p.Attr(plan.AttrRelation) != "" {
		toks = append(toks, core.TagTable)
	}
	for range node.Children {
		if p.Attr(plan.AttrRelation) == "" {
			toks = append(toks, core.TagTable)
		}
	}
	if p.Attr(plan.AttrIndexName) != "" {
		toks = append(toks, core.TagIndexName)
	}
	if p.Attr(plan.AttrJoinCond) != "" {
		toks = append(toks, core.TagJoinCond)
	} else if p.Attr(plan.AttrFilter) != "" || p.Attr(plan.AttrIndexCond) != "" {
		toks = append(toks, core.TagFilter)
	}
	if p.Attr(plan.AttrGroupKey) != "" {
		toks = append(toks, core.TagGroupKey)
	}
	if p.Attr(plan.AttrSortKey) != "" && plan.Canon(p.Name) != "sort" {
		toks = append(toks, core.TagSortKey)
	}
	if node.Identifier != "" {
		toks = append(toks, core.TagNewTable)
	}
	return toks
}

// InputVocabulary returns the closed encoder vocabulary: every canonical
// operator name registered in the store plus the special tags. The paper's
// input vocabulary has 36 entries; ours is the same construction over the
// seeded sources.
func InputVocabulary(store *pool.Store) []string {
	seen := map[string]bool{}
	var out []string
	ix := store.Index()
	for _, src := range store.Sources() {
		for _, o := range ix.Objects(src) {
			if !seen[o.Name] {
				seen[o.Name] = true
				out = append(out, o.Name)
			}
		}
	}
	sort.Strings(out)
	out = append(out,
		core.TagTable, core.TagNewTable, core.TagFilter, core.TagJoinCond,
		core.TagSortKey, core.TagGroupKey, core.TagIndexName)
	return out
}

// OutputVocabulary builds the closed decoder vocabulary from a corpus of
// tagged target sentences (the paper's is 62 tokens). BOS and EOS occupy
// the first two slots, matching the nn package's reserved IDs.
func OutputVocabulary(targets []string) []string {
	seen := map[string]bool{}
	var words []string
	for _, t := range targets {
		for _, w := range strings.Fields(t) {
			if !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
		}
	}
	sort.Strings(words)
	return append([]string{"<BOS>", "<EOS>"}, words...)
}
