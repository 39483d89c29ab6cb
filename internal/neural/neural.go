// Package neural implements NEURAL-LANTERN (paper §6): the deep-learning
// narration generator that injects language variability to counter the
// habituation and boredom RULE-LANTERN's fixed templates induce.
//
// The pipeline follows §6.2–6.4: random queries are generated over a schema
// and instance (internal/textgen), their QEPs are decomposed into acts
// (internal/acts), RULE-LANTERN provides the tagged ground-truth
// descriptions, three paraphrasing tools expand and diversify the outputs
// (internal/paraphrase), and a QEP2Seq LSTM encoder-decoder with attention
// (internal/nn) is trained on the result. At inference time the model's
// beam-search output is detagged back into a concrete narration.
package neural

import (
	"fmt"
	"strings"

	"lantern/internal/acts"
	"lantern/internal/core"
	"lantern/internal/lot"
	"lantern/internal/nn"
	"lantern/internal/paraphrase"
	"lantern/internal/plan"
	"lantern/internal/pool"
)

// unkToken absorbs input tokens unseen during training.
const unkToken = "<unk>"

// Dataset is a prepared act-level training corpus.
type Dataset struct {
	InVocab  []string
	OutVocab []string
	inIdx    map[string]int
	outIdx   map[string]int
	// Samples are the encoded training pairs (after paraphrase expansion).
	Samples []nn.Sample
	// Groups holds, per original act, the group of target sentences
	// (original + paraphrases) — the unit Table 4 measures Self-BLEU over.
	Groups [][]string
	// BaseActs counts the acts before expansion.
	BaseActs int
}

// Builder accumulates acts into a dataset.
type Builder struct {
	Store *pool.Store
	// Tools are the paraphrasers used for diversification; nil disables
	// the §6.3 expansion (the ablation of Figure 6(a) / US 2).
	Tools []paraphrase.Tool
}

// NewBuilder creates a builder with the three standard paraphrasing tools.
func NewBuilder(store *pool.Store) *Builder {
	return &Builder{Store: store, Tools: paraphrase.Tools()}
}

// Build decomposes every plan tree into acts and assembles the encoded
// dataset, expanding each target through the paraphrasing tools.
func (b *Builder) Build(trees []*plan.Node) (*Dataset, error) {
	var all []acts.Act
	var groups [][]string
	for _, tree := range trees {
		as, err := acts.Decompose(tree, b.Store)
		if err != nil {
			return nil, err
		}
		all = append(all, as...)
	}
	type pair struct {
		in     []string
		target string
	}
	var pairs []pair
	for _, a := range all {
		group := paraphrase.Expand(a.Target, b.Tools)
		groups = append(groups, group)
		for _, g := range group {
			pairs = append(pairs, pair{in: a.Input, target: g})
		}
	}
	// Vocabularies: closed input vocabulary from the POEM store plus the
	// tags and <unk>; output vocabulary from the observed targets.
	inVocab := append(acts.InputVocabulary(b.Store), unkToken)
	var targets []string
	for _, p := range pairs {
		targets = append(targets, p.target)
	}
	outVocab := acts.OutputVocabulary(targets)
	ds := &Dataset{
		InVocab: inVocab, OutVocab: outVocab,
		inIdx:  index(inVocab),
		outIdx: index(outVocab),
		Groups: groups, BaseActs: len(all),
	}
	for _, p := range pairs {
		ds.Samples = append(ds.Samples, nn.Sample{
			In:  ds.EncodeInput(p.in),
			Out: ds.encodeOutput(p.target),
		})
	}
	return ds, nil
}

func index(vocab []string) map[string]int {
	m := make(map[string]int, len(vocab))
	for i, w := range vocab {
		m[w] = i
	}
	return m
}

// EncodeInput maps input tokens to IDs, sending unknowns to <unk>.
func (d *Dataset) EncodeInput(tokens []string) []int {
	out := make([]int, len(tokens))
	for i, tok := range tokens {
		if id, ok := d.inIdx[tok]; ok {
			out[i] = id
		} else {
			out[i] = d.inIdx[unkToken]
		}
	}
	return out
}

func (d *Dataset) encodeOutput(sentence string) []int {
	fields := strings.Fields(sentence)
	out := make([]int, 0, len(fields))
	for _, w := range fields {
		if id, ok := d.outIdx[w]; ok {
			out = append(out, id)
		}
	}
	return out
}

// DecodeOutput maps output IDs back to a tagged sentence.
func (d *Dataset) DecodeOutput(ids []int) string {
	words := make([]string, 0, len(ids))
	for _, id := range ids {
		if id >= 0 && id < len(d.OutVocab) && id != nn.BOS && id != nn.EOS {
			words = append(words, d.OutVocab[id])
		}
	}
	return strings.Join(words, " ")
}

// Split partitions the samples into train/validation sets (the paper uses
// 80/20, selected randomly; here a deterministic stride keeps runs
// reproducible).
func (d *Dataset) Split(valFraction float64) (train, val []nn.Sample) {
	if valFraction <= 0 || valFraction >= 1 {
		return d.Samples, nil
	}
	stride := int(1 / valFraction)
	if stride < 2 {
		stride = 2
	}
	for i, s := range d.Samples {
		if i%stride == stride-1 {
			val = append(val, s)
		} else {
			train = append(train, s)
		}
	}
	return train, val
}

// TrainConfig bundles the paper's training hyper-parameters (§6.4.2).
type TrainConfig struct {
	Hidden    int     // paper: 256
	EncEmbDim int     // paper: 16
	DecEmbDim int     // paper: 32 random-init, or the pre-trained dim
	Epochs    int     // paper: 50
	BatchSize int     // paper: 4
	LR        float64 // paper: 0.001 (plain SGD)
	Share     bool
	Seed      int64
	// EarlyStopDelta stops when the epoch-to-epoch training-loss change
	// falls below this threshold (paper: 0.001); 0 disables.
	EarlyStopDelta float64
	// Embedding, when non-nil, provides pre-trained decoder vectors.
	Embedding   EmbeddingProvider
	FrozenEmbed bool
	// TrainSamples / ValSamples override the dataset's default 80/20
	// split — the Figure 6(a) ablation trains on undiversified samples but
	// validates both models on the same diversified validation set.
	TrainSamples []nn.Sample
	ValSamples   []nn.Sample
}

// EmbeddingProvider supplies decoder word vectors for an output vocabulary.
type EmbeddingProvider interface {
	Matrix(vocab []string) [][]float64
}

// EpochStats records one epoch of training for the learning-curve figures.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	ValLoss   float64
	ValAcc    float64
}

// NeuralLantern is the trained narration generator.
type NeuralLantern struct {
	Store   *pool.Store
	Model   *nn.Model
	Data    *Dataset
	BeamK   int
	History []EpochStats
}

// Train builds and trains a QEP2Seq model on the dataset.
func Train(store *pool.Store, ds *Dataset, cfg TrainConfig) (*NeuralLantern, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 4
	}
	model, err := nn.NewModel(nn.Config{
		InVocab: len(ds.InVocab), OutVocab: len(ds.OutVocab),
		Hidden: cfg.Hidden, EncEmbDim: cfg.EncEmbDim, DecEmbDim: cfg.DecEmbDim,
		Share: cfg.Share, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Embedding != nil {
		if err := model.SetDecoderEmbedding(cfg.Embedding.Matrix(ds.OutVocab), cfg.FrozenEmbed); err != nil {
			return nil, err
		}
	}
	nl := &NeuralLantern{Store: store, Model: model, Data: ds, BeamK: 4}
	train, val := ds.Split(0.2)
	if cfg.TrainSamples != nil {
		train = cfg.TrainSamples
	}
	if cfg.ValSamples != nil {
		val = cfg.ValSamples
	}
	prevLoss := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochLoss, batches := 0.0, 0
		for i := 0; i < len(train); i += cfg.BatchSize {
			j := i + cfg.BatchSize
			if j > len(train) {
				j = len(train)
			}
			l, err := model.TrainBatch(train[i:j], cfg.LR)
			if err != nil {
				return nil, err
			}
			epochLoss += l
			batches++
		}
		if batches == 0 {
			return nil, fmt.Errorf("neural: no training samples")
		}
		st := EpochStats{Epoch: epoch + 1, TrainLoss: epochLoss / float64(batches)}
		if len(val) > 0 {
			vl, va, err := model.Evaluate(val)
			if err != nil {
				return nil, err
			}
			st.ValLoss, st.ValAcc = vl, va
		}
		nl.History = append(nl.History, st)
		// Early stopping on training-loss plateau (§7.2 Exp 3).
		if cfg.EarlyStopDelta > 0 && epoch > 0 && abs(prevLoss-st.TrainLoss) < cfg.EarlyStopDelta {
			break
		}
		prevLoss = st.TrainLoss
	}
	return nl, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ActSentence translates a single act (LOT node cluster) and detags the
// result — the step-level generator the LANTERN orchestrator mixes with
// RULE-LANTERN (US 5's frequency-threshold switching).
func (nl *NeuralLantern) ActSentence(node *lot.Node) (string, error) {
	in := nl.Data.EncodeInput(acts.InputTokens(node))
	ids, err := nl.Model.Beam(in, nl.BeamK, 64)
	if err != nil {
		return "", err
	}
	tagged := nl.Data.DecodeOutput(ids)
	_, tags := core.TaggedNodeSentence(node)
	return core.Detag(tagged, tags), nil
}

// Narrate translates a whole plan: the QEP is decomposed into acts, each
// act is translated independently (equation (1)), and the step sentences
// are concatenated (§6.4's construction of the full explanation).
func (nl *NeuralLantern) Narrate(tree *plan.Node) (*core.Narration, error) {
	lt, err := lot.Build(tree, nl.Store)
	if err != nil {
		return nil, err
	}
	nar := &core.Narration{Source: lt.Source}
	for _, node := range lt.Steps {
		text, err := nl.ActSentence(node)
		if err != nil {
			return nil, err
		}
		nar.Steps = append(nar.Steps, core.Step{Text: text, Node: node, Identifier: node.Identifier})
	}
	return nar, nil
}
