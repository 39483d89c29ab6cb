// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each experiment is a named function that prints the
// paper-reported values next to the values measured on this reproduction;
// cmd/experiments exposes them on the command line and bench_test.go wraps
// each in a testing.B benchmark.
//
// Two fidelity levels exist: Quick (default) runs the full pipeline at
// reduced dimensions and epochs so the whole suite finishes in minutes on a
// laptop; Full uses the paper's dimensions (hidden 256, BERT 768, ELMo
// 1024, 50+ epochs).
package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"lantern/internal/datasets"
	"lantern/internal/embed"
	"lantern/internal/engine"
	"lantern/internal/neural"
	"lantern/internal/plan"
	"lantern/internal/pool"
	"lantern/internal/textgen"
)

// Options configures a run.
type Options struct {
	Out   io.Writer
	Quick bool
	Seed  int64
	// Scale multiplies the dataset sizes (1.0 = the scaled-down defaults).
	Scale float64
}

// DefaultOptions returns the quick configuration.
func DefaultOptions(out io.Writer) Options {
	return Options{Out: out, Quick: true, Seed: 1, Scale: 1.0}
}

// dims returns the model dimensions for the fidelity level.
type dimSet struct {
	Hidden                 int
	EncEmb, DecEmb         int
	W2V, GloVe, BERT, ELMo int
	Epochs                 int
	CorpusSentences        int
	IMDBTestQueries        int
	TrainQueries           int
}

func (o Options) dims() dimSet {
	if o.Quick {
		return dimSet{
			Hidden: 32, EncEmb: 8, DecEmb: 12,
			W2V: 16, GloVe: 12, BERT: 24, ELMo: 32,
			Epochs: 15, CorpusSentences: 1500,
			IMDBTestQueries: 40, TrainQueries: 30,
		}
	}
	return dimSet{
		Hidden: 256, EncEmb: 16, DecEmb: 32,
		W2V: 128, GloVe: 100, BERT: 768, ELMo: 1024,
		Epochs: 50, CorpusSentences: 20000,
		IMDBTestQueries: 1000, TrainQueries: 200,
	}
}

// Lab lazily builds and caches the shared experimental substrate: loaded
// engines, the POEM store, the training trees and dataset, embeddings and
// trained model variants.
type Lab struct {
	Opt   Options
	Store *pool.Store

	tpch, sdss, imdb *engine.Engine
	trainTrees       []*plan.Node
	imdbTrees        []*plan.Node
	dataset          *neural.Dataset
	plainDataset     *neural.Dataset // without paraphrasing
	corpus           [][]string
	embeddings       map[string]*embed.Embedding
	models           map[string]*neural.NeuralLantern
}

// NewLab creates an empty lab.
func NewLab(opt Options) *Lab {
	return &Lab{
		Opt:        opt,
		Store:      pool.NewSeededStore(),
		embeddings: map[string]*embed.Embedding{},
		models:     map[string]*neural.NeuralLantern{},
	}
}

func (l *Lab) printf(format string, args ...any) {
	fmt.Fprintf(l.Opt.Out, format, args...)
}

// TPCH returns the loaded TPC-H engine.
func (l *Lab) TPCH() *engine.Engine {
	if l.tpch == nil {
		l.tpch = engine.NewDefault()
		must(datasets.LoadTPCH(l.tpch, 0.05*l.Opt.Scale, l.Opt.Seed))
	}
	return l.tpch
}

// SDSS returns the loaded SDSS engine.
func (l *Lab) SDSS() *engine.Engine {
	if l.sdss == nil {
		l.sdss = engine.NewDefault()
		must(datasets.LoadSDSS(l.sdss, 0.05*l.Opt.Scale, l.Opt.Seed))
	}
	return l.sdss
}

// IMDB returns the loaded IMDB engine.
func (l *Lab) IMDB() *engine.Engine {
	if l.imdb == nil {
		l.imdb = engine.NewDefault()
		must(datasets.LoadIMDB(l.imdb, 0.05*l.Opt.Scale, l.Opt.Seed))
	}
	return l.imdb
}

func must(err error) {
	if err != nil {
		panic("experiments: " + err.Error())
	}
}

// tree explains a query on an engine and parses the JSON plan.
func tree(e *engine.Engine, sql string) (*plan.Node, error) {
	r, err := e.Exec("EXPLAIN (FORMAT JSON) " + sql)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sql, err)
	}
	return plan.ParsePostgresJSON(r.Plan)
}

// TrainTrees returns the training plan trees: the TPC-H and SDSS workloads
// (the paper trains on these two domains) plus generated queries.
func (l *Lab) TrainTrees() []*plan.Node {
	if l.trainTrees != nil {
		return l.trainTrees
	}
	d := l.Opt.dims()
	for _, w := range datasets.TPCHWorkload() {
		t, err := tree(l.TPCH(), w.SQL)
		must(err)
		l.trainTrees = append(l.trainTrees, t)
	}
	for _, w := range datasets.SDSSWorkload() {
		t, err := tree(l.SDSS(), w.SQL)
		must(err)
		l.trainTrees = append(l.trainTrees, t)
	}
	gt := textgen.New(l.TPCH(), datasets.TPCHForeignKeys(), textgen.DefaultConfig(), l.Opt.Seed)
	for _, q := range gt.Queries(d.TrainQueries / 2) {
		t, err := tree(l.TPCH(), q)
		must(err)
		l.trainTrees = append(l.trainTrees, t)
	}
	gs := textgen.New(l.SDSS(), datasets.SDSSForeignKeys(), textgen.DefaultConfig(), l.Opt.Seed+1)
	for _, q := range gs.Queries(d.TrainQueries / 2) {
		t, err := tree(l.SDSS(), q)
		must(err)
		l.trainTrees = append(l.trainTrees, t)
	}
	return l.trainTrees
}

// IMDBTrees returns the cross-domain test plans (the paper's 1000 Kipf
// queries over IMDB).
func (l *Lab) IMDBTrees() []*plan.Node {
	if l.imdbTrees != nil {
		return l.imdbTrees
	}
	d := l.Opt.dims()
	g := textgen.New(l.IMDB(), datasets.IMDBForeignKeys(), textgen.DefaultConfig(), l.Opt.Seed+2)
	for _, q := range g.Queries(d.IMDBTestQueries) {
		t, err := tree(l.IMDB(), q)
		must(err)
		l.imdbTrees = append(l.imdbTrees, t)
	}
	return l.imdbTrees
}

// Dataset returns the paraphrase-expanded training dataset.
func (l *Lab) Dataset() *neural.Dataset {
	if l.dataset == nil {
		ds, err := neural.NewBuilder(l.Store).Build(l.TrainTrees())
		must(err)
		l.dataset = ds
	}
	return l.dataset
}

// PlainDataset returns the un-diversified dataset (ablation).
func (l *Lab) PlainDataset() *neural.Dataset {
	if l.plainDataset == nil {
		b := neural.NewBuilder(l.Store)
		b.Tools = nil
		ds, err := b.Build(l.TrainTrees())
		must(err)
		l.plainDataset = ds
	}
	return l.plainDataset
}

// Corpus returns the generic pre-training corpus.
func (l *Lab) Corpus() [][]string {
	if l.corpus == nil {
		l.corpus = embed.GenericCorpus(l.Opt.dims().CorpusSentences, l.Opt.Seed)
	}
	return l.corpus
}

// taskCorpus is the "self-trained" corpus: RULE-LANTERN's own outputs.
func (l *Lab) taskCorpus() [][]string {
	var out [][]string
	for _, g := range l.Dataset().Groups {
		out = append(out, embed.TokenizeCorpus([]string{g[0]})...)
	}
	return out
}

// Embedding trains (and caches) a named embedding variant.
// Names: word2vec, glove, bert, elmo, word2vec-self, glove-self.
func (l *Lab) Embedding(name string) *embed.Embedding {
	if e, ok := l.embeddings[name]; ok {
		return e
	}
	d := l.Opt.dims()
	var e *embed.Embedding
	switch name {
	case "word2vec":
		e = embed.TrainWord2Vec(l.Corpus(), embed.DefaultWord2Vec(d.W2V))
	case "word2vec-self":
		e = embed.TrainWord2Vec(l.taskCorpus(), embed.DefaultWord2Vec(d.W2V))
	case "glove":
		e = embed.TrainGloVe(l.Corpus(), embed.DefaultGloVe(d.GloVe))
	case "glove-self":
		e = embed.TrainGloVe(l.taskCorpus(), embed.DefaultGloVe(d.GloVe))
	case "bert":
		m := embed.TrainBiLM(l.Corpus(), embed.DefaultContextual(d.BERT, embed.ModeBERT))
		e = m.ExtractStatic(l.Corpus())
	case "elmo":
		m := embed.TrainBiLM(l.Corpus(), embed.DefaultContextual(d.ELMo, embed.ModeELMo))
		e = m.ExtractStatic(l.Corpus())
	default:
		panic("experiments: unknown embedding " + name)
	}
	l.embeddings[name] = e
	return e
}

// trainCfg builds the training configuration for a model variant.
func (l *Lab) trainCfg(embedding *embed.Embedding, share bool) neural.TrainConfig {
	d := l.Opt.dims()
	cfg := neural.TrainConfig{
		Hidden: d.Hidden, EncEmbDim: d.EncEmb, DecEmbDim: d.DecEmb,
		Epochs: d.Epochs, BatchSize: 4, Seed: l.Opt.Seed, Share: share,
	}
	cfg.LR = 0.3 // quick mode needs a workable LR; full mode uses the paper's below
	if !l.Opt.Quick {
		cfg.LR = 0.05
	}
	if embedding != nil {
		cfg.DecEmbDim = embedding.Dim
		cfg.Embedding = embedding
		cfg.FrozenEmbed = false
	}
	if share {
		cfg.EncEmbDim = cfg.DecEmbDim
	}
	return cfg
}

// Model trains (and caches) a model variant on the diversified dataset.
// Variant names: base, word2vec, glove, bert, elmo, word2vec-self,
// glove-self, base-plain (no paraphrasing), and "-shared" suffixes.
func (l *Lab) Model(variant string) *neural.NeuralLantern {
	if m, ok := l.models[variant]; ok {
		return m
	}
	name := variant
	share := false
	if n, ok := cutSuffix(variant, "-shared"); ok {
		name, share = n, true
	}
	ds := l.Dataset()
	var e *embed.Embedding
	switch name {
	case "base":
	case "base-plain":
		ds = l.PlainDataset()
	default:
		e = l.Embedding(name)
	}
	nl, err := neural.Train(l.Store, ds, l.trainCfg(e, share))
	must(err)
	l.models[variant] = nl
	return nl
}

func cutSuffix(s, suffix string) (string, bool) {
	if len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix {
		return s[:len(s)-len(suffix)], true
	}
	return s, false
}

// rng derives a deterministic RNG for an experiment.
func (l *Lab) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(l.Opt.Seed + offset))
}
