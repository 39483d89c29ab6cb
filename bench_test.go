package lantern

// One benchmark per table and figure of the paper's evaluation (§7), plus
// micro-benchmarks of the load-bearing components. The experiment
// benchmarks share one quick-mode Lab, so trained model variants are reused
// across benchmarks within a run:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable5 -benchtime=1x
import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"lantern/internal/core"
	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/experiments"
	"lantern/internal/metrics"
	"lantern/internal/plan"
	"lantern/internal/pool"
	"lantern/internal/service"
	"lantern/internal/sqlparser"
)

var (
	labOnce   sync.Once
	sharedLab *experiments.Lab
)

// lab returns the shared quick-mode experiment lab.
func lab() *experiments.Lab {
	labOnce.Do(func() {
		opt := experiments.DefaultOptions(io.Discard)
		opt.Scale = 0.5
		sharedLab = experiments.NewLab(opt)
	})
	return sharedLab
}

// benchExperiment runs one named experiment per iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	l := lab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(l, name); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per table / figure -----------------------------------------

func BenchmarkFig3FormatSurvey(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkTable3ParameterCount(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable4SelfBLEU(b *testing.B)          { benchExperiment(b, "table4") }
func BenchmarkFig6aDiversification(b *testing.B)    { benchExperiment(b, "fig6a") }
func BenchmarkFig6bPretrainedLoss(b *testing.B)     { benchExperiment(b, "fig6b") }
func BenchmarkFig7aPretrainedAccuracy(b *testing.B) { benchExperiment(b, "fig7a") }
func BenchmarkFig7bWeightSharing(b *testing.B)      { benchExperiment(b, "fig7b") }
func BenchmarkFig8aOutputLength(b *testing.B)       { benchExperiment(b, "fig8a") }
func BenchmarkFig8bEase(b *testing.B)               { benchExperiment(b, "fig8b") }
func BenchmarkFig8cQuality(b *testing.B)            { benchExperiment(b, "fig8c") }
func BenchmarkFig8dPreference(b *testing.B)         { benchExperiment(b, "fig8d") }
func BenchmarkTable5BLEU(b *testing.B)              { benchExperiment(b, "table5") }
func BenchmarkExp5ErrorAudit(b *testing.B)          { benchExperiment(b, "exp5") }
func BenchmarkTable6Efficiency(b *testing.B)        { benchExperiment(b, "table6") }
func BenchmarkFig9aPretrainSurvey(b *testing.B)     { benchExperiment(b, "fig9a") }
func BenchmarkFig9bParaphraseSurvey(b *testing.B)   { benchExperiment(b, "fig9b") }
func BenchmarkFig9cVsNeuron(b *testing.B)           { benchExperiment(b, "fig9c") }
func BenchmarkTable7Boredom(b *testing.B)           { benchExperiment(b, "table7") }
func BenchmarkUS3MixedStream(b *testing.B)          { benchExperiment(b, "us3") }
func BenchmarkUS4WrongTokens(b *testing.B)          { benchExperiment(b, "us4") }
func BenchmarkUS6Presentation(b *testing.B)         { benchExperiment(b, "us6") }

// --- Component micro-benchmarks --------------------------------------------------

func tpchEngine(b *testing.B) *engine.Engine {
	b.Helper()
	e := engine.NewDefault()
	if err := datasets.LoadTPCH(e, 0.05, 1); err != nil {
		b.Fatal(err)
	}
	return e
}

const benchJoinQuery = `SELECT c.c_name, SUM(o.o_totalprice) FROM customer c, orders o
	WHERE c.c_custkey = o.o_custkey AND c.c_mktsegment = 'BUILDING'
	GROUP BY c.c_name ORDER BY c.c_name LIMIT 10`

// BenchmarkParserTPCH measures SQL parsing over the 22-query workload.
func BenchmarkParserTPCH(b *testing.B) {
	workload := datasets.TPCHWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range workload {
			if _, err := sqlparser.ParseSelect(w.SQL); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPlannerJoin measures cost-based planning of a join query.
func BenchmarkPlannerJoin(b *testing.B) {
	benchPlanParsed(b, benchJoinQuery)
}

// BenchmarkPlannerTPCHQ8 and BenchmarkPlannerTPCHQ5 measure join ordering
// where it costs most: exhaustive ordering of Q8's eight relations costs
// 3,025 candidate splits per plan, of Q5's six 301.
func BenchmarkPlannerTPCHQ8(b *testing.B) { benchPlanParsed(b, tpchQuery(b, "Q8")) }
func BenchmarkPlannerTPCHQ5(b *testing.B) { benchPlanParsed(b, tpchQuery(b, "Q5")) }

func tpchQuery(b *testing.B, name string) string {
	b.Helper()
	for _, w := range datasets.TPCHWorkload() {
		if w.Name == name {
			return w.SQL
		}
	}
	b.Fatalf("no TPC-H query %s", name)
	return ""
}

// benchPlanParsed plans one parsed SELECT per iteration, after one
// warm-up plan as benchPlan makes, so allocs/op do not depend on b.N.
func benchPlanParsed(b *testing.B, q string) {
	b.Helper()
	e := tpchEngine(b)
	sel, err := sqlparser.ParseSelect(q)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Plan(sel); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Plan(sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorJoin measures full execution of the same query.
func BenchmarkExecutorJoin(b *testing.B) {
	benchQuery(b, tpchEngine(b), benchJoinQuery)
}

// BenchmarkRuleNarration measures RULE-LANTERN end to end (the paper's
// 0.015 s average response, Table 6).
func BenchmarkRuleNarration(b *testing.B) {
	e := tpchEngine(b)
	store := pool.NewSeededStore()
	rl := core.NewRuleLantern(store)
	r, err := e.Exec("EXPLAIN (FORMAT JSON) " + benchJoinQuery)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := plan.ParsePostgresJSON(r.Plan)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rl.Narrate(tree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNeuralNarration measures NEURAL-LANTERN inference (beam 4) on a
// trained quick-mode model (the paper's 0.216 s average response).
func BenchmarkNeuralNarration(b *testing.B) {
	l := lab()
	nl := l.Model("base")
	e := tpchEngine(b)
	r, err := e.Exec("EXPLAIN (FORMAT JSON) " + benchJoinQuery)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := plan.ParsePostgresJSON(r.Plan)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nl.Narrate(tree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplainJSON measures plan serialization as EXPLAIN (FORMAT
// JSON) runs it: bridge the physical plan, then write the pg document.
func BenchmarkExplainJSON(b *testing.B) {
	e := tpchEngine(b)
	pl, err := e.PlanSQL(benchJoinQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.FormatPostgresJSON(engine.ToPlanNode(pl)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolCompose measures the COMPOSE statement (template assembly).
func BenchmarkPoolCompose(b *testing.B) {
	store := pool.NewSeededStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Exec("COMPOSE hash, hashjoin FROM pg"); err != nil {
			b.Fatal(err)
		}
	}
}

// serviceServer builds a serving-layer server over a TPC-H engine.
// cacheBytes < 0 disables the narration cache.
func serviceServer(b *testing.B, cacheBytes int64) *service.Server {
	b.Helper()
	srv := service.NewServer(tpchEngine(b), pool.NewSeededStore(), service.Config{
		CacheBytes:     cacheBytes,
		RequestTimeout: time.Minute,
	})
	b.Cleanup(srv.Close)
	return srv
}

// BenchmarkServiceNarrateCached measures the serving hot path: a repeated
// identical request answered from the fingerprint cache without parsing,
// planning, or narrating.
func BenchmarkServiceNarrateCached(b *testing.B) {
	srv := serviceServer(b, 32<<20)
	req := &service.NarrateRequest{SQL: benchJoinQuery}
	if _, err := srv.Narrate(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := srv.Narrate(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkServiceNarrateCold measures the same request with caching
// disabled: full plan→fingerprint→LOT→narrate per call, through the
// worker pool.
func BenchmarkServiceNarrateCold(b *testing.B) {
	srv := serviceServer(b, -1)
	req := &service.NarrateRequest{SQL: benchJoinQuery}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := srv.Narrate(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Cached {
			b.Fatal("cold benchmark must not hit a cache")
		}
	}
}

// BenchmarkBLEU measures the metric used throughout the evaluation.
func BenchmarkBLEU(b *testing.B) {
	hyp := "perform hash join on orders and customer on condition a = b to get the intermediate relation T2"
	ref := "perform hash join on customer and orders on condition a = b to get the intermediate relation T2"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.BLEU(hyp, ref)
	}
}

// BenchmarkServiceQueryCached measures the /v1/query serving path on a
// warm narration cache: the query still executes (the actuals key the
// cache), but the narration is answered from the fingerprint cache.
func BenchmarkServiceQueryCached(b *testing.B) {
	srv := serviceServer(b, 32<<20)
	req := &service.QueryRequest{SQL: benchJoinQuery, MaxRows: -1}
	if _, err := srv.Query(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := srv.Query(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("expected a narration cache hit")
		}
	}
}

// BenchmarkServiceQueryCold measures the same request with caching
// disabled: execute with instrumentation, bridge, fingerprint, narrate —
// the full end-to-end loop per call.
func BenchmarkServiceQueryCold(b *testing.B) {
	srv := serviceServer(b, -1)
	req := &service.QueryRequest{SQL: benchJoinQuery, MaxRows: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := srv.Query(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Cached {
			b.Fatal("cold benchmark must not hit a cache")
		}
	}
}
