package lantern

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// planner's join-algorithm and access-path switches (how plan shape affects
// execution time), DP vs greedy join ordering, beam width in neural
// decoding, and paraphrase expansion cost.
//
//	go test -bench=Ablation -benchmem
import (
	"testing"

	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/paraphrase"
)

const ablationQuery = `SELECT n.n_name, COUNT(*) FROM customer c, orders o, nation n
	WHERE c.c_custkey = o.o_custkey AND c.c_nationkey = n.n_nationkey
	AND o.o_totalprice > 1000
	GROUP BY n.n_name`

func ablationEngine(b *testing.B, mutate func(*engine.Config)) *engine.Engine {
	b.Helper()
	cfg := engine.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	e := engine.New(cfg)
	if err := datasets.LoadTPCH(e, 0.05, 1); err != nil {
		b.Fatal(err)
	}
	return e
}

func benchQuery(b *testing.B, e *engine.Engine, q string) {
	b.Helper()
	// Warm up once so lazy initialization (catalog caches, runtime map and
	// stack growth) is not charged to the measured iterations — at short
	// benchtimes those one-time allocations otherwise dominate allocs/op.
	if _, err := e.Exec(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Join algorithm ablation (cost of forcing each physical join) -------------

func BenchmarkAblationJoinDefault(b *testing.B) {
	benchQuery(b, ablationEngine(b, nil), ablationQuery)
}

func BenchmarkAblationJoinHashOnly(b *testing.B) {
	benchQuery(b, ablationEngine(b, func(c *engine.Config) {
		c.EnableMergeJoin, c.EnableNestLoop = false, false
	}), ablationQuery)
}

func BenchmarkAblationJoinMergeOnly(b *testing.B) {
	benchQuery(b, ablationEngine(b, func(c *engine.Config) {
		c.EnableHashJoin, c.EnableNestLoop = false, false
	}), ablationQuery)
}

func BenchmarkAblationJoinNLOnly(b *testing.B) {
	benchQuery(b, ablationEngine(b, func(c *engine.Config) {
		c.EnableHashJoin, c.EnableMergeJoin = false, false
	}), ablationQuery)
}

// --- Access path ablation ------------------------------------------------------

const pointQuery = "SELECT c_name FROM customer WHERE c_custkey = 42"

func BenchmarkAblationIndexScan(b *testing.B) {
	benchQuery(b, ablationEngine(b, nil), pointQuery)
}

func BenchmarkAblationSeqScanForced(b *testing.B) {
	benchQuery(b, ablationEngine(b, func(c *engine.Config) {
		c.EnableIndexScan = false
	}), pointQuery)
}

// --- Join ordering ablation ------------------------------------------------------

const fiveWayJoin = `SELECT COUNT(*) FROM customer c, orders o, lineitem l, nation n, region r
	WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
	AND c.c_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey`

// benchPlan is benchQuery for planning alone, with the same warm-up.
func benchPlan(b *testing.B, e *engine.Engine, q string) {
	b.Helper()
	if _, err := e.PlanSQL(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PlanSQL(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOrderingDP(b *testing.B) {
	benchPlan(b, ablationEngine(b, nil), fiveWayJoin)
}

func BenchmarkAblationOrderingGreedy(b *testing.B) {
	benchPlan(b, ablationEngine(b, func(c *engine.Config) { c.DPThreshold = 1 }), fiveWayJoin)
}

// --- Beam width ablation -----------------------------------------------------------

func benchBeam(b *testing.B, k int) {
	l := lab()
	nl := l.Model("base")
	in := nl.Data.EncodeInput([]string{"hash", "hashjoin", "<T>", "<T>", "<C>", "<TN>"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nl.Model.Beam(in, k, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBeam1(b *testing.B) { benchBeam(b, 1) }
func BenchmarkAblationBeam4(b *testing.B) { benchBeam(b, 4) }
func BenchmarkAblationBeam8(b *testing.B) { benchBeam(b, 8) }

// --- Paraphrase expansion cost -----------------------------------------------------

func BenchmarkAblationParaphraseExpand(b *testing.B) {
	tools := paraphrase.Tools()
	sentence := "perform sequential scan on <T> and filtering on <F> to get the intermediate relation <TN>."
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paraphrase.Expand(sentence, tools)
	}
}
