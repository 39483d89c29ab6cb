// Command gen regenerates the cross-dialect golden-corpus *inputs*
// (internal/plan/testdata/<dialect>/<name>.plan) by planning a fixed query
// set on the substrate engine over TPC-H and serializing each plan in
// every dialect the engine can emit:
//
//	go run ./internal/plan/testdata/gen
//
// The golden *expectations* next to the inputs (.tree canonical trees,
// .txt narrations) are regenerated by the corpus runners:
//
//	go test ./internal/plan ./internal/pool ./internal/service -run Corpus -update
//
// Lives under testdata/ so the go tool excludes it from builds and vets;
// it is reachable only by explicit path.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"

	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/plan"
	"lantern/internal/plantest"
)

func main() {
	eng := engine.NewDefault()
	if err := datasets.LoadTPCH(eng, 0.05, 1); err != nil {
		log.Fatalf("gen: loading TPC-H: %v", err)
	}
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		log.Fatal("gen: cannot locate source file")
	}
	root := filepath.Dir(filepath.Dir(file)) // .../internal/plan/testdata

	// The native dialect additionally gets actuals-annotated corpus
	// entries: each query is executed with instrumentation and serialized
	// with its runtime statistics. Wall times are zeroed — they are the one
	// non-deterministic statistic, and corpus inputs must be reproducible;
	// actual rows, loops, and worker counts are deterministic for the fixed
	// seed, scale, and session configuration. Per-worker row splits are
	// scheduling-dependent and deliberately never serialized.
	// The zone-map pruning entry needs a table with sealed columnar
	// segments; at the conformance scale every TPC-H table fits in the
	// row-major tail. A second engine at 10x scale gives lineitem several
	// sealed segments without disturbing the shared corpus inputs.
	engBig := engine.NewDefault()
	if err := datasets.LoadTPCH(engBig, 0.5, 1); err != nil {
		log.Fatalf("gen: loading TPC-H (pruning scale): %v", err)
	}

	actualsEntries := []struct {
		name, sql string
		big       bool
		cfg       func(*engine.Config)
	}{
		{
			"join_group_sort_actuals",
			"SELECT c.c_name, SUM(o.o_totalprice) FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000 GROUP BY c.c_name ORDER BY c.c_name",
			false,
			nil,
		},
		{
			// Morsel-parallel aggregation: 750 orders at 150 rows per worker
			// hits the 4-worker cap, so the scan narrates its worker count.
			"parallel_scan_actuals",
			"SELECT o_orderstatus, COUNT(*) FROM orders GROUP BY o_orderstatus",
			false,
			func(c *engine.Config) { c.MaxQueryParallelism = 4; c.ParallelRowsPerWorker = 150 },
		},
		{
			// DOP mis-estimate: the arithmetic in the filter is opaque to the
			// estimator (defaultSel = 1/3, est 250 rows -> DOP 1) but every
			// order passes (actual 750 -> DOP 2 warranted), so the narration
			// calls out the parallelism the plan left on the table.
			"parallel_misestimate_actuals",
			"SELECT o_orderkey FROM orders WHERE o_totalprice * 1 > 0",
			false,
			func(c *engine.Config) { c.MaxQueryParallelism = 4; c.ParallelRowsPerWorker = 400 },
		},
		{
			// Zone-map pruning: lineitem at the 10x scale spans several sealed
			// segments and is generated in orderkey order, so a low orderkey
			// bound refutes the zone maps of every later segment — the scan
			// narrates how many segments it skipped wholesale.
			// Index scans are disabled so the planner cannot sidestep the
			// sequential scan this entry exists to exercise.
			"pruned_scan_actuals",
			"SELECT COUNT(*) FROM lineitem WHERE l_orderkey < 500",
			true,
			func(c *engine.Config) { c.EnableIndexScan = false },
		},
	}
	for _, ent := range actualsEntries {
		sess := eng.Session()
		if ent.big {
			sess = engBig.Session()
		}
		if ent.cfg != nil {
			ent.cfg(&sess.Cfg)
		}
		qr, err := sess.QueryInstrumented(ent.sql)
		if err != nil {
			log.Fatalf("gen: native/%s: %v", ent.name, err)
		}
		for _, st := range qr.Stats {
			st.Time = 0
			for i := range st.PerWorker {
				st.PerWorker[i].Time = 0
			}
		}
		doc, err := plan.FormatNative(engine.ToPlanNodeStats(qr.Plan, qr.Stats))
		if err != nil {
			log.Fatalf("gen: native/%s: %v", ent.name, err)
		}
		if _, err := plan.ParseNativeJSON(doc); err != nil {
			log.Fatalf("gen: native/%s does not re-parse: %v", ent.name, err)
		}
		dir := filepath.Join(root, "native")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(dir, ent.name+".plan")
		if err := os.WriteFile(path, []byte(doc+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}

	for _, name := range plan.Dialects() {
		d, _ := plan.Lookup(name)
		if d.EngineFormat == "" {
			continue
		}
		dir := filepath.Join(root, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, q := range plantest.CorpusQueries {
			// ExplainAndParse round-trips through the registered parser, so
			// a broken frontend cannot silently land a corpus it cannot read.
			_, doc, err := plan.ExplainAndParse(name, func(format string) (string, error) {
				r, err := eng.Exec(fmt.Sprintf("EXPLAIN (FORMAT %s) %s", format, q.SQL))
				if err != nil {
					return "", err
				}
				return r.Plan, nil
			})
			if err != nil {
				log.Fatalf("gen: %s/%s: %v", name, q.Name, err)
			}
			path := filepath.Join(dir, q.Name+".plan")
			if err := os.WriteFile(path, []byte(doc+"\n"), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", path)
		}
	}
}
