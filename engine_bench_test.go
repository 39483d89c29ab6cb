package lantern

// Engine micro-benchmarks for the executor, recorded to BENCH_engine.json
// by `make bench`. The default path is the batch-at-a-time vectorized
// pipeline, run through Exec; twins pin the variants: *Instrumented runs
// the same engine and query through QueryInstrumented — the path every
// /v2/query takes — so the gap against the default is what per-operator
// actuals cost, and *Reference (Config.ReferenceExec) is full
// materialization, where ExecLimitShortCircuit vs ExecLimitFullMaterialize
// remains the headline: LIMIT 10 over a scan stops after the scan's first
// small chunk instead of reading the whole table.
//
//	go test -bench 'BenchmarkExec' -benchmem .
import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"lantern/internal/catalog"
	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/pager"
)

func execBenchEngine(b *testing.B, reference bool, mutate func(*engine.Config)) *engine.Engine {
	b.Helper()
	return execBenchEngineScale(b, 0.05, reference, mutate)
}

func execBenchEngineScale(b *testing.B, scale float64, reference bool, mutate func(*engine.Config)) *engine.Engine {
	b.Helper()
	cfg := engine.DefaultConfig()
	cfg.ReferenceExec = reference
	if mutate != nil {
		mutate(&cfg)
	}
	e := engine.New(cfg)
	if err := datasets.LoadTPCH(e, scale, 1); err != nil {
		b.Fatal(err)
	}
	return e
}

const (
	execJoinHashQuery = `SELECT c.c_name, o.o_totalprice FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000`
	execJoinNLQuery = `SELECT c.c_name, o.o_totalprice FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000`
	execTopKQuery              = `SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10`
	execLimitShortCircuitQuery = `SELECT l_orderkey FROM lineitem WHERE l_quantity > 10 LIMIT 10`
	execStreamScanQuery        = `SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity > 25`
)

// benchQueryInstrumented is benchQuery through QueryInstrumented: parse,
// plan, execute with per-operator actuals, and project.
func benchQueryInstrumented(b *testing.B, e *engine.Engine, q string) {
	b.Helper()
	if _, err := e.QueryInstrumented(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.QueryInstrumented(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Joins -------------------------------------------------------------------

func BenchmarkExecJoinHash(b *testing.B) {
	benchQuery(b, execBenchEngine(b, false, func(c *engine.Config) {
		c.EnableMergeJoin, c.EnableNestLoop = false, false
	}), execJoinHashQuery)
}

func BenchmarkExecJoinHashInstrumented(b *testing.B) {
	benchQueryInstrumented(b, execBenchEngine(b, false, func(c *engine.Config) {
		c.EnableMergeJoin, c.EnableNestLoop = false, false
	}), execJoinHashQuery)
}

func BenchmarkExecJoinHashReference(b *testing.B) {
	benchQuery(b, execBenchEngine(b, true, func(c *engine.Config) {
		c.EnableMergeJoin, c.EnableNestLoop = false, false
	}), execJoinHashQuery)
}

func BenchmarkExecJoinNL(b *testing.B) {
	benchQuery(b, execBenchEngine(b, false, func(c *engine.Config) {
		c.EnableHashJoin, c.EnableMergeJoin = false, false
	}), execJoinNLQuery)
}

func BenchmarkExecJoinNLReference(b *testing.B) {
	benchQuery(b, execBenchEngine(b, true, func(c *engine.Config) {
		c.EnableHashJoin, c.EnableMergeJoin = false, false
	}), execJoinNLQuery)
}

func BenchmarkExecJoinMerge(b *testing.B) {
	benchQuery(b, execBenchEngine(b, false, func(c *engine.Config) {
		c.EnableHashJoin, c.EnableNestLoop = false, false
	}), execJoinHashQuery)
}

// --- Top-K sort --------------------------------------------------------------

func BenchmarkExecTopK(b *testing.B) {
	benchQuery(b, execBenchEngine(b, false, nil), execTopKQuery)
}

func BenchmarkExecTopKFullSort(b *testing.B) {
	benchQuery(b, execBenchEngine(b, true, nil), execTopKQuery)
}

// --- Limit short-circuit -----------------------------------------------------

func BenchmarkExecLimitShortCircuit(b *testing.B) {
	benchQuery(b, execBenchEngine(b, false, nil), execLimitShortCircuitQuery)
}

func BenchmarkExecLimitFullMaterialize(b *testing.B) {
	benchQuery(b, execBenchEngine(b, true, nil), execLimitShortCircuitQuery)
}

// --- Morsel-driven parallelism -----------------------------------------------
//
// The parallel benchmarks run at a larger TPC-H scale (0.5: lineitem 18,700
// rows, orders 7,500) so each morsel carries real work, and use
// aggregation-shaped queries so the timing measures the scan/join, not
// result materialization. ExecParallelJoinHash drives the orders scan and
// builds on the 750-row customer.
// The *Serial twins run the identical query on the identical data with
// parallelism disabled — the pairwise ratio is the speedup. Run with
// `-cpu 1,4` to see both the serial-parity and the scaled numbers; on a
// machine with fewer physical cores than the -cpu value the parallel
// variant is oversubscribed and the ratio reads as scheduling overhead
// rather than speedup.

const (
	execParallelScanQuery = `SELECT MAX(l_extendedprice), COUNT(*) FROM lineitem WHERE l_quantity > 10`
	execParallelJoinQuery = `SELECT COUNT(*), SUM(o.o_totalprice) FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000`
)

func benchParallelConfig(c *engine.Config) {
	c.MaxQueryParallelism = 4
	c.ParallelRowsPerWorker = 4096
}

func benchSerialConfig(c *engine.Config) {
	c.MaxQueryParallelism = -1
}

func BenchmarkExecParallelScan(b *testing.B) {
	benchQuery(b, execBenchEngineScale(b, 0.5, false, benchParallelConfig), execParallelScanQuery)
}

func BenchmarkExecParallelScanSerial(b *testing.B) {
	benchQuery(b, execBenchEngineScale(b, 0.5, false, benchSerialConfig), execParallelScanQuery)
}

func BenchmarkExecParallelJoinHash(b *testing.B) {
	benchQuery(b, execBenchEngineScale(b, 0.5, false, func(c *engine.Config) {
		c.EnableMergeJoin, c.EnableNestLoop = false, false
		benchParallelConfig(c)
	}), execParallelJoinQuery)
}

func BenchmarkExecParallelJoinHashSerial(b *testing.B) {
	benchQuery(b, execBenchEngineScale(b, 0.5, false, func(c *engine.Config) {
		c.EnableMergeJoin, c.EnableNestLoop = false, false
		benchSerialConfig(c)
	}), execParallelJoinQuery)
}

// --- Streaming scan ----------------------------------------------------------

func BenchmarkExecStreamScan(b *testing.B) {
	benchQuery(b, execBenchEngine(b, false, nil), execStreamScanQuery)
}

func BenchmarkExecStreamScanInstrumented(b *testing.B) {
	benchQueryInstrumented(b, execBenchEngine(b, false, nil), execStreamScanQuery)
}

func BenchmarkExecStreamScanReference(b *testing.B) {
	benchQuery(b, execBenchEngine(b, true, nil), execStreamScanQuery)
}

// --- Zone-map pruning --------------------------------------------------------
//
// The pruning benchmarks run at TPC-H scale 2 (lineitem ≈ 75k rows, ~18
// sealed 4096-row segments plus a tail) with index scans disabled so the
// planner cannot sidestep the sequential scan under test. lineitem is
// generated in l_orderkey order, so a low orderkey bound is CLUSTERED: the
// zone maps of every later segment refute it and the scan skips them
// wholesale. The *Selective twin filters on l_quantity at a similar output
// cardinality — but quantities are scattered uniformly, every segment's
// zone map spans the predicate, and the scan must read every row: the gap
// between the two is what pruning buys on clustered predicates, and the
// *NoPrune ablation (same clustered query, DisableZonePruning) isolates
// the zone-check mechanism from the typed-loop speedup it rides on. The
// *Between twin writes the clustered bound as BETWEEN.

const (
	execPrunedScanQuery        = `SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_orderkey < 500`
	execPrunedBetweenScanQuery = `SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 1 AND 499`
	execSelectiveScanQuery     = `SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 4.2`
	execInListScanQuery        = `SELECT COUNT(*) FROM lineitem WHERE l_shipmode IN ('MAIL', 'SHIP')`
)

func benchNoIndexConfig(c *engine.Config) {
	c.EnableIndexScan = false
}

func BenchmarkExecScanZoneMapPruned(b *testing.B) {
	benchQuery(b, execBenchEngineScale(b, 2, false, benchNoIndexConfig), execPrunedScanQuery)
}

func BenchmarkExecScanZoneMapPrunedNoPrune(b *testing.B) {
	benchQuery(b, execBenchEngineScale(b, 2, false, func(c *engine.Config) {
		benchNoIndexConfig(c)
		c.DisableZonePruning = true
	}), execPrunedScanQuery)
}

func BenchmarkExecScanSelectiveFilter(b *testing.B) {
	benchQuery(b, execBenchEngineScale(b, 2, false, benchNoIndexConfig), execSelectiveScanQuery)
}

// BenchmarkExecScanZoneMapPrunedBetween is the clustered pruned scan
// written as BETWEEN, which compiles to the same >= AND <= comparisons
// and so prunes the same segments.
func BenchmarkExecScanZoneMapPrunedBetween(b *testing.B) {
	benchQuery(b, execBenchEngineScale(b, 2, false, benchNoIndexConfig), execPrunedBetweenScanQuery)
}

// BenchmarkExecScanInList filters every lineitem row through a string IN
// list, the typed loop probing a literal set built at compile time.
func BenchmarkExecScanInList(b *testing.B) {
	benchQuery(b, execBenchEngineScale(b, 2, false, benchNoIndexConfig), execInListScanQuery)
}

// --- Aggregation over filtered scans -----------------------------------------
//
// The aggregation benchmarks run the TPC-H Q1 and Q6 shapes serially at
// scale 2 (lineitem ≈ 75k rows in ~18 sealed segments plus a tail): an
// aggregate directly over a filtered scan, which narrows each chunk through
// a selection vector and folds its arguments from the segments' typed
// column vectors. Grouped is Q1 (two string group keys, sums and averages
// of FLOAT columns and of arithmetic over them); FilteredSum is Q6 (five
// conjuncts, the BETWEEN counting as two, and one SUM of a product).

const (
	execAggGroupedQuery = `SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice),
		SUM(l_extendedprice * (1 - l_discount)), SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
		AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*)
		FROM lineitem WHERE l_shipdate <= '1998-09-02'
		GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`
	execAggFilteredSumQuery = `SELECT SUM(l_extendedprice * l_discount) FROM lineitem
		WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
		AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`
)

func BenchmarkExecAggregateGrouped(b *testing.B) {
	benchQuery(b, execBenchEngineScale(b, 2, false, benchSerialConfig), execAggGroupedQuery)
}

func BenchmarkExecAggregateFilteredSum(b *testing.B) {
	benchQuery(b, execBenchEngineScale(b, 2, false, benchSerialConfig), execAggFilteredSumQuery)
}

// --- Duplicate removal and IN sets -------------------------------------------
//
// The hashing operators besides the join and GROUP BY, serially at scale 2
// (lineitem ≈ 75k rows, orders 30k, customer 3k): SELECT DISTINCT over
// lineitem (Sort, then Unique keeping each of about 1,400 keys once),
// DISTINCT aggregates folding two columns of every lineitem row into
// per-group value sets, and the bank's Q22 (an IN set built from every
// orders row and probed by each customer, under NOT) with Q20's IN beside
// it in one WHERE.

const (
	execDistinctQuery      = `SELECT DISTINCT l_suppkey, l_shipmode FROM lineitem`
	execCountDistinctQuery = `SELECT l_returnflag, l_linestatus, COUNT(DISTINCT l_suppkey), COUNT(DISTINCT l_partkey)
		FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`
	execInSubqueryQuery = `SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM customer
		WHERE c_acctbal > 0 AND c_custkey NOT IN (SELECT o_custkey FROM orders)
		AND c_nationkey IN (SELECT s_nationkey FROM supplier WHERE s_acctbal > 5000)
		GROUP BY c_nationkey ORDER BY c_nationkey`
)

func BenchmarkExecDistinct(b *testing.B) {
	benchQuery(b, execBenchEngineScale(b, 2, false, benchSerialConfig), execDistinctQuery)
}

func BenchmarkExecCountDistinct(b *testing.B) {
	benchQuery(b, execBenchEngineScale(b, 2, false, benchSerialConfig), execCountDistinctQuery)
}

func BenchmarkExecInSubquery(b *testing.B) {
	benchQuery(b, execBenchEngineScale(b, 2, false, benchSerialConfig), execInSubqueryQuery)
}

// --- Disk-backed scans through the buffer pool -------------------------------
//
// The disk benchmarks run against one shared TPC-H directory at the
// official scale-factor proportions (SF 1 by default — orders alone is
// ~1.5M rows across ~370 spilled segments, well past the constrained
// budgets below — override with LANTERN_BENCH_SF for quick local runs),
// seeded once per process and reopened per benchmark under the
// buffer-pool budget under test. The subset query bounds a CLUSTERED key,
// so zone maps prune every segment past the bound without I/O and the
// pool only ever sees the surviving prefix: Cold re-faults that prefix
// every access (1-byte budget — each unpin evicts), Warm holds it
// resident after benchQuery's warmup (the gap against Cold is the decode
// cost the pool absorbs), and Thrash scans the full table through a
// budget far below its size, the worst case where every iteration evicts
// what the last one faulted.

const (
	diskColdPoolBytes   = 1         // every unpin evicts: each access re-faults
	diskWarmPoolBytes   = 256 << 20 // the scanned subset stays resident
	diskThrashPoolBytes = 8 << 20   // far below the table: constant eviction

	diskSubsetScanQuery = `SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_orderkey <= 60000`
	diskFullScanQuery   = `SELECT COUNT(*), SUM(o_totalprice) FROM orders`
)

var (
	diskBenchOnce sync.Once
	diskBenchDir  string
	diskBenchErr  error
)

// TestMain removes the shared disk-backed benchmark directory — at SF 1
// it is ~1 GiB of segment files, too big to leave to the OS tmp reaper.
func TestMain(m *testing.M) {
	code := m.Run()
	if diskBenchDir != "" {
		os.RemoveAll(diskBenchDir)
	}
	os.Exit(code)
}

func diskBenchSF() float64 {
	if s := os.Getenv("LANTERN_BENCH_SF"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 1
}

// diskBenchEngine opens the shared disk-backed TPC-H directory under the
// given buffer-pool budget. The seed load runs once per process, without
// secondary indexes: index entries rebuild at every reopen (only their
// DDL is durable), which would stream the whole dataset through the pool
// before the measured scan — and the scan benchmarks disable index scans
// anyway. The benchconfig line rides the bench output into benchjson, so
// BENCH_engine.json records the scale and budgets the numbers came from.
func diskBenchEngine(b *testing.B, poolBytes int64) *engine.Engine {
	b.Helper()
	diskBenchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "lantern-bench-tpch-")
		if err != nil {
			diskBenchErr = err
			return
		}
		cat, err := catalog.Open(dir, pager.Config{})
		if err != nil {
			diskBenchErr = err
			return
		}
		e := engine.NewWithCatalog(engine.DefaultConfig(), cat)
		if err := datasets.LoadTPCHSFNoIndex(e, diskBenchSF(), 1); err != nil {
			diskBenchErr = err
			return
		}
		diskBenchDir = dir
		fmt.Printf("benchconfig: tpch_sf=%g pool_cold_bytes=%d pool_warm_bytes=%d pool_thrash_bytes=%d\n",
			diskBenchSF(), diskColdPoolBytes, diskWarmPoolBytes, diskThrashPoolBytes)
	})
	if diskBenchErr != nil {
		b.Fatal(diskBenchErr)
	}
	cat, err := catalog.Open(diskBenchDir, pager.Config{BufferPoolBytes: poolBytes})
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.EnableIndexScan = false
	return engine.NewWithCatalog(cfg, cat)
}

func BenchmarkExecScanCold(b *testing.B) {
	benchQuery(b, diskBenchEngine(b, diskColdPoolBytes), diskSubsetScanQuery)
}

func BenchmarkExecScanWarm(b *testing.B) {
	benchQuery(b, diskBenchEngine(b, diskWarmPoolBytes), diskSubsetScanQuery)
}

func BenchmarkExecBufferPoolThrash(b *testing.B) {
	benchQuery(b, diskBenchEngine(b, diskThrashPoolBytes), diskFullScanQuery)
}
