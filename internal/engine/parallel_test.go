package engine

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lantern/internal/plan"
	"lantern/internal/sqlparser"
)

// parTestConfig forces the DOP policy up so even small test tables run
// parallel: 4 workers (oversubscribing a 1-CPU runner is deliberate) and
// one row per worker-share, which also shrinks morsels to single rows so
// every merge path sees genuinely multi-morsel input.
func parTestConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxQueryParallelism = 4
	cfg.ParallelRowsPerWorker = 1
	return cfg
}

// bigTable creates a 3000-row table straddling many morsels and batches,
// in segments of segCap rows (0 keeps the default capacity).
func bigTable(t *testing.T, e *Engine, segCap int) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE big (id INTEGER, grp INTEGER, val INTEGER)")
	if segCap > 0 {
		tbl, err := e.Cat.Table("big")
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.SetSegmentCapacity(segCap); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	const n = 3000
	for i := 0; i < n; i++ {
		if sb.Len() == 0 {
			sb.WriteString("INSERT INTO big VALUES ")
		} else {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d)", i, i%7, (i*37)%1000)
		if (i+1)%250 == 0 || i == n-1 {
			mustExec(t, e, sb.String())
			sb.Reset()
		}
	}
}

// TestParallelDOPPolicy pins the DOP policy: one worker per
// ParallelRowsPerWorker estimated rows, clamped to MaxQueryParallelism,
// with 0 meaning GOMAXPROCS and negative values disabling parallelism.
func TestParallelDOPPolicy(t *testing.T) {
	e := &Engine{Cfg: DefaultConfig()}
	e.Cfg.MaxQueryParallelism = 4
	e.Cfg.ParallelRowsPerWorker = 1000
	for _, tc := range []struct {
		rows float64
		want int
	}{
		{0, 1}, {500, 1}, {1000, 1}, {1001, 2}, {2500, 3}, {4000, 4}, {1e9, 4},
	} {
		if got := e.dopForRows(tc.rows); got != tc.want {
			t.Errorf("dopForRows(%v) = %d, want %d", tc.rows, got, tc.want)
		}
	}
	e.Cfg.MaxQueryParallelism = -1
	if got := e.dopForRows(1e9); got != 1 {
		t.Errorf("negative MaxQueryParallelism: dopForRows = %d, want 1", got)
	}
	e.Cfg.MaxQueryParallelism = 0
	want := runtime.GOMAXPROCS(0)
	if want < 2 {
		want = 1 // policy floor: a single-proc runner stays serial
	}
	if got := e.dopForRows(1e9); got != want {
		t.Errorf("MaxQueryParallelism=0: dopForRows = %d, want GOMAXPROCS=%d", got, want)
	}
}

// TestParallelPlanAnnotation checks that the planner marks the driver scan
// under a forced-up config and — critically for ExecLimitShortCircuit-style
// workloads — keeps the default config's tiny-table plans serial.
func TestParallelPlanAnnotation(t *testing.T) {
	e := testDB(t, parTestConfig())
	res, err := e.QueryInstrumented("SELECT o_orderkey FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	var driver *Node
	res.Plan.Walk(func(n *Node) {
		if driver == nil && n.DOP >= 2 {
			driver = n
		}
	})
	if driver == nil {
		t.Fatal("forced config: no operator marked parallel")
	}
	if driver.Op != OpSeqScan {
		t.Errorf("parallel driver op = %v, want OpSeqScan", driver.Op)
	}

	// Default policy: 60-row orders is far below rows-per-worker, so the
	// plan must not even consider parallelism beyond marking the decision.
	ser := testDB(t, DefaultConfig())
	sres, err := ser.QueryInstrumented("SELECT o_orderkey FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	sres.Plan.Walk(func(n *Node) {
		if n.DOP >= 2 {
			t.Errorf("default config: operator %v marked DOP=%d on a 60-row table", n.Op, n.DOP)
		}
	})
}

// TestParallelGatherOrderMatchesSerial pins the strongest form of the
// differential guarantee: because gather emits morsel outputs in morsel
// order, a parallel run is row-for-row identical to the serial run even
// WITHOUT an ORDER BY.
func TestParallelGatherOrderMatchesSerial(t *testing.T) {
	par := testDB(t, parTestConfig())
	bigTable(t, par, 0)
	ser := par.Session()
	ser.Cfg.MaxQueryParallelism = -1
	queries := []string{
		"SELECT id FROM big",
		"SELECT id, val FROM big WHERE val < 500",
		"SELECT id FROM big LIMIT 100 OFFSET 2000",
		"SELECT b.id, c.c_name FROM big b, customer c WHERE b.grp = c.c_custkey",
		// orders repeats o_custkey, so duplicate matches come out in the
		// shared build's bucket-insertion order.
		"SELECT b.id, o.o_orderkey FROM big b, orders o WHERE b.grp = o.o_custkey",
		"SELECT DISTINCT grp FROM big",
		"SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val) FROM big GROUP BY grp",
		"SELECT id FROM big ORDER BY val, id LIMIT 50",
		"SELECT val FROM big ORDER BY val DESC",
	}
	for _, q := range queries {
		pres := mustExec(t, par, q)
		sres := mustExec(t, ser, q)
		got, want := rowStrings(pres.Rows), rowStrings(sres.Rows)
		if len(got) != len(want) {
			t.Fatalf("%q: parallel %d rows, serial %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q: row %d differs:\nparallel: %s\nserial:   %s", q, i, got[i], want[i])
			}
		}
	}
}

// TestParallelMinMaxTies: over keyEqualityDB's column, whose equal values
// print apart (0.0 and -0.0, 1e6 and 1000000), a parallel MIN and MAX
// show the first row's value, as the serial fold does, however the
// workers' runs arrive at the exchange's merge. With one-row morsels over
// four workers the arrival order varies from run to run, so the query
// repeats.
func TestParallelMinMaxTies(t *testing.T) {
	par := keyEqualityDB(t, parTestConfig())
	ser := par.Session()
	ser.Cfg.MaxQueryParallelism = -1
	for _, c := range []struct{ sql, want string }{
		{"SELECT MIN(v), MAX(v) FROM kf", "0|1e+06"},
		{"SELECT MIN(DISTINCT v), MAX(DISTINCT v), COUNT(DISTINCT v) FROM kf", "0|1e+06|2"},
		{"SELECT id > 0, MIN(v), MAX(v) FROM kf GROUP BY id > 0", "true|0|1e+06"},
	} {
		plan, err := par.PlanSQL(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if sh := par.activeParShape(plan); sh == nil || sh.kind != parAgg {
			t.Fatalf("%s: want a parallel aggregation merge\n%s", c.sql, ExplainText(plan))
		}
		if got := rowStrings(mustExec(t, ser, c.sql).Rows); !slices.Equal(got, []string{c.want}) {
			t.Fatalf("%s: serial rows %q, want %q", c.sql, got, c.want)
		}
		for run := 0; run < 500; run++ {
			if got := rowStrings(mustExec(t, par, c.sql).Rows); !slices.Equal(got, []string{c.want}) {
				t.Fatalf("%s: parallel run %d rows %q, serial %q", c.sql, run, got, c.want)
			}
		}
	}
}

// TestParallelLimitOverGatherStaysSerial pins the LIMIT rule of
// findParallelShape. A Limit that pulls a gather through streaming
// operators stops once it has its rows, while the workers would go on
// draining morsels until Close, so the scan's actuals would change from
// run to run: such a plan stays serial, and repeated instrumented runs
// give byte-identical canonical plans. A Sort or an aggregate under the
// Limit drains its input either way and keeps its parallel merge.
func TestParallelLimitOverGatherStaysSerial(t *testing.T) {
	e := testDB(t, parTestConfig())
	bigTable(t, e, 256)
	e.Cfg.ParallelRowsPerWorker = 100 // 3000 rows -> 30 morsels, DOP 4
	maxDOP := func(q string) int {
		t.Helper()
		pl, err := e.PlanSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		dop := 0
		pl.Walk(func(n *Node) { dop = max(dop, n.DOP) })
		return dop
	}
	const limitQ = "SELECT id FROM big LIMIT 100 OFFSET 2000"
	for _, q := range []string{limitQ, "SELECT id, val FROM big WHERE val < 500 LIMIT 10"} {
		if dop := maxDOP(q); dop >= 2 {
			t.Errorf("%q plans DOP %d, want serial", q, dop)
		}
	}
	for _, q := range []string{
		"SELECT id FROM big ORDER BY val, id LIMIT 50",
		"SELECT grp, COUNT(*) FROM big GROUP BY grp LIMIT 3",
	} {
		if dop := maxDOP(q); dop < 2 {
			t.Errorf("%q plans DOP %d, want a parallel merge", q, dop)
		}
	}
	var first string
	for i := 0; i < 30; i++ {
		res, err := e.QueryInstrumented(limitQ)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		ToPlanNodeStats(res.Plan, res.Stats).WriteCanonical(&b)
		if i == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("run %d: canonical plan\n%s\ndiffers from run 0's\n%s", i, b.String(), first)
		}
	}
}

// TestParallelInstrumentedWorkerStats checks the per-worker actuals a
// parallel run leaves behind: the driver records the worker count, the
// per-worker row shares sum to the operator total, loops collapse to 1
// for the whole parallel region, and the bridged vendor-neutral tree
// carries the workers attribute RULE-LANTERN narrates.
func TestParallelInstrumentedWorkerStats(t *testing.T) {
	e := testDB(t, parTestConfig())
	bigTable(t, e, 0)
	e.Cfg.ParallelRowsPerWorker = 100 // 3000 rows -> 30 morsels, DOP 4
	res, err := e.QueryInstrumented("SELECT grp, COUNT(*) FROM big GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	var driver *Node
	res.Plan.Walk(func(n *Node) {
		if driver == nil && n.DOP >= 2 {
			driver = n
		}
	})
	if driver == nil {
		t.Fatal("no parallel driver in plan")
	}
	os := res.Stats[driver]
	if os == nil {
		t.Fatal("driver has no stats")
	}
	if os.Workers != 4 {
		t.Errorf("driver Workers = %d, want 4", os.Workers)
	}
	if len(os.PerWorker) != 4 {
		t.Fatalf("PerWorker len = %d, want 4", len(os.PerWorker))
	}
	var sum int64
	for _, w := range os.PerWorker {
		sum += w.Rows
	}
	if sum != os.Rows {
		t.Errorf("per-worker rows sum %d != driver rows %d", sum, os.Rows)
	}
	if os.Rows != 3000 {
		t.Errorf("driver rows = %d, want 3000", os.Rows)
	}
	bridged := ToPlanNodeStats(res.Plan, res.Stats)
	found := false
	bridged.Walk(func(n *plan.Node) {
		if loops := n.Attr(plan.AttrLoops); loops != "1" {
			t.Errorf("op %s: loops = %q, want 1 in a parallel region", n.Name, loops)
		}
		if n.Attr(plan.AttrWorkers) == "4" {
			found = true
		}
	})
	if !found {
		t.Error("bridged plan has no workers=4 attribute")
	}
}

// TestParallelWantedWorkersMisEstimate pins the narration feedback loop:
// an estimator-opaque predicate makes the planner underestimate the scan
// (defaultSel = 1/3), the DOP policy therefore stays serial, and
// instrumentation re-applies the policy to the actual row count and
// surfaces the DOP the engine should have used.
func TestParallelWantedWorkersMisEstimate(t *testing.T) {
	e := testDB(t, parTestConfig())
	bigTable(t, e, 0)
	// 3000 rows, est 1000 after the opaque filter: est DOP = ceil(1000/1500)
	// = 1 (serial), actual DOP would be ceil(3000/1500) = 2.
	e.Cfg.ParallelRowsPerWorker = 1500
	res, err := e.QueryInstrumented("SELECT id FROM big WHERE val + 0 >= 0")
	if err != nil {
		t.Fatal(err)
	}
	var driver *Node
	res.Plan.Walk(func(n *Node) {
		if driver == nil && n.DOP >= 1 {
			driver = n
		}
	})
	if driver == nil {
		t.Fatal("no operator was considered for parallelism")
	}
	if driver.DOP != 1 {
		t.Fatalf("driver DOP = %d, want 1 (under-estimated plan must stay serial)", driver.DOP)
	}
	os := res.Stats[driver]
	if os == nil {
		t.Fatal("driver has no stats")
	}
	if os.Workers != 1 {
		t.Errorf("Workers = %d, want 1", os.Workers)
	}
	if os.WantedWorkers != 2 {
		t.Errorf("WantedWorkers = %d, want 2", os.WantedWorkers)
	}
	bridged := ToPlanNodeStats(res.Plan, res.Stats)
	var wanted, workers string
	bridged.Walk(func(n *plan.Node) {
		if v := n.Attr(plan.AttrWorkersWanted); v != "" {
			wanted = v
		}
		if v := n.Attr(plan.AttrWorkers); v != "" {
			workers = v
		}
	})
	if wanted != "2" {
		t.Errorf("bridged workerswanted = %q, want \"2\"", wanted)
	}
	if workers != "" {
		t.Errorf("bridged workers = %q, want unset on a serial run", workers)
	}
}

// TestParallelStreamCloseDrainsWorkers proves the cancellation path: a
// client that abandons a parallel stream mid-way must leave no worker
// goroutines behind, and NextBatch after Close must report the abandonment
// rather than a clean end of stream.
func TestParallelStreamCloseDrainsWorkers(t *testing.T) {
	e := testDB(t, parTestConfig())
	bigTable(t, e, 0)
	e.Cfg.ParallelRowsPerWorker = 100

	before := runtime.NumGoroutine()
	q, err := e.QueryStreamInstrumented("SELECT id, val FROM big WHERE val >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if b, err := q.NextBatch(); err != nil || b == nil {
		t.Fatalf("first batch: %d rows, err=%v", len(b), err)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := q.NextBatch(); err != ErrAbandonedStream {
		t.Errorf("NextBatch after Close: err = %v, want ErrAbandonedStream", err)
	}
	if q.Complete() {
		t.Error("abandoned stream reports Complete")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked: %d running, %d before the stream", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}

	// Clean drain: every worker exits, actuals are complete, and the
	// driver's worker count lands in the stream's Finish stats.
	q, err = e.QueryStreamInstrumented("SELECT id FROM big")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		b, err := q.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		n += len(b)
	}
	if n != 3000 {
		t.Fatalf("drained %d rows, want 3000", n)
	}
	if !q.Complete() {
		t.Fatal("drained stream not Complete")
	}
	pl, st := q.Finish()
	var workers int64
	pl.Walk(func(nd *Node) {
		if os := st[nd]; os != nil && os.Workers > workers {
			workers = os.Workers
		}
	})
	if workers != 4 {
		t.Errorf("Finish stats workers = %d, want 4", workers)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked after clean drain: %d running, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelConcurrentQueriesStress runs inter-query concurrency over
// intra-query parallelism: many sessions over one shared catalog, each
// running forced-parallel queries whose results are pinned against a
// serial run up front. Under -race this exercises the shared hash-build,
// dispenser, and exchange paths for unsynchronized access.
func TestParallelConcurrentQueriesStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	base := testDB(t, parTestConfig())
	bigTable(t, base, 0)
	queries := []string{
		"SELECT grp, COUNT(*), SUM(val) FROM big GROUP BY grp",
		"SELECT id FROM big WHERE val < 250",
		"SELECT b.id, c.c_name FROM big b, customer c WHERE b.grp = c.c_custkey AND b.val < 100",
		"SELECT id FROM big ORDER BY val, id LIMIT 40",
		"SELECT COUNT(*) FROM big",
		"SELECT DISTINCT grp FROM big ORDER BY grp",
	}
	ser := base.Session()
	ser.Cfg.MaxQueryParallelism = -1
	want := make([][]string, len(queries))
	for i, q := range queries {
		want[i] = rowStrings(mustExec(t, ser, q).Rows)
	}

	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := base.Session()
			sess.Cfg.ParallelRowsPerWorker = 50 + g*37 // vary morsel geometry per session
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(queries)
				res, err := sess.Exec(queries[qi])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				got := rowStrings(res.Rows)
				if len(got) != len(want[qi]) {
					t.Errorf("goroutine %d %q: %d rows, want %d", g, queries[qi], len(got), len(want[qi]))
					return
				}
				for j := range got {
					if got[j] != want[qi][j] {
						t.Errorf("goroutine %d %q: row %d = %s, want %s", g, queries[qi], j, got[j], want[qi][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAdaptiveFirstBatch pins the PR 7 tradeoff fix: the vectorized scan's
// first batch is 64 rows (so a tiny LIMIT never pays a full 1024-row
// batch), growing 4x per batch up to the full batch size.
func TestAdaptiveFirstBatch(t *testing.T) {
	e := testDB(t, DefaultConfig())
	bigTable(t, e, 0)
	sel, err := sqlparser.ParseSelect("SELECT id FROM big")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := e.planSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	wantSizes := []int{64, 256, 1024, 1024, 632}
	total := 0
	for i, want := range wantSizes {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			t.Fatalf("batch %d: unexpected end of stream after %d rows", i, total)
		}
		if len(b) != want {
			t.Fatalf("batch %d: %d rows, want %d", i, len(b), want)
		}
		total += len(b)
	}
	if b, err := it.NextBatch(); err != nil || b != nil {
		t.Fatalf("after %d rows: batch=%v err=%v, want end of stream", total, b, err)
	}
}
