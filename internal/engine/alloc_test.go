//go:build !race

package engine

// Allocation regression guards for the batch executor's hot paths. These
// caps are the point of the pre-bound expression layer and the batch
// memory contract: filter evaluation, the hash-join probe loop and the
// top-K heap must not allocate per row. Kept out of -race builds because
// the race runtime inflates allocation counts; CI runs this package
// without -race as well.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// --- Batch-pipeline guards ---------------------------------------------------
//
// The vectorized executor's promise is per-BATCH costs, not per-row ones:
// a filtered scan reuses its selection vector and survivor buffer (zero
// allocations per batch), the hash-join probe pays exactly one
// output-arena allocation per batch, and a top-K query allocates a fixed
// setup regardless of input size. The guards below pin those, so a
// regression back to per-row allocation shows up as a thousandfold
// violation, not a few percent.

const vecAllocRows = 20_000

// vecAllocDB builds tables large enough that the batch pipeline runs many
// full batchSize batches: g (200 rows) and t (vecAllocRows rows, t.grp
// joining g.gid with fan-out vecAllocRows/200).
func vecAllocDB(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	mustExec := func(sql string) {
		t.Helper()
		if _, err := e.Exec(sql); err != nil {
			t.Fatalf("exec: %v", err)
		}
	}
	mustExec("CREATE TABLE g (gid INT, gname TEXT)")
	mustExec("CREATE TABLE t (id INT, grp INT, v INT)")
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'g%d')", i, i)
	}
	mustExec("INSERT INTO g VALUES " + sb.String())
	for base := 0; base < vecAllocRows; base += 500 {
		sb.Reset()
		for i := base; i < base+500; i++ {
			if i > base {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d)", i, i%200, (i*37)%1000)
		}
		mustExec("INSERT INTO t VALUES " + sb.String())
	}
	return e
}

// TestVecScanFilterBatchAllocs: a filtered batch scan allocates nothing per
// batch once its buffers exist — the compiled predicate narrows a reused
// selection vector, survivors gather into a reused slice, and unfiltered
// chunks alias the heap. The table's 3,616-row tail is filtered the same
// way as its sealed segments.
func TestVecScanFilterBatchAllocs(t *testing.T) {
	e := vecAllocDB(t, DefaultConfig())
	plan, err := e.PlanSQL("SELECT id, v FROM t WHERE v > 10")
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*seqScanVec); !ok {
		t.Fatalf("vectorized plan root = %T, want *seqScanVec", it)
	}
	defer it.Close()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			if err := it.Open(); err != nil { // rewind: scans reset for free
				t.Fatal(err)
			}
		}
	})
	if avg > 0 {
		t.Fatalf("filtered batch scan allocates %.2f allocs/batch, want 0", avg)
	}
}

// TestVecIndexScanFilterBatchAllocs: an index range scan with a residual
// filter allocates nothing per batch once its fetch buffer and selection
// vector exist. v spreads over every segment, so zone maps cannot prune a
// seq scan and the planner takes the index for v < 250 (5,000 candidates,
// five batches). The scan is rewound by resetting its position, since
// Open's fresh index lookup allocates once per query, not per batch.
func TestVecIndexScanFilterBatchAllocs(t *testing.T) {
	e := vecAllocDB(t, DefaultConfig())
	if _, err := e.Exec("CREATE INDEX t_v ON t (v)"); err != nil {
		t.Fatal(err)
	}
	plan, err := e.PlanSQL("SELECT id, v FROM t WHERE v < 250 AND grp > 10")
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := it.(*indexScanVec)
	if !ok {
		t.Fatalf("vectorized plan root = %T, want *indexScanVec", it)
	}
	defer it.Close()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		b, err := scan.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			scan.pos = 0
		}
	})
	if avg > 0 {
		t.Fatalf("filtered index scan allocates %.2f allocs/batch, want 0", avg)
	}
}

// TestInstrumentationDisabledAllocs: the instrumentation seam must be
// invisible when disabled. The uninstrumented build (buildVec with nil
// stats, what Exec runs) produces no wrapper objects — the root of a scan plan is the scan
// operator itself, not an instrVecIter — and the steady-state batch loop
// stays at 0 allocs per batch. The instrumented build of the same plan
// wraps the root.
func TestInstrumentationDisabledAllocs(t *testing.T) {
	e := vecAllocDB(t, DefaultConfig())
	plan, err := e.PlanSQL("SELECT id FROM t WHERE v > 100")
	if err != nil {
		t.Fatal(err)
	}
	if it, err := e.buildVec(plan, make(ExecStats)); err != nil {
		t.Fatal(err)
	} else if _, wrapped := it.(*instrVecIter); !wrapped {
		t.Fatalf("instrumented build root = %T, want *instrVecIter", it)
	}
	it, err := e.buildVec(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if _, wrapped := it.(*instrVecIter); wrapped {
		t.Fatal("uninstrumented build wrapped the root operator in an instrVecIter")
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg > 0 {
		t.Fatalf("uninstrumented NextBatch allocates %.2f allocs/batch, want 0", avg)
	}
}

// TestVecHashJoinProbeBatchAllocs: the batch probe loop pays one
// output-arena allocation per emitted batch — ~1/1024 of one allocation
// per output row — and nothing per probe row or per bucket candidate.
func TestVecHashJoinProbeBatchAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableMergeJoin, cfg.EnableNestLoop = false, false
	e := vecAllocDB(t, cfg)
	plan, err := e.PlanSQL("SELECT g.gname, t.id FROM g, t WHERE g.gid = t.grp")
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*hashJoinVec); !ok {
		t.Fatalf("vectorized plan root = %T, want *hashJoinVec", it)
	}
	defer it.Close()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	// Every t row matches exactly one g row: vecAllocRows output rows ≈ 19
	// full batches per pass. 15 measured pulls (plus AllocsPerRun's warm-up)
	// stay within one pass, so Open — which rebuilds the hash table — never
	// runs inside the measured region.
	avg := testing.AllocsPerRun(15, func() {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			t.Fatal("join exhausted mid-measurement")
		}
	})
	if avg > 2 {
		t.Fatalf("batch hash-join probe allocates %.2f allocs/batch, want <= 2 (the output arena)", avg)
	}
}

// TestVecHashJoinProbeBatchBytes is the bytes/op guard beside the allocs
// guard above, on two joins. The first output batch after Open starts on
// the scan's 64-row adaptive first chunk, so its arena hint undershoots:
// the full join must still fill each batch from at most two chunks
// holding one batch's worth of rows, never a regrown copy. A join whose
// whole output (300 rows, estimated exactly) fits one batch must not
// reserve a full batch either: its chunks hold under twice its rows. The
// bound scales with the join's output width, which is pinned first: each
// join packs only the two columns the select list reads, not all five of
// g's and t's.
func TestVecHashJoinProbeBatchBytes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableMergeJoin, cfg.EnableNestLoop = false, false
	e := vecAllocDB(t, cfg)
	for _, c := range []struct {
		sql         string
		rows        int // per measured batch
		batches     int // measured per pass
		maxRowsHeld int // arena capacity allowed per batch, in rows
		width       int // output columns
	}{
		{"SELECT g.gname, t.id FROM g, t WHERE g.gid = t.grp", batchSize, 4, batchSize * 11 / 10, 2},
		{"SELECT g.gname, t.id FROM g, t WHERE g.gid = t.grp AND t.id < 300", 300, 1, 2 * 300, 2},
	} {
		plan, err := e.PlanSQL(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		it, err := e.buildVec(plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		hj, ok := it.(*hashJoinVec)
		if !ok {
			t.Fatalf("vectorized plan root = %T, want *hashJoinVec", it)
		}
		if hj.w.width != c.width {
			t.Fatalf("%s: the join packs %d columns per row, want %d", c.sql, hj.w.width, c.width)
		}
		next := func() {
			if b, err := it.NextBatch(); err != nil || len(b) != c.rows {
				t.Fatalf("%s: NextBatch = %d rows, %v; want %d", c.sql, len(b), err, c.rows)
			}
		}
		// Warm up: the first pass allocates the reusable row headers and
		// scan buffers.
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		next()
		maxBytes := uint64(c.maxRowsHeld*hj.w.width) * uint64(unsafe.Sizeof(datum.D{}))
		for pass := 0; pass < 3; pass++ {
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.batches; i++ {
				allocs, bytes := heapAllocated(next)
				if allocs > 2 || bytes > maxBytes {
					t.Fatalf("%s: pass %d batch %d: %d allocs, %d bytes; want <= 2 allocs and <= %d bytes (%d rows)",
						c.sql, pass, i, allocs, bytes, maxBytes, c.maxRowsHeld)
				}
			}
		}
		it.Close()
	}
}

// TestHashJoinBuildAllocs: a hash join's build sizes its key table once
// for the rows it drained, so filling it allocates as often for 4,096 rows
// of one key as for 4,096 distinct keys, not once per distinct key.
func TestHashJoinBuildAllocs(t *testing.T) {
	e := New(DefaultConfig())
	fill := func(table string, key func(i int) int) float64 {
		mustExec(t, e, "CREATE TABLE "+table+" (k INT)")
		var sb strings.Builder
		for i := 0; i < 4096; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d)", key(i))
		}
		mustExec(t, e, "INSERT INTO "+table+" VALUES "+sb.String())
		plan, err := e.PlanSQL("SELECT k FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := e.buildVec(plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer scan.Close()
		var ht hashTable
		return testing.AllocsPerRun(5, func() {
			if err := ht.fill(scan, []int{0}); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := fill("one_key", func(int) int { return 7 })
	distinct := fill("distinct_keys", func(i int) int { return i })
	if distinct != one {
		t.Fatalf("hash build allocates %.0f times over one key and %.0f over 4096 distinct keys, want the same", one, distinct)
	}
}

// heapAllocated reports the heap objects and bytes f allocates, measured
// the way testing.AllocsPerRun counts: on one P, from the runtime's
// cumulative counters.
func heapAllocated(f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestVecTopKQueryAllocs: a whole vectorized top-K query — batch scan into
// the bounded heap, then batch emission — allocates a fixed setup cost, not
// a per-input-row one. The bound is expressed per input row so a regression
// to per-row allocation (keys, closure envs, heap growth) overshoots it by
// orders of magnitude.
func TestVecTopKQueryAllocs(t *testing.T) {
	e := vecAllocDB(t, DefaultConfig())
	plan, err := e.PlanSQL("SELECT id FROM t ORDER BY v LIMIT 16")
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	avg := testing.AllocsPerRun(5, func() {
		if err := it.Open(); err != nil { // Open sorts: the whole push loop runs here
			t.Fatal(err)
		}
		for {
			b, err := it.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
		}
	})
	if perRow := avg / vecAllocRows; perRow > 0.01 {
		t.Fatalf("vectorized top-K allocates %.1f allocs/run (%.4f per input row), want a fixed setup cost", avg, perRow)
	}
}

// TestVecLimitShortCircuitAllocs: a LIMIT-k query over a large scan pays
// zero steady-state allocations per execution. The adaptive first batch
// (the scan starts at initialChunkSize rows and grows toward batchSize)
// keeps the short-circuit path from sizing buffers for a full batch it
// will never fill, and those small buffers are reused across Open — a
// regression that re-allocates the chunk on every execution shows up here
// before it shows up as ExecLimitShortCircuit latency.
func TestVecLimitShortCircuitAllocs(t *testing.T) {
	e := vecAllocDB(t, DefaultConfig())
	plan, err := e.PlanSQL("SELECT id FROM t WHERE v > 10 LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	avg := testing.AllocsPerRun(20, func() {
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			b, err := it.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
		}
	})
	if avg > 0 {
		t.Fatalf("limit short-circuit allocates %.2f allocs/run, want 0 steady-state", avg)
	}
}

// TestVecScanZonePruneAllocs: skipping a refuted segment costs only the
// zone-map comparison — no allocation. The table spans ~40 sealed
// segments, the predicate refutes every one of them, and a full
// Open-to-exhaustion pass must stay at zero steady-state allocations: a
// regression that allocates per skipped segment overshoots the bound
// forty-fold.
func TestVecScanZonePruneAllocs(t *testing.T) {
	e := New(DefaultConfig())
	if _, err := e.Exec("CREATE TABLE pr (id INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Cat.Table("pr")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetSegmentCapacity(256); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for base := 0; base < 10_000; base += 500 {
		sb.Reset()
		sb.WriteString("INSERT INTO pr VALUES ")
		for i := base; i < base+500; i++ {
			if i > base {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i%1000)
		}
		if _, err := e.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := e.PlanSQL("SELECT id FROM pr WHERE v > 1000000")
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := it.(*seqScanVec)
	if !ok {
		t.Fatalf("vectorized plan root = %T, want *seqScanVec", it)
	}
	if !scan.prune {
		t.Fatal("zone pruning disabled on default config")
	}
	defer it.Close()
	avg := testing.AllocsPerRun(50, func() {
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			b, err := it.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b != nil {
				t.Fatalf("prune-everything scan emitted %d rows", len(b))
			}
			break
		}
	})
	if avg > 0 {
		t.Fatalf("pruned scan allocates %.2f allocs/run across ~40 skipped segments, want 0", avg)
	}
}

// TestTopKPushAllocs: once the heap is full, pushing rows — whether they
// displace the current worst or are dropped — allocates nothing.
func TestTopKPushAllocs(t *testing.T) {
	h := newTopKHeap(16, 1, []bool{false})
	key := make([]datum.D, 1)
	rows := make([]storage.Row, 64)
	for i := range rows {
		rows[i] = storage.Row{datum.NewInt(int64(i))}
	}
	for i := 0; i < 16; i++ { // fill
		key[0] = datum.NewInt(int64(1000 + i))
		h.push(rows[i%len(rows)], key)
	}
	n := 0
	avg := testing.AllocsPerRun(500, func() {
		// Alternate displacing (small keys) and dropping (large keys).
		if n%2 == 0 {
			key[0] = datum.NewInt(int64(500 - n))
		} else {
			key[0] = datum.NewInt(int64(1 << 40))
		}
		h.push(rows[n%len(rows)], key)
		n++
	})
	if avg > 0 {
		t.Fatalf("top-K push allocates %.2f allocs/row, want 0", avg)
	}
}

// TestVecUniqueBatchAllocs: Unique evaluates each row's key into a reused
// buffer and looks it up in its key table, so over many duplicate string keys
// `SELECT DISTINCT k` allocates a fixed cost, not one string per input
// row. Doubling the input may add a few allocations for extra batches of
// the sort below it, never one per row.
func TestVecUniqueBatchAllocs(t *testing.T) {
	run := func(rows int) float64 {
		e := New(DefaultConfig())
		if _, err := e.Exec("CREATE TABLE u (k TEXT)"); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for base := 0; base < rows; base += 500 {
			sb.Reset()
			sb.WriteString("INSERT INTO u VALUES ")
			for i := base; i < base+500; i++ {
				if i > base {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "('key%d')", i%10)
			}
			if _, err := e.Exec(sb.String()); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := e.PlanSQL("SELECT DISTINCT k FROM u")
		if err != nil {
			t.Fatal(err)
		}
		it, err := e.buildVec(plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := it.(*uniqueVec); !ok {
			t.Fatalf("vectorized plan root = %T, want *uniqueVec", it)
		}
		defer it.Close()
		return testing.AllocsPerRun(5, func() {
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				b, err := it.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				n += len(b)
			}
			if n != 10 {
				t.Fatalf("DISTINCT returned %d rows, want 10", n)
			}
		})
	}
	small, large := run(4000), run(8000)
	if large-small > 40 {
		t.Fatalf("SELECT DISTINCT allocates %.0f allocs over 4000 rows and %.0f over 8000: it grows with the input", small, large)
	}
}

// TestVecAggregateBatchAllocs: once every group of a HashAggregate exists,
// folding a further input batch allocates nothing — keys load into a
// reused buffer, the key table lookup does not copy it, and the states
// fold in place.
func TestVecAggregateBatchAllocs(t *testing.T) {
	e := vecAllocDB(t, DefaultConfig())
	plan, err := e.PlanSQL("SELECT grp, COUNT(*), SUM(v), AVG(v), MIN(id), MAX(v) FROM t GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Op != OpHashAggregate {
		t.Fatalf("plan root is %s, want HashAggregate", plan.Op.Name())
	}
	it, err := e.buildVec(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := it.(*aggVec)
	if !ok {
		t.Fatalf("vectorized plan root = %T, want *aggVec", it)
	}
	defer it.Close()
	// Collect the input batches, then fold them all once so every group
	// exists before measuring.
	if err := agg.child.Open(); err != nil {
		t.Fatal(err)
	}
	var batches [][]storage.Row
	for {
		b, err := agg.child.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		batches = append(batches, append([]storage.Row(nil), b...))
	}
	agg.acc.reset()
	var seq int64
	add := func(b []storage.Row) {
		if err := agg.acc.addBatch(b, seq, segRows{}); err != nil {
			t.Fatal(err)
		}
		seq += int64(len(b))
	}
	for _, b := range batches {
		add(b)
	}
	if len(agg.acc.groups) != 200 {
		t.Fatalf("%d groups, want 200", len(agg.acc.groups))
	}
	n := 0
	avg := testing.AllocsPerRun(50, func() {
		add(batches[n%len(batches)])
		n++
	})
	if avg > 0 {
		t.Fatalf("aggregating a batch of existing groups allocates %.2f allocs/batch, want 0", avg)
	}
}

// TestVecAggregateFilteredScanAllocs: an aggregate directly over a
// filtered scan narrows each chunk through the selection vector and folds
// its arguments from the segment's column vectors at the scan's batch
// origin. Once every group exists, pulling and folding a batch allocates
// nothing, on segment batches and tail batches alike.
func TestVecAggregateFilteredScanAllocs(t *testing.T) {
	e := vecAllocDB(t, DefaultConfig())
	plan, err := e.PlanSQL("SELECT grp, COUNT(*), SUM(v * 2 + id), AVG(v), MIN(id), MAX(v) FROM t WHERE v > 10 AND id < 19500 GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.buildVec(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := it.(*aggVec)
	if !ok {
		t.Fatalf("vectorized plan root = %T, want *aggVec", it)
	}
	if agg.src == nil {
		t.Fatalf("aggregate input %T reports no batch origin", agg.child)
	}
	defer it.Close()
	var seq int64
	segBatches := 0
	// pull folds the scan's next batch, rewinding the scan at its end.
	pull := func() bool {
		b, err := agg.child.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			if err := agg.child.Open(); err != nil {
				t.Fatal(err)
			}
			return false
		}
		at := agg.src.origin()
		if at.sd != nil {
			segBatches++
		}
		if err := agg.acc.addBatch(b, seq, at); err != nil {
			t.Fatal(err)
		}
		seq += int64(len(b))
		return true
	}
	if err := agg.child.Open(); err != nil {
		t.Fatal(err)
	}
	agg.acc.reset()
	for pull() {
	}
	if len(agg.acc.groups) != 200 || segBatches == 0 {
		t.Fatalf("%d groups from %d segment batches, want 200 groups and segment batches", len(agg.acc.groups), segBatches)
	}
	avg := testing.AllocsPerRun(50, func() { pull() })
	if avg > 0 {
		t.Fatalf("aggregating a filtered scan batch allocates %.2f allocs/batch, want 0", avg)
	}
}

// TestInListNarrowAllocs: an IN list's typed segment loop probes the
// literal set built at compile time, so narrowing a batch's selection
// vector over an integer or a string vector allocates nothing.
func TestInListNarrowAllocs(t *testing.T) {
	e := New(DefaultConfig())
	if _, err := e.Exec("CREATE TABLE il (n INT, s TEXT)"); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Cat.Table("il")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetSegmentCapacity(2048); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for base := 0; base < 4096; base += 512 {
		sb.Reset()
		sb.WriteString("INSERT INTO il VALUES ")
		for i := base; i < base+512; i++ {
			if i > base {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'm%d')", i%50, i%7)
		}
		if _, err := e.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	sd, err := tbl.Snapshot().Segments()[0].Load()
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Release()
	schema := scanSchema(tbl, "il")
	for _, cond := range []string{"n IN (3, 17, 41, 99)", "s IN ('m2', 'm5', 'zz')"} {
		sel, err := sqlparser.ParseSelect("SELECT n FROM il WHERE " + cond)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := compileVecPred(sel.Where, schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		in, ok := pred.(*inColLit)
		if !ok {
			t.Fatalf("%s compiled to %T, want *inColLit", cond, pred)
		}
		buf := make([]int32, batchSize)
		var kept []int32
		lo := 0
		avg := testing.AllocsPerRun(100, func() {
			for j := range buf {
				buf[j] = int32(lo + j)
			}
			if kept, err = in.narrow(sd.Rows(), sd, buf); err != nil {
				t.Fatal(err)
			}
			lo = (lo + batchSize) % 2048
		})
		if avg > 0 {
			t.Fatalf("%s: narrow allocates %.2f allocs/batch, want 0", cond, avg)
		}
		if len(kept) == 0 {
			t.Fatalf("%s selected nothing", cond)
		}
	}
}

// TestConjunctionEstimateAllocs: folding bounds into intervals happens on
// the estimator's stack, and planning a query without range bounds
// allocates an exact count. The counts were measured on the last commit
// without intervals, less the two allocations of the alias map the
// estimator kept before it read the FROM clause's bindings in order.
func TestConjunctionEstimateAllocs(t *testing.T) {
	e := statsEngine(t)
	var conds []sqlparser.Expr
	for _, c := range []string{"id >= 100", "grp = 3", "id <= 349", "100 < val", "id BETWEEN 50 AND 300", "val NOT BETWEEN 1 AND 2"} {
		sel, err := sqlparser.ParseSelect("SELECT * FROM s WHERE " + c)
		if err != nil {
			t.Fatal(err)
		}
		conds = append(conds, sel.Where)
	}
	est := &selectivityEstimator{cat: e.Cat, rels: []relation{{table: "s", alias: "s"}}}
	if avg := testing.AllocsPerRun(100, func() { est.conjunction(conds...) }); avg > 0 {
		t.Fatalf("conjunction estimate allocates %.2f allocs/call, want 0", avg)
	}
	and := sqlparser.JoinConjuncts(conds)
	if avg := testing.AllocsPerRun(100, func() { est.selectivity(and) }); avg > 0 {
		t.Fatalf("AND selectivity allocates %.2f allocs/call, want 0", avg)
	}
	for q, want := range map[string]float64{
		"SELECT * FROM s WHERE grp = 3": 33,
		"SELECT grp, COUNT(*) FROM s WHERE val = 7 AND grp <> 2 GROUP BY grp ORDER BY grp": 80,
	} {
		if got := testing.AllocsPerRun(50, func() {
			if _, err := e.PlanSQL(q); err != nil {
				t.Fatal(err)
			}
		}); got != want {
			t.Errorf("planning %q allocates %v, want %v", q, got, want)
		}
	}
}

// TestJoinOrderingAllocs: exhaustive join ordering costs each candidate
// split from its table of subset plans and builds Nodes only for the
// winning tree, so planning an eight-relation join (3,025 candidate
// splits) allocates what its scans and the final tree need: 125 times.
// Building Nodes, alias maps and schemas per candidate, as join ordering
// once did, allocates about 69,000 times here.
func TestJoinOrderingAllocs(t *testing.T) {
	e := testDB(t, DefaultConfig())
	const q = `SELECT c1.c_name, o2.o_totalprice
		FROM customer c1, orders o1, customer c2, orders o2, publication p, inproceedings i, measures m, orders o3
		WHERE c1.c_custkey = o1.o_custkey AND o1.o_orderkey = c2.c_custkey AND c2.c_custkey = o2.o_custkey
		AND o2.o_orderkey = p.pub_key AND p.pub_key = i.proceeding_key AND i.proceeding_key = m.m_id
		AND m.m_id = o3.o_orderkey AND c1.c_acctbal > 50`
	sel, err := sqlparser.ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	plan := func() {
		if _, err := e.Plan(sel); err != nil {
			t.Fatal(err)
		}
	}
	plan()
	if got := testing.AllocsPerRun(20, plan); got > 200 {
		t.Fatalf("planning an eight-relation join allocates %v, want <= 200", got)
	}
}
