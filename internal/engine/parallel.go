package engine

// parallel.go is the morsel-driven intra-query parallel executor. A plan
// the planner marked parallel (Node.DOP >= 2 on the driver scan) executes
// its driver pipeline on DOP workers: the driver table's heap is split
// into fixed-size morsels handed out by an atomic dispenser, every worker
// runs its own clone of the vecIter pipeline below the exchange point, and
// a single exchange operator merges worker output back into one serial
// batch stream:
//
//   - gather: worker output is emitted in morsel order, which reproduces
//     the serial pipeline's output sequence exactly (each worker pipeline
//     is order-preserving within a morsel and morsels partition the heap
//     sequentially), so Unique above the exchange behaves identically to
//     serial execution. A LIMIT that would pull a gather through
//     streaming operators keeps the plan serial instead (see
//     findParallelShape).
//   - sort merge: each worker sorts (or top-K's) its share tagged with the
//     serial arrival sequence; the exchange merges the runs by (keys, seq),
//     which is precisely the stable full sort of the serial pipeline.
//   - aggregation merge: each worker pre-aggregates its share in the same
//     accumulator the serial aggregate uses (vecagg.go); the exchange
//     merges the workers' groups into one more and emits them ordered by
//     first arrival, matching the serial aggregate's insertion order, then
//     finishes them with the serial finish step. Only provably
//     order-insensitive aggregates are merged this way (COUNT, MIN, MAX,
//     and SUM/AVG over integer columns); float sums would reassociate, so
//     those plans fall back to a serial aggregate over an ordered gather
//     of the input.
//
// Workers run the serial operators. A worker's driver scan is the serial
// seqScanVec, positioned on one morsel at a time. Each hash join on the
// driver spine has one build side, filled once per run before the workers
// start: the exchange drains a serial pipeline over the build subtree
// through the build loop a serial join uses (hashTable.fill), and every
// worker's clone of the join probes that table read-only. Bucket
// insertion order, and with it the order of duplicate matches, is
// therefore the serial join's.
//
// Because every merge reproduces the serial operator's exact output order,
// a parallel run is row-for-row equal to the serial vectorized run; the
// differential suite pins this across the corpus, seeded-random, and
// TPC-H workloads under -race.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

const (
	// morselSize is the number of driver-table heap rows per morsel: small
	// enough that workers load-balance under skewed filters, large enough
	// that the per-morsel pipeline restart is noise.
	morselSize = 4096
	// defaultParallelRowsPerWorker is the planner's DOP policy knob: one
	// worker per this many estimated driver rows. Small inputs therefore
	// stay serial and keep their short-circuit latency.
	defaultParallelRowsPerWorker = 65536
	// seqStride separates the per-morsel output sequence spaces: row i of
	// morsel m carries serial sequence m*seqStride + i, which is the row's
	// position in the serial pipeline's output. 2^40 rows of join fan-out
	// per 4096-row morsel is unreachable.
	seqStride = int64(1) << 40
)

// maxDOP resolves Config.MaxQueryParallelism: 0 defaults to GOMAXPROCS,
// values below 1 disable parallelism.
func (c Config) maxDOP() int {
	switch {
	case c.MaxQueryParallelism == 0:
		return runtime.GOMAXPROCS(0)
	case c.MaxQueryParallelism < 1:
		return 1
	default:
		return c.MaxQueryParallelism
	}
}

func (c Config) parRowsPerWorker() float64 {
	if c.ParallelRowsPerWorker <= 0 {
		return defaultParallelRowsPerWorker
	}
	return float64(c.ParallelRowsPerWorker)
}

// morselRows is the per-morsel driver row count: morselSize, lowered to
// the DOP policy's rows-per-worker granularity when that is configured
// smaller. A config that asks for one worker per N rows should split work
// at least that finely — which is also what lets tests force genuinely
// multi-morsel execution over tables far smaller than morselSize.
func (c Config) morselRows() int {
	m := morselSize
	if p := c.parRowsPerWorker(); p < float64(m) {
		m = int(p)
	}
	if m < 1 {
		m = 1
	}
	return m
}

// dopForRows is the DOP policy: one worker per parRowsPerWorker rows,
// clamped to [1, maxDOP]. It is applied to the planner's estimate at plan
// time and re-applied to the actual row count by instrumentation, which is
// how a cardinality mis-estimate surfaces as a "too few workers" callout
// in the narration.
func (e *Engine) dopForRows(rows float64) int {
	max := e.Cfg.maxDOP()
	if max < 2 {
		return 1
	}
	d := int(math.Ceil(rows / e.Cfg.parRowsPerWorker()))
	if d < 1 {
		d = 1
	}
	if d > max {
		d = max
	}
	return d
}

// parKind is how worker output merges back into one stream.
type parKind int

const (
	parGather parKind = iota // ordered concatenation (serial output order)
	parSort                  // merge per-worker sorted runs / top-K heaps
	parAgg                   // merge per-worker partial aggregate states
)

// parShape describes where the exchange sits in a plan: workers execute
// the subtree rooted at (or, for sort/agg merges, below) exchange, with
// driver — the unique base-table SeqScan on the Children[0] spine — split
// into morsels. Everything above exchange runs serially on the consumer.
type parShape struct {
	exchange *Node
	driver   *Node
	kind     parKind
}

// findParallelShape derives the (deterministic) parallel shape of a plan,
// or nil when the plan has no morsel-drivable scan. It descends from the
// root through operators that must stay serial above the exchange — Limit
// stops pulling once it has its rows, Unique and GroupAggregate consume
// the exchange's serial-order output — and places the exchange at the
// first operator with a native merge strategy.
//
// A gather that a Limit pulls through streaming operators only keeps the
// plan serial: its workers would go on draining morsels after the Limit
// has its rows, until Close stops them, so the work done and the scan's
// actuals would vary from run to run. A Sort or aggregate under the Limit
// drains its whole input either way, so those merges stay parallel, and
// so does a gather under a GroupAggregate or a serial aggregate.
func (e *Engine) findParallelShape(root *Node) *parShape {
	n := root
	limited := false // a Limit above n stops pulling early
descend:
	for {
		switch n.Op {
		case OpLimit:
			limited = true
		case OpUnique: // streams: a Limit above it still stops early
		case OpGroupAggregate: // drains its input
			limited = false
		default:
			break descend
		}
		n = n.Children[0]
	}
	sh := &parShape{exchange: n, kind: parGather}
	switch n.Op {
	case OpSort:
		sh.kind = parSort
	case OpAggregate, OpHashAggregate:
		if e.aggsMergeable(n) {
			sh.kind = parAgg
		} else {
			// Merging partial states would reassociate float addition; keep
			// the aggregate serial over an ordered gather of its input.
			sh.exchange = n.Children[0]
		}
	default:
		if limited {
			return nil
		}
	}
	sub := sh.exchange
	if sh.kind != parGather {
		sub = sh.exchange.Children[0]
	}
	if sh.driver = driverScan(sub); sh.driver == nil {
		return nil
	}
	return sh
}

// driverScan chases the probe-side spine to the base SeqScan the dispenser
// will split, or nil when the spine contains an operator the worker-tree
// builder cannot clone (index scans, merge joins, nested loops).
func driverScan(n *Node) *Node {
	for {
		switch n.Op {
		case OpSeqScan:
			return n
		case OpHashJoin, OpHash, OpMaterialize:
			n = n.Children[0]
		default:
			return nil
		}
	}
}

// aggsMergeable reports whether every aggregate of n can be computed as
// mergeable partial states without changing the result: COUNT/MIN/MAX are
// order- and grouping-insensitive for any type, SUM/AVG only when the
// argument is an integer column (float addition is not associative, and a
// merged partial sum must be bit-identical to the serial left fold).
func (e *Engine) aggsMergeable(n *Node) bool {
	for _, a := range n.Aggs {
		switch a.Call.Name {
		case "COUNT", "MIN", "MAX":
		case "SUM", "AVG":
			ref, ok := a.Call.Args[0].(*sqlparser.ColumnRef)
			if !ok {
				return false
			}
			if e.columnKind(n.Children[0], ref) != datum.KInt {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// columnKind resolves a column reference to its declared storage type by
// finding the scan whose schema binds it (scan schemas list columns in
// table order, so the ordinal maps straight to the catalog column).
func (e *Engine) columnKind(n *Node, ref *sqlparser.ColumnRef) datum.Kind {
	kind := datum.KNull
	n.Walk(func(x *Node) {
		if kind != datum.KNull || (x.Op != OpSeqScan && x.Op != OpIndexScan) {
			return
		}
		for i, c := range x.Schema {
			if c.Name != ref.Name || (ref.Table != "" && ref.Table != c.Qual) {
				continue
			}
			if t, err := e.Cat.Table(x.Relation); err == nil && i < len(t.Columns) {
				kind = t.Columns[i].Type
			}
			return
		}
	})
	return kind
}

// annotateParallel runs at the end of planning: when the engine allows
// parallelism and the plan has a drivable shape, the driver scan is marked
// with the chosen DOP. DOP 1 records "considered, chose serial" (so
// instrumentation can report the DOP a correct estimate would have
// earned); DOP >= 2 makes the executors build the exchange.
func (e *Engine) annotateParallel(root *Node) {
	if e.Cfg.maxDOP() < 2 {
		return
	}
	if sh := e.findParallelShape(root); sh != nil {
		sh.driver.DOP = e.dopForRows(sh.driver.EstRows)
	}
}

// activeParShape re-derives the shape for execution; non-nil only when the
// planner chose DOP >= 2.
func (e *Engine) activeParShape(root *Node) *parShape {
	sh := e.findParallelShape(root)
	if sh == nil || sh.driver.DOP < 2 {
		return nil
	}
	return sh
}

// --- Morsel dispenser -------------------------------------------------------

// morsel is one unit of driver-scan work: a row range inside a sealed
// segment (seg non-nil) or inside the unsealed tail (seg nil). Segments
// are usually one morsel each — segment capacity and morsel size share the
// same default — so zone-map pruning composes with parallel dispatch for
// free: a worker that grabs a refuted segment drops it without touching a
// row. When the configured morsel size is smaller than a segment, the
// segment splits into sub-ranges; only the lo == 0 morsel carries the
// segment's accounting so each segment counts once.
type morsel struct {
	seg    *storage.Segment // nil for a tail chunk
	rows   []storage.Row    // tail rows; nil for a segment morsel (loaded lazily)
	lo, hi int
}

// buildMorsels slices a table snapshot into morsels in table order, so
// index-ordered merges reproduce the serial scan order exactly. Segment
// morsels carry only the segment handle and a row range — never the rows
// themselves — so splitting a disk-backed table into morsels touches no
// payload: a segment is faulted in by the worker that grabs it, and only
// after its zone maps survive pruning.
func buildMorsels(snap storage.Snapshot, size int) []morsel {
	var out []morsel
	add := func(seg *storage.Segment, rows []storage.Row, n int) {
		for lo := 0; lo < n; lo += size {
			hi := lo + size
			if hi > n {
				hi = n
			}
			out = append(out, morsel{seg: seg, rows: rows, lo: lo, hi: hi})
		}
	}
	for _, seg := range snap.Segments() {
		add(seg, nil, seg.NumRows())
	}
	tail := snap.Tail()
	add(nil, tail, len(tail))
	return out
}

// morselDispenser hands out morsels. One atomic add per grab is the whole
// scheduling protocol; workers that finish a cheap morsel (or drop a
// pruned one) simply grab the next, which is what load-balances skewed
// filters.
type morselDispenser struct {
	morsels []morsel
	next    atomic.Int64
}

func newMorselDispenser(morsels []morsel) *morselDispenser {
	return &morselDispenser{morsels: morsels}
}

func (d *morselDispenser) count() int { return len(d.morsels) }

func (d *morselDispenser) grab() (m int, mo morsel, ok bool) {
	i := int(d.next.Add(1)) - 1
	if i >= len(d.morsels) {
		return 0, morsel{}, false
	}
	return i, d.morsels[i], true
}

// --- Vectorized instrumentation wrapper -------------------------------------

// instrVecIter counts rows and inclusive wall time through one vectorized
// operator. The counters are atomic because in a parallel region one
// OpStats instance is shared by every worker's clone of the operator, so
// totals sum across workers. Loops are not counted: per-morsel re-Opens
// are a scheduling detail, not EXPLAIN loops, and every operator reports
// one loop (bridge.go).
type instrVecIter struct {
	child vecIter
	rows  *int64
	nanos *int64
}

func (it *instrVecIter) Open() error {
	start := time.Now()
	err := it.child.Open()
	atomic.AddInt64(it.nanos, int64(time.Since(start)))
	return err
}

func (it *instrVecIter) NextBatch() ([]storage.Row, error) {
	start := time.Now()
	b, err := it.child.NextBatch()
	atomic.AddInt64(it.nanos, int64(time.Since(start)))
	if len(b) > 0 {
		atomic.AddInt64(it.rows, int64(len(b)))
	}
	return b, err
}

func (it *instrVecIter) Close() error { return it.child.Close() }

// origin forwards the wrapped scan's batch origin; the batches of any
// other operator have none.
func (it *instrVecIter) origin() segRows {
	if o, ok := it.child.(batchOrigin); ok {
		return o.origin()
	}
	return segRows{}
}

func newInstrVecIter(it vecIter, os *OpStats) *instrVecIter {
	return &instrVecIter{child: it, rows: &os.Rows, nanos: (*int64)(&os.Time)}
}

func (v *vbuild) instr(n *Node, it vecIter) vecIter {
	if v.stats == nil {
		return it
	}
	return newInstrVecIter(it, v.stats(n))
}

// --- Exchange ---------------------------------------------------------------

// sharedBuild is the build side of one hash join on the driver spine. The
// exchange fills its table once per Open, before the workers start, by
// draining a serial pipeline over the build subtree; every worker's clone
// of the join then probes it read-only.
type sharedBuild struct {
	node *Node   // the OpHashJoin node this build belongs to
	src  vecIter // serial pipeline over node.Children[1]
	ords []int   // build-key ordinals in src's rows
	ht   hashTable
}

// parWorker is one worker's private pipeline clone plus its per-run
// accounting. The pipeline (and its bound expressions, compiled predicates
// and scratch buffers) is never shared across workers — only the morsel
// dispenser, result channel, and prebuilt hash tables are, and those are
// either atomic or read-only while workers run.
type parWorker struct {
	root vecIter
	scan *seqScanVec // the driver scan, positioned per morsel

	sortKeys sortKeyEval // sort merge: per-worker key evaluation
	agg      *aggAcc     // aggregation merge: per-worker accumulator
	aggScan  bool        // the accumulator's input is the driver scan itself

	rows  int64 // rows this worker's subtree emitted
	nanos int64 // busy wall time
}

// morselOut is one drained morsel's output (gather), or a worker's whole
// run (sort/agg merges, m < 0). Row headers are always freshly appended by
// the worker, never a reused pipeline buffer.
type morselOut struct {
	m    int
	rows []storage.Row
	run  *workerRun
	err  error
}

// workerRun is a sort or aggregation worker's accumulated output.
type workerRun struct {
	// Sort: rows sorted by (keys, seq); keys is row-major nKeys per row.
	rows []storage.Row
	keys []datum.D
	seqs []int64
	// Agg: partial groups in worker-local first-arrival order.
	groups []aggGroup
}

// exchangeVec is the one merge point of a parallel plan. Open prepares
// shared hash builds and spawns the workers; NextBatch merges their output
// back into the serial batch stream per the shape's kind; Close cancels
// and waits for every worker before returning, so no goroutine outlives
// the iterator.
type exchangeVec struct {
	e  *Engine
	n  *Node
	sh *parShape
	v  *vbuild // stats hook shared with the serial region

	dop     int
	workers []*parWorker
	builds  []*sharedBuild // driver-spine hash builds, filled at Open

	sortDesc []bool
	topK     int64

	agg *aggAcc // aggregation merge: merges the workers' groups

	// Run state.
	disp    *morselDispenser
	cancel  chan struct{}
	results chan morselOut
	wg      sync.WaitGroup
	running bool
	err     error

	// Gather merge state.
	pending map[int][]storage.Row
	nextM   int
	cur     rowsOut

	// Sort/agg merges materialize like their serial counterparts.
	out rowsOut
}

func (v *vbuild) newExchangeVec(n *Node) (*exchangeVec, error) {
	sh := v.par
	x := &exchangeVec{e: v.e, n: n, sh: sh, v: v, dop: sh.driver.DOP, topK: n.SortLimit}
	if sh.kind == parAgg {
		var err error
		if x.agg, err = v.newAggAcc(n); err != nil {
			return nil, err
		}
	}
	workRoot := workerRootNode(sh, n)
	for i := 0; i < x.dop; i++ {
		w := &parWorker{}
		root, err := x.buildWorkerTree(v, workRoot, w)
		if err != nil {
			return nil, err
		}
		w.root = root
		if err := x.bindWorkerMerge(v, n, w); err != nil {
			return nil, err
		}
		x.workers = append(x.workers, w)
	}
	return x, nil
}

// workerRootNode is the subtree workers execute: the exchange node itself
// for gather, its input for sort/agg merges (the exchange replaces the
// serial operator).
func workerRootNode(sh *parShape, n *Node) *Node {
	if sh.kind == parGather {
		return n
	}
	return n.Children[0]
}

// buildWorkerTree clones the driver-spine pipeline for one worker: a
// worker's seqScanVec at the driver, probe shells over shared builds at
// hash joins. Expressions re-bind per worker so closure-internal state
// (cached subquery results, scratch buffers) is never shared.
func (x *exchangeVec) buildWorkerTree(v *vbuild, n *Node, w *parWorker) (vecIter, error) {
	var it vecIter
	switch {
	case n == x.sh.driver:
		scan, err := v.newSeqScanVec(n, true)
		if err != nil {
			return nil, err
		}
		w.scan = scan
		it = scan
	case n.Op == OpHash || n.Op == OpMaterialize:
		return x.buildWorkerTree(v, n.Children[0], w)
	case n.Op == OpHashJoin:
		probe, err := x.buildWorkerTree(v, n.Children[0], w)
		if err != nil {
			return nil, err
		}
		shell, err := v.hashJoinShell(n)
		if err != nil {
			return nil, err
		}
		shell.probe = probe
		if shell.ht, err = x.sharedTable(v, n, shell.buildKeyOrds); err != nil {
			return nil, err
		}
		it = shell
	default:
		return nil, fmt.Errorf("engine: operator %s on parallel driver spine", n.Op.Name())
	}
	// The worker-tree root is only instrumented when it is not the exchange
	// node itself: the top-level wrapper around exchangeVec already counts
	// the merged output for that node, and worker-side counts would double.
	if n != x.n {
		it = v.instr(n, it)
	}
	return it, nil
}

// sharedTable returns the shared build table of a driver-spine join,
// building on first use the serial pipeline that fills it at Open.
func (x *exchangeVec) sharedTable(v *vbuild, n *Node, ords []int) (*hashTable, error) {
	for _, b := range x.builds {
		if b.node == n {
			return &b.ht, nil
		}
	}
	src, err := v.build(n.Children[1])
	if err != nil {
		return nil, err
	}
	b := &sharedBuild{node: n, src: src, ords: ords}
	x.builds = append(x.builds, b)
	return &b.ht, nil
}

// bindWorkerMerge prepares the per-worker state the merge kind needs: a
// sort-key evaluator or an aggregation accumulator.
func (x *exchangeVec) bindWorkerMerge(v *vbuild, n *Node, w *parWorker) error {
	var err error
	switch x.sh.kind {
	case parSort:
		w.sortKeys, err = bindSortKeys(n.SortKeys, n.Children[0].Schema, v.e.subquery)
		x.sortDesc = w.sortKeys.desc
	case parAgg:
		w.agg, err = v.newAggAcc(n)
		w.aggScan = n.Children[0] == x.sh.driver
	}
	return err
}

func (x *exchangeVec) Open() error {
	if err := x.stop(); err != nil { // cancel any previous run
		return err
	}
	t, err := x.e.Cat.Table(x.sh.driver.Relation)
	if err != nil {
		return err
	}
	snap := t.Snapshot()
	for _, w := range x.workers {
		w.rows, w.nanos = 0, 0
	}
	for _, b := range x.builds {
		if err := b.ht.fill(b.src, b.ords); err != nil {
			return err
		}
	}
	x.disp = newMorselDispenser(buildMorsels(snap, x.e.Cfg.morselRows()))
	x.cancel = make(chan struct{})
	x.results = make(chan morselOut, x.dop)
	x.err = nil
	x.pending = make(map[int][]storage.Row)
	x.nextM, x.cur, x.out = 0, rowsOut{}, rowsOut{}
	x.running = true
	x.wg.Add(len(x.workers))
	for _, w := range x.workers {
		go x.runWorker(w)
	}
	if x.sh.kind != parGather {
		return x.collectRuns()
	}
	return nil
}

// stop cancels an in-flight run and waits for every worker to exit. It is
// what makes Close (and re-Open) safe mid-stream: after stop returns, no
// worker goroutine remains.
func (x *exchangeVec) stop() error {
	if !x.running {
		return nil
	}
	close(x.cancel)
	go func() { // unblock senders while we wait
		for range x.results {
		}
	}()
	x.wg.Wait()
	close(x.results)
	x.running = false
	return nil
}

// finish records per-worker stats once all workers have exited normally.
func (x *exchangeVec) finish() {
	if !x.running {
		return
	}
	x.wg.Wait()
	close(x.results)
	x.running = false
	if x.v.stats != nil {
		st := x.v.stats(x.sh.driver)
		st.Workers = int64(x.dop)
		st.PerWorker = st.PerWorker[:0]
		for _, w := range x.workers {
			st.PerWorker = append(st.PerWorker, WorkerStat{Rows: w.rows, Time: time.Duration(w.nanos)})
		}
	}
}

func (x *exchangeVec) Close() error {
	err := x.stop()
	for _, w := range x.workers {
		if cerr := w.root.Close(); err == nil {
			err = cerr
		}
	}
	for _, b := range x.builds {
		if cerr := b.src.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// --- Worker loop ------------------------------------------------------------

func (x *exchangeVec) canceled() bool {
	select {
	case <-x.cancel:
		return true
	default:
		return false
	}
}

// send delivers one result unless the run was canceled.
func (x *exchangeVec) send(mo morselOut) bool {
	select {
	case x.results <- mo:
		return true
	case <-x.cancel:
		return false
	}
}

func (x *exchangeVec) runWorker(w *parWorker) {
	defer x.wg.Done()
	start := time.Now()
	defer func() { w.nanos += int64(time.Since(start)) }()
	switch x.sh.kind {
	case parGather:
		x.runGather(w)
	case parSort:
		x.runSort(w)
	case parAgg:
		x.runAgg(w)
	}
}

// drainMorsel points the worker's scan at one morsel and fully drains the
// pipeline, invoking emit per output batch. Batches are transient; emit
// must copy the headers it keeps.
func (w *parWorker) drainMorsel(mo morsel, emit func([]storage.Row) error) error {
	if err := w.scan.setMorsel(mo); err != nil {
		return err
	}
	if err := w.root.Open(); err != nil {
		return err
	}
	for {
		b, err := w.root.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		w.rows += int64(len(b))
		if err := emit(b); err != nil {
			return err
		}
	}
}

func (x *exchangeVec) runGather(w *parWorker) {
	for {
		m, mo, ok := x.disp.grab()
		if !ok || x.canceled() {
			return
		}
		var rows []storage.Row
		err := w.drainMorsel(mo, func(b []storage.Row) error {
			rows = append(rows, b...)
			return nil
		})
		if !x.send(morselOut{m: m, rows: rows, err: err}) || err != nil {
			return
		}
	}
}

func (x *exchangeVec) runSort(w *parWorker) {
	run := &workerRun{}
	var heap *topKHeap
	if x.topK > 0 {
		heap = newTopKHeap(int(x.topK), len(x.sortDesc), x.sortDesc)
	}
	var env rowEnv
	scratch := make([]datum.D, len(x.sortDesc))
	for {
		m, mo, ok := x.disp.grab()
		if !ok || x.canceled() {
			break
		}
		within := int64(0)
		err := w.drainMorsel(mo, func(b []storage.Row) error {
			for _, r := range b {
				if err := w.sortKeys.eval(r, scratch, &env); err != nil {
					return err
				}
				seq := int64(m)*seqStride + within
				within++
				if heap != nil {
					heap.pushSeq(r, scratch, seq)
					continue
				}
				run.rows = append(run.rows, r)
				run.keys = append(run.keys, scratch...)
				run.seqs = append(run.seqs, seq)
			}
			return nil
		})
		if err != nil {
			x.send(morselOut{m: -1, err: err})
			return
		}
	}
	if x.canceled() {
		return
	}
	if heap != nil {
		run.rows, run.keys, run.seqs = heap.finishRuns()
	} else {
		run.sortByKeys(x.sortDesc)
	}
	x.send(morselOut{m: -1, run: run})
}

// sortByKeys orders a full-sort run by (keys, seq). A worker grabs
// morsels in increasing order, so its rows arrive in increasing seq order
// and the stable sort by keys alone yields exactly that order.
func (run *workerRun) sortByKeys(desc []bool) {
	nKeys := len(desc)
	idx := stableKeyOrder(run.keys, len(run.rows), desc)
	rows := make([]storage.Row, len(idx))
	keys := make([]datum.D, 0, len(idx)*nKeys)
	seqs := make([]int64, len(idx))
	for i, j := range idx {
		rows[i] = run.rows[j]
		keys = append(keys, run.keys[j*nKeys:(j+1)*nKeys]...)
		seqs[i] = run.seqs[j]
	}
	run.rows, run.keys, run.seqs = rows, keys, seqs
}

func (x *exchangeVec) runAgg(w *parWorker) {
	w.agg.reset()
	for {
		m, mo, ok := x.disp.grab()
		if !ok || x.canceled() {
			break
		}
		seq := int64(m) * seqStride
		err := w.drainMorsel(mo, func(b []storage.Row) error {
			var at segRows
			if w.aggScan {
				at = w.scan.origin()
			}
			err := w.agg.addBatch(b, seq, at)
			seq += int64(len(b))
			return err
		})
		if err != nil {
			x.send(morselOut{m: -1, err: err})
			return
		}
	}
	if x.canceled() {
		return
	}
	x.send(morselOut{m: -1, run: &workerRun{groups: w.agg.take()}})
}

// --- Gather merge -----------------------------------------------------------

func (x *exchangeVec) NextBatch() ([]storage.Row, error) {
	if x.err != nil {
		return nil, x.err
	}
	if x.sh.kind != parGather {
		return x.out.next(), nil
	}
	for {
		if b := x.cur.next(); b != nil {
			return b, nil
		}
		if x.nextM >= x.disp.count() {
			x.finish()
			return nil, nil
		}
		rows, ok := x.pending[x.nextM]
		if ok {
			delete(x.pending, x.nextM)
			x.cur.set(rows)
			x.nextM++
			continue
		}
		mo := <-x.results
		if mo.err != nil {
			x.err = mo.err
			x.stop()
			return nil, x.err
		}
		x.pending[mo.m] = mo.rows
	}
}

// --- Sort / aggregation merges ----------------------------------------------

// collectRuns waits for every worker's run (sort and aggregation merges
// are blocking, like their serial operators) and materializes the merged
// output.
func (x *exchangeVec) collectRuns() error {
	runs := make([]*workerRun, 0, x.dop)
	for len(runs) < x.dop {
		mo := <-x.results
		if mo.err != nil {
			x.err = mo.err
			x.stop()
			return x.err
		}
		runs = append(runs, mo.run)
	}
	x.finish()
	if x.sh.kind == parSort {
		x.out.set(mergeSortRuns(runs, x.sortDesc, x.topK))
		return nil
	}
	out, err := x.mergeAggRuns(runs)
	if err != nil {
		x.err = err
		return err
	}
	x.out.set(out)
	return nil
}

// mergeSortRuns k-way merges per-worker sorted runs by (keys, seq). The
// seq tiebreak is the row's serial arrival order, so the merged sequence
// is exactly the serial stable sort; truncation to topK happens after the
// merge (each run already holds at most topK rows).
func mergeSortRuns(runs []*workerRun, desc []bool, topK int64) []storage.Row {
	total := 0
	for _, r := range runs {
		total += len(r.rows)
	}
	if topK > 0 && int64(total) > topK {
		total = int(topK)
	}
	out := make([]storage.Row, 0, total)
	pos := make([]int, len(runs))
	for len(out) < cap(out) {
		best := -1
		for i, r := range runs {
			if pos[i] >= len(r.rows) {
				continue
			}
			if best < 0 || runBefore(runs[i], pos[i], runs[best], pos[best], desc) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, runs[best].rows[pos[best]])
		pos[best]++
	}
	return out
}

func runBefore(a *workerRun, ai int, b *workerRun, bi int, desc []bool) bool {
	n := len(desc)
	if c := compareSortKeys(a.keys[ai*n:(ai+1)*n], b.keys[bi*n:(bi+1)*n], desc); c != 0 {
		return c < 0
	}
	return a.seqs[ai] < b.seqs[bi]
}

// mergeAggRuns merges per-worker partial groups, orders them by global
// first arrival (the serial aggregate's insertion order) and finishes them
// as the serial aggregate does.
func (x *exchangeVec) mergeAggRuns(runs []*workerRun) ([]storage.Row, error) {
	x.agg.reset()
	for _, run := range runs {
		x.agg.merge(run.groups)
	}
	groups := x.agg.groups
	sort.Slice(groups, func(a, b int) bool { return groups[a].firstSeq < groups[b].firstSeq })
	return x.agg.finish()
}
