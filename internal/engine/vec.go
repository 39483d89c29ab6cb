package engine

// vec.go is the batch-at-a-time (vectorized) executor. Operators implement
// vecIter and hand rows downstream in batches of up to batchSize, so the
// per-row costs of row-at-a-time execution — an interface call per row, a
// closure call per filter evaluation, an allocation per joined or projected
// row — are amortized across the batch: scans filter through tight typed
// loops (vexpr.go), joins and projection pack their output rows into flat
// per-batch datum arenas, and top-K keys load by ordinal. A join packs only
// the columns of its Schema, which the planner narrows to what the join's
// consumers read (batchWriter), so its arenas hold no column nothing reads.
//
// Batch memory contract:
//   - A batch (the []storage.Row slice) is valid only until the consumer's
//     next NextBatch call on the producer; consumers that need it longer
//     copy the row headers out (sort, hash-join build do exactly that).
//   - Row DATA is immortal: output arenas are freshly allocated per batch
//     and never reused, and scan batches alias the table heap, so a
//     retained storage.Row header stays valid forever. This is what lets
//     the hash-join build side, the top-K heap, and the final Result all
//     hold rows without copying.
//   - Batches are never empty: producers either return >= 1 row or nil for
//     end-of-stream.
//
// This is the engine's one production executor: Exec, subqueries, the
// streaming query API and every instrumented run (ExecPlanInstrumented,
// QueryInstrumented, QueryStreamInstrumented, EXPLAIN ANALYZE) build the
// same operator tree and pull it through one Cursor (stream.go), and
// every operator the planner emits implements vecIter. Instrumented
// builds wrap each operator in an instrVecIter (parallel.go) that counts
// rows and time per batch; an uninstrumented build adds no wrapper.
// Blocking operators (sort, aggregation, Result) hand out their
// materialized output through rowsOut. The materializing reference
// executor (executor.go) stays as the differential oracle.

import (
	"fmt"
	"sync/atomic"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// batchSize is the row count operators aim for per batch: large enough to
// amortize per-batch dispatch and allocation to noise, small enough that a
// batch of row headers and its output arena stay cache-resident.
const batchSize = 1024

// vecIter is the batch operator contract. NextBatch returns the next batch
// (never empty) or nil at end of stream; see the file header for the
// memory contract. Open resets the operator for a fresh scan.
type vecIter interface {
	Open() error
	NextBatch() ([]storage.Row, error)
	Close() error
}

// buildVec constructs the vectorized iterator tree for a plan node. A
// non-nil st wraps every operator in an instrVecIter collecting into it
// (bridge.go's instrumentation); a nil st builds no wrapper at all. Plans
// the planner marked parallel (driver DOP >= 2) get an exchangeVec at the
// exchange point (parallel.go).
func (e *Engine) buildVec(n *Node, st ExecStats) (vecIter, error) {
	v := &vbuild{e: e, par: e.activeParShape(n)}
	if st != nil {
		v.stats = st.get
	}
	return v.build(n)
}

// vbuild constructs vecIter trees.
type vbuild struct {
	e *Engine
	// par, when non-nil, is the active parallel shape: building par.exchange
	// produces the exchange operator instead of the serial one.
	par *parShape
	// stats, when non-nil, returns the shared OpStats for a node; every
	// built operator is then wrapped in an instrVecIter.
	stats func(*Node) *OpStats
}

func (v *vbuild) build(n *Node) (vecIter, error) {
	if v.par != nil && n == v.par.exchange {
		x, err := v.newExchangeVec(n)
		if err != nil {
			return nil, err
		}
		return v.instr(n, x), nil
	}
	it, err := v.build0(n)
	if err != nil {
		return nil, err
	}
	return v.instr(n, it), nil
}

func (v *vbuild) build0(n *Node) (vecIter, error) {
	switch n.Op {
	case OpSeqScan:
		return v.newSeqScanVec(n, false)
	case OpIndexScan:
		return v.newIndexScanVec(n)
	case OpHash, OpMaterialize:
		return v.build(n.Children[0])
	case OpHashJoin, OpNestedLoop:
		return v.newHashJoinVec(n)
	case OpMergeJoin:
		return v.newMergeJoinVec(n)
	case OpSort:
		return v.newSortVec(n)
	case OpAggregate, OpHashAggregate, OpGroupAggregate:
		return v.newAggVec(n)
	case OpUnique:
		return v.newUniqueVec(n)
	case OpResult:
		return v.newResultVec(n)
	case OpLimit:
		child, err := v.build(n.Children[0])
		if err != nil {
			return nil, err
		}
		return &limitVec{child: child, limit: n.Limit, offset: n.Offset}, nil
	}
	return nil, fmt.Errorf("engine: cannot execute operator %s", n.Op.Name())
}

// estCap clamps a planner cardinality estimate to a sane preallocation
// capacity: materializing operators size their buffers from it so the
// common case is one allocation instead of log-many append regrowths, and
// a wild over-estimate cannot balloon memory.
func estCap(est float64) int {
	if est < 16 {
		return 16
	}
	if est > 1<<20 {
		return 1 << 20
	}
	return int(est)
}

// --- Materialized output ----------------------------------------------------

// rowsOut hands out a materialized row set batchSize rows at a time: the
// output of sort, aggregation, Result and the parallel exchange's merges
// and gathered morsels.
type rowsOut struct {
	rows []storage.Row
	pos  int
}

func (o *rowsOut) set(rows []storage.Row) { o.rows, o.pos = rows, 0 }

// next returns the next batch, or nil once every row has been handed out.
func (o *rowsOut) next() []storage.Row {
	if o.pos >= len(o.rows) {
		return nil
	}
	end := min(o.pos+batchSize, len(o.rows))
	b := o.rows[o.pos:end]
	o.pos = end
	return b
}

// --- Batch output writer ----------------------------------------------------

// batchWriter packs a join's output rows into a flat datum arena: one
// arena allocation per batch instead of one row allocation per row. An
// output row gathers the columns its consumers read from the matched row
// pair: the left row's at lOrds, then the right row's at rOrds
// (gatherFor), so a join packs only the columns of its Schema. The
// arena is never reused — emitted rows are three-index subslices of it
// and may be retained forever by consumers — while the rows slice
// (headers only) is recycled across batches.
type batchWriter struct {
	lOrds, rOrds []int
	width        int // len(lOrds) + len(rOrds)
	hint         int // expected rows in the current batch; 0 or out of range → batchSize
	// left estimates the rows the operator has yet to emit over all its
	// batches, counted down per row; 0 when unknown or used up.
	left  int
	arena []datum.D
	rows  []storage.Row
}

// reset starts a new batch: the header slice is recycled, the arena is
// dropped and allocated lazily on the first append — a NextBatch call that
// produces no rows (including the final EOS pull) must not pay for a
// batch-wide arena, and a small batch should get a small one.
func (w *batchWriter) reset() {
	w.hint = 0
	w.arena = nil
	if w.rows == nil {
		w.rows = make([]storage.Row, 0, batchSize)
	}
	w.rows = w.rows[:0]
}

// appendGather emits the output row of the pair l, r as one packed row.
// Arena chunks are never regrown or copied. A batch's first chunk holds
// the hinted number of rows, and a later one the rest of the batch; either
// is cut to twice the rows estimated to be left, so a stream that ends
// early leaves little of its last chunk unused. A batch takes at most two
// chunks, or three when the rows outrun both the hint and the estimate.
// Rows already emitted keep pointing into earlier chunks, which are never
// written again (each row is capped at its own length).
func (w *batchWriter) appendGather(l, r storage.Row) {
	if len(w.arena)+w.width > cap(w.arena) {
		rows := batchSize - len(w.rows)
		if w.arena == nil && w.hint > 0 && w.hint < rows {
			rows = w.hint
		}
		if w.left > 0 && 2*w.left < rows {
			rows = 2 * w.left
		}
		w.arena = make([]datum.D, 0, rows*w.width)
	}
	if w.left > 0 {
		w.left--
	}
	n := len(w.arena)
	w.arena = w.arena[:n+w.width]
	row := w.arena[n:len(w.arena):len(w.arena)]
	gather(row, l, w.lOrds)
	gather(row[len(w.lOrds):], r, w.rOrds)
	w.rows = append(w.rows, storage.Row(row))
}

// gather copies the columns of src at ords into dst. ords lists columns of
// src in their order, so when it lists all of them it is a block copy.
func gather(dst, src storage.Row, ords []int) {
	if len(ords) == len(src) {
		copy(dst, src)
		return
	}
	for i, o := range ords {
		dst[i] = src[o]
	}
}

func (w *batchWriter) full() bool { return len(w.rows) >= batchSize }

// --- Scans ------------------------------------------------------------------

// segRows locates batch rows in a loaded segment payload: row j of the
// batch is row sel[j] of sd, or row lo+j when sel is nil. A nil sd means
// rows in no segment (tail rows, index-scan candidates).
type segRows struct {
	sd  *storage.SegData
	sel []int32
	lo  int
}

// row returns the index in sd of batch row j.
func (at segRows) row(j int) int32 {
	if at.sel != nil {
		return at.sel[j]
	}
	return int32(at.lo + j)
}

// batchOrigin is implemented by the scans, and forwarded by instrVecIter:
// origin reports where the batch last returned lives, so an aggregate
// directly above a scan can read its arguments from the segment's typed
// column vectors. Like the batch, it is valid until the next NextBatch.
type batchOrigin interface {
	origin() segRows
}

// scanFilter is the filtering every scan shares: the selection vector the
// predicate narrows over a chunk, the row headers gathered from the
// survivors, and the origin of the batch last returned.
type scanFilter struct {
	pred vecPred // nil when unfiltered
	sel  []int32
	out  []storage.Row
	at   segRows
}

// filter returns the rows of rows[lo:hi] that satisfy the predicate. sd is
// the loaded segment payload rows belongs to, or nil for tail rows and
// index-scan candidates. It fills the selection vector with the chunk,
// narrows it through the predicate and gathers the survivors' row headers
// once; an unfiltered chunk is a direct subslice of rows.
func (f *scanFilter) filter(rows []storage.Row, sd *storage.SegData, lo, hi int) ([]storage.Row, error) {
	if f.pred == nil {
		f.at = segRows{sd: sd, lo: lo}
		return rows[lo:hi], nil
	}
	// Buffers are sized to the chunk, not the full batch width: scanning a
	// 25-row segment should not zero a 1024-entry buffer.
	if cap(f.sel) < hi-lo {
		f.sel = make([]int32, hi-lo)
	}
	sel := f.sel[:hi-lo]
	for j := range sel {
		sel[j] = int32(lo + j)
	}
	sel, err := f.pred.narrow(rows, sd, sel)
	if err != nil {
		return nil, err
	}
	f.at = segRows{sd: sd, sel: sel}
	if cap(f.out) < len(sel) {
		f.out = make([]storage.Row, hi-lo)
	}
	out := f.out[:len(sel)]
	for j, i := range sel {
		out[j] = rows[i]
	}
	return out, nil
}

func (f *scanFilter) origin() segRows { return f.at }

// seqScanVec scans the table's sealed segments and then its tail, in
// chunks. Filtered scans consult each segment's zone maps first and skip
// refuted segments without touching a row. Every chunk filters through a
// selection vector that every conjunct narrows (vexpr.go), with its typed
// column-vector loop over a segment, late-materializing only surviving
// row headers. Unfiltered chunks are returned as direct segment/tail
// subslices (zero copies, zero allocations). Chunks grow adaptively from
// initialChunkSize to batchSize (×4 per chunk): a `LIMIT 10` consumer
// stops after one small chunk instead of paying for a full 1024-row batch,
// while a full scan reaches max-size chunks after two steps and keeps the
// batch loop's throughput.
//
// The same scan reads a parallel worker's morsels (parallel.go). A
// worker's scan has no table and takes no snapshot: setMorsel positions
// it on one morsel, which it reads in full-width chunks, and it ends
// where the morsel does.
type seqScanVec struct {
	scanFilter
	t     *storage.Table // nil for a worker's scan
	prune bool           // consult zone maps (off under Config.DisableZonePruning)
	st    *OpStats

	snap     storage.Snapshot
	curSD    *storage.SegData // loaded payload cur aliases; nil for the tail
	cur      []storage.Row    // current run of rows
	pos, end int              // next and end position within cur
	seg      int              // next sealed segment ordinal
	tailDone bool
	done     bool
	chunk    int
}

// initialChunkSize is the first chunk a serial seqScanVec produces after
// Open.
const initialChunkSize = 64

// newSeqScanVec builds the scan of n: a serial scan of its table, or, for
// a parallel worker, a scan that reads only the morsels it is handed.
func (v *vbuild) newSeqScanVec(n *Node, worker bool) (*seqScanVec, error) {
	it := &seqScanVec{prune: !v.e.Cfg.DisableZonePruning, chunk: batchSize}
	if !worker {
		t, err := v.e.Cat.Table(n.Relation)
		if err != nil {
			return nil, err
		}
		it.t = t
	}
	if v.stats != nil {
		it.st = v.stats(n)
	}
	if n.Filter != nil {
		var err error
		if it.pred, err = compileVecPred(n.Filter, n.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// Open takes a fresh snapshot and rewinds a serial scan. A worker's scan
// keeps the morsel setMorsel positioned it on.
func (it *seqScanVec) Open() error {
	if it.t == nil {
		return nil
	}
	it.snap = it.t.Snapshot()
	it.cur, it.pos, it.end = nil, 0, 0
	it.seg, it.tailDone, it.done = 0, false, false
	it.chunk = initialChunkSize
	return it.advance()
}

// setMorsel positions a worker's scan on one morsel. A segment morsel
// whose zone maps refute the predicate yields no rows and is never faulted
// in; a surviving one stays pinned until the next setMorsel or Close.
// Only the lo == 0 morsel of a segment counts it, so a segment split into
// several morsels counts once.
func (it *seqScanVec) setMorsel(m morsel) error {
	it.releaseSeg()
	it.done = false
	if m.seg == nil {
		it.cur, it.pos, it.end = m.rows, m.lo, m.hi
		return nil
	}
	it.cur, it.pos, it.end = nil, 0, 0
	return it.enterSeg(m.seg, m.lo, m.hi, m.lo == 0)
}

// releaseSeg unpins the current segment's buffer pool frame, if any. Rows
// already handed downstream stay valid — the decoded payload is GC-held
// while any consumer references it — releasing only lets the pool evict
// the frame once no scan is positioned on it.
func (it *seqScanVec) releaseSeg() {
	if it.curSD != nil {
		it.curSD.Release()
		it.curSD = nil
	}
}

// enterSeg consults s's zone maps and, unless they refute the predicate,
// faults the payload in (pinned) and positions the scan on rows [lo, hi)
// of it, so a pruned segment costs zero I/O. count records the segment as
// scanned or pruned; the counters are atomic because a parallel scan's
// workers share one OpStats.
func (it *seqScanVec) enterSeg(s *storage.Segment, lo, hi int, count bool) error {
	pruned := it.prune && it.pred != nil && segPruned(it.pred, s)
	if count && it.st != nil {
		if pruned {
			atomic.AddInt64(&it.st.SegsPruned, 1)
		} else {
			atomic.AddInt64(&it.st.SegsScanned, 1)
		}
	}
	if pruned {
		return nil
	}
	sd, err := s.Load()
	if err != nil {
		it.done = true
		return err
	}
	it.curSD, it.cur, it.pos, it.end = sd, sd.Rows(), lo, hi
	return nil
}

// advance positions a serial scan at its next run of rows: the next
// sealed segment surviving zone-map pruning, then the tail, then
// end-of-stream. A worker's scan ends with its morsel.
func (it *seqScanVec) advance() error {
	it.releaseSeg()
	if it.t == nil {
		it.done = true
		return nil
	}
	segs := it.snap.Segments()
	for it.seg < len(segs) {
		s := segs[it.seg]
		it.seg++
		if err := it.enterSeg(s, 0, s.NumRows(), true); err != nil || it.curSD != nil {
			return err
		}
	}
	if !it.tailDone {
		it.tailDone = true
		it.cur = it.snap.Tail()
		it.pos, it.end = 0, len(it.cur)
		return nil
	}
	it.done = true
	return nil
}

func (it *seqScanVec) NextBatch() ([]storage.Row, error) {
	for !it.done {
		if it.pos >= it.end {
			if err := it.advance(); err != nil {
				return nil, err
			}
			continue
		}
		lo := it.pos
		it.pos = min(lo+it.chunk, it.end)
		if it.chunk < batchSize {
			it.chunk = min(it.chunk*4, batchSize)
		}
		b, err := it.filter(it.cur, it.curSD, lo, it.pos)
		if err != nil {
			return nil, err
		}
		if len(b) > 0 {
			return b, nil
		}
		// Everything in this chunk was filtered out; pull the next one
		// rather than return an empty batch.
	}
	return nil, nil
}

func (it *seqScanVec) Close() error {
	it.releaseSeg()
	return nil
}

// indexScanVec resolves the index at Open, then fetches candidate rows per
// batch and rechecks the full index condition plus residual filter
// through the scans' selection-vector filter (cheap, and it keeps
// multi-conjunct conditions exact when the scan bounds captured only part
// of them, as the reference executor does). Its predicate is the index
// condition ∧ residual filter, nil when neither. Index and row data come
// from the same snapshot, so the fetch is consistent under concurrent DML.
type indexScanVec struct {
	scanFilter
	eng  *Engine
	n    *Node
	snap storage.Snapshot
	ids  []int
	pos  int
	in   []storage.Row
}

func (v *vbuild) newIndexScanVec(n *Node) (*indexScanVec, error) {
	if _, err := v.e.Cat.Table(n.Relation); err != nil {
		return nil, err
	}
	combined := sqlparser.JoinConjuncts(append(sqlparser.SplitConjuncts(n.IndexCond), sqlparser.SplitConjuncts(n.Filter)...))
	it := &indexScanVec{eng: v.e, n: n}
	if combined != nil {
		var err error
		if it.pred, err = compileVecPred(combined, n.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	return it, nil
}

func (it *indexScanVec) Open() error {
	t, err := it.eng.Cat.Table(it.n.Relation)
	if err != nil {
		return err
	}
	it.snap = t.Snapshot()
	col, lo, hi, incLo, incHi, eq, hasEq, err := indexBounds(it.n.IndexCond)
	if err != nil {
		return err
	}
	ix := it.snap.Index(col)
	if ix == nil {
		return fmt.Errorf("engine: planned index on %s.%s does not exist", it.n.Relation, col)
	}
	if hasEq {
		it.ids = ix.Lookup(eq)
	} else {
		it.ids = ix.Range(lo, hi, incLo, incHi)
	}
	it.pos = 0
	return nil
}

func (it *indexScanVec) NextBatch() ([]storage.Row, error) {
	for it.pos < len(it.ids) {
		end := min(it.pos+batchSize, len(it.ids))
		// Size the fetch buffer to the candidates actually present rather
		// than a full batch: a point lookup returning one id should not pay
		// for zeroing 1024-entry buffers per query.
		if need := end - it.pos; cap(it.in) < need {
			it.in = make([]storage.Row, 0, need)
		}
		in, err := it.snap.FetchRows(it.in[:0], it.ids[it.pos:end])
		if err != nil {
			return nil, err
		}
		it.in, it.pos = in, end
		out, err := it.filter(in, nil, 0, len(in))
		if err != nil {
			return nil, err
		}
		if len(out) > 0 {
			return out, nil
		}
	}
	return nil, nil
}

func (it *indexScanVec) Close() error { return nil }

// --- Limit ------------------------------------------------------------------

// limitVec implements LIMIT/OFFSET on batches by slicing: whole batches
// inside the offset are skipped without touching their rows, and the final
// batch is truncated to the remaining limit. Once the limit is reached the
// child is never pulled again, which short-circuits the whole subtree
// below it. limit < 0 means unbounded (OFFSET-only).
type limitVec struct {
	child            vecIter
	limit, offset    int64
	skipped, emitted int64
}

func (it *limitVec) Open() error {
	it.skipped, it.emitted = 0, 0
	return it.child.Open()
}

func (it *limitVec) NextBatch() ([]storage.Row, error) {
	if it.limit >= 0 && it.emitted >= it.limit {
		return nil, nil
	}
	for {
		b, err := it.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if it.skipped < it.offset {
			skip := it.offset - it.skipped
			if skip >= int64(len(b)) {
				it.skipped += int64(len(b))
				continue
			}
			it.skipped = it.offset
			b = b[skip:]
		}
		if it.limit >= 0 {
			if rem := it.limit - it.emitted; int64(len(b)) > rem {
				b = b[:rem]
			}
		}
		it.emitted += int64(len(b))
		return b, nil
	}
}

func (it *limitVec) Close() error { return it.child.Close() }

// --- Unique -----------------------------------------------------------------

// uniqueVec filters each input batch down to the rows whose key it has not
// seen before and passes on their headers. Keys evaluate into a reused
// buffer, so a duplicate row costs one keyTable lookup and no allocation;
// only a new key's insert copies it.
type uniqueVec struct {
	child vecIter
	keys  sortKeyEval
	vals  []datum.D
	seen  keyTable
	out   []storage.Row
	env   rowEnv
}

func (v *vbuild) newUniqueVec(n *Node) (*uniqueVec, error) {
	child, err := v.build(n.Children[0])
	if err != nil {
		return nil, err
	}
	keys, err := bindSortKeys(n.SortKeys, n.Children[0].Schema, v.e.subquery)
	if err != nil {
		return nil, err
	}
	return &uniqueVec{child: child, keys: keys, vals: make([]datum.D, len(n.SortKeys))}, nil
}

func (it *uniqueVec) Open() error {
	it.seen.reset(len(it.vals), 0)
	return it.child.Open()
}

func (it *uniqueVec) NextBatch() ([]storage.Row, error) {
	for {
		b, err := it.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if cap(it.out) < len(b) {
			it.out = make([]storage.Row, 0, len(b))
		}
		out := it.out[:0]
		for _, r := range b {
			if err := it.keys.eval(r, it.vals, &it.env); err != nil {
				return nil, err
			}
			if _, added := it.seen.insert(it.vals, hashKey(it.vals)); added {
				out = append(out, r)
			}
		}
		it.out = out
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (it *uniqueVec) Close() error { return it.child.Close() }

// --- Result -----------------------------------------------------------------

// resultVec returns the one row of no columns a FROM-less SELECT reads, as
// one batch, unless its filter (the query's WHERE) rejects it.
type resultVec struct {
	filter boundExpr
	out    rowsOut
}

func (v *vbuild) newResultVec(n *Node) (*resultVec, error) {
	it := &resultVec{}
	if n.Filter != nil {
		f, err := bindExpr(n.Filter, nil, v.e.subquery)
		if err != nil {
			return nil, err
		}
		it.filter = f
	}
	return it, nil
}

func (it *resultVec) Open() error {
	rows := []storage.Row{{}}
	if it.filter != nil {
		var env rowEnv
		v, err := it.filter(&env)
		if err != nil {
			return err
		}
		if !truthy(v) {
			rows = nil
		}
	}
	it.out.set(rows)
	return nil
}

func (it *resultVec) NextBatch() ([]storage.Row, error) { return it.out.next(), nil }

func (it *resultVec) Close() error { return nil }
