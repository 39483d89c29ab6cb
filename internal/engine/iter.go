package engine

// iter.go is the streaming iterator executor: every operator implements
// rowIter (Open/Next/Close), expressions are pre-bound to ordinals at
// construction time (bind.go), and pipelined operators — scans, filters,
// limit/offset, the probe side of hash joins, the outer side of nested
// loops, unique — never buffer their input. Only the operators whose
// semantics require it materialize: sort (bounded to a top-K heap when the
// planner set SortLimit), aggregation, the build side of a hash join, the
// inner side of a nested loop, and both merge-join inputs (whose key
// datums are evaluated once into flat arenas rather than per comparison).
//
// Limit short-circuits by simply not pulling from its child once
// offset+limit rows have been seen, so `LIMIT 10` over a scan touches ten
// heap rows instead of the whole table. The materializing executor in
// executor.go is kept as the reference implementation; differential tests
// assert both produce identical row multisets.

import (
	"fmt"
	"sort"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// rowIter is the streaming operator contract. Open prepares the operator
// (materializing inputs only where semantics demand it); Next returns the
// next row, with ok=false at end of stream; Close releases child iterators.
// Returned rows may alias operator-internal or heap storage and must not be
// mutated by callers.
type rowIter interface {
	Open() error
	Next() (row storage.Row, ok bool, err error)
	Close() error
}

// execStream runs a plan through the streaming executor and collects the
// result. Errors from construction (e.g. unresolvable columns) surface just
// like execution errors.
func (e *Engine) execStream(n *Node) ([]storage.Row, error) {
	it, err := e.buildIter(n)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	if err := it.Open(); err != nil {
		return nil, err
	}
	var out []storage.Row
	for {
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}

// buildIter constructs the iterator tree for a plan node, binding all
// expressions against the operator schemas. This is the uninstrumented
// fast path: no wrap hook, so the built pipeline is byte-for-byte the one
// the allocation guards measure.
func (e *Engine) buildIter(n *Node) (rowIter, error) {
	return (&ibuild{e: e}).build(n)
}

// ibuild carries per-construction state through iterator building. The
// optional wrap hook decorates every operator iterator as it is built —
// the instrumentation seam (bridge.go) — and is nil on the normal path,
// where construction and execution are identical to a hookless build.
// The optional child hook replaces subtree construction wholesale: the
// vectorized builder (vec.go) installs it so that a row-only operator
// built through buildOp pulls from batch-executing children through the
// vecToRow adapter. The two hooks are never set together — instrumented
// pipelines are pure row pipelines.
type ibuild struct {
	e     *Engine
	wrap  func(n *Node, it rowIter) rowIter
	child func(n *Node) (rowIter, error)
	// stats, when non-nil, returns the shared OpStats slot for a node;
	// scans use it to record segment-level accounting (scanned vs pruned)
	// that per-row wrapping cannot observe. Set together with wrap by the
	// instrumented runner; nil on the normal path.
	stats func(n *Node) *OpStats
}

// build constructs the iterator for n and applies the wrap hook, if any.
func (b *ibuild) build(n *Node) (rowIter, error) {
	if b.child != nil {
		return b.child(n)
	}
	it, err := b.buildOp(n)
	if err != nil {
		return nil, err
	}
	if b.wrap != nil {
		it = b.wrap(n, it)
	}
	return it, nil
}

func (b *ibuild) buildOp(n *Node) (rowIter, error) {
	switch n.Op {
	case OpSeqScan:
		return b.newSeqScanIter(n)
	case OpIndexScan:
		return b.newIndexScanIter(n)
	case OpHash, OpMaterialize:
		// Pass-through operators reuse the child iterator; under
		// instrumentation they still get their own wrapper, so Hash nodes
		// report the build-side row count just like PostgreSQL's ANALYZE.
		return b.build(n.Children[0])
	case OpHashJoin:
		return b.newHashJoinIter(n)
	case OpMergeJoin:
		return b.newMergeJoinIter(n)
	case OpNestedLoop:
		return b.newNestedLoopIter(n)
	case OpSort:
		return b.newSortIter(n)
	case OpAggregate, OpHashAggregate, OpGroupAggregate:
		return b.newAggIter(n)
	case OpUnique:
		return b.newUniqueIter(n)
	case OpLimit:
		child, err := b.build(n.Children[0])
		if err != nil {
			return nil, err
		}
		return &limitIter{child: child, limit: n.Limit, offset: n.Offset}, nil
	case OpResult:
		return b.newResultIter(n)
	}
	return nil, fmt.Errorf("engine: cannot execute operator %s", n.Op.Name())
}

// --- Scans -----------------------------------------------------------------

// seqScanIter walks the sealed segments and then the tail row-at-a-time.
// Filtered scans still consult zone maps: a compiled pruner (the same
// specialization vexpr.go gives the batch pipeline) refutes whole segments
// before any row is touched, so EXPLAIN ANALYZE's serial row pipeline
// reports the identical segments-scanned/segments-pruned accounting as the
// batch path. Row-level filtering stays on the bound closure.
type seqScanIter struct {
	snap   storage.Snapshot
	filter boundExpr // nil when unfiltered
	pruner vecPred   // compiled for zone-map checks only; nil when no filter
	prune  bool
	st     *OpStats
	env    rowEnv

	curSD    *storage.SegData // loaded payload cur aliases; nil for the tail
	cur      []storage.Row
	seg      int
	pos      int
	tailDone bool
	done     bool
}

func (b *ibuild) newSeqScanIter(n *Node) (*seqScanIter, error) {
	t, err := b.e.Cat.Table(n.Relation)
	if err != nil {
		return nil, err
	}
	it := &seqScanIter{snap: t.Snapshot(), prune: !b.e.Cfg.DisableZonePruning}
	if b.stats != nil {
		it.st = b.stats(n)
	}
	if n.Filter != nil {
		if it.filter, err = bindExpr(n.Filter, n.Schema, b.e.subquery); err != nil {
			return nil, err
		}
		if it.pruner, err = compileVecPred(n.Filter, n.Schema, b.e.subquery); err != nil {
			return nil, err
		}
	}
	return it, nil
}

func (it *seqScanIter) Open() error {
	it.releaseSeg()
	it.cur = nil
	it.seg, it.pos = 0, 0
	it.tailDone, it.done = false, false
	return it.advance()
}

// releaseSeg unpins the current segment's buffer pool frame, if any.
// Handed-out rows stay valid past the release (GC holds the payload while
// referenced); only the pool's eviction eligibility changes.
func (it *seqScanIter) releaseSeg() {
	if it.curSD != nil {
		it.curSD.Release()
		it.curSD = nil
	}
}

// advance moves to the next run of rows: the next sealed segment surviving
// zone-map pruning, then the tail, then end-of-stream. Pruning reads only
// resident zone maps; surviving segments fault their payload in through
// the buffer pool, so a pruned segment costs zero I/O.
func (it *seqScanIter) advance() error {
	it.releaseSeg()
	segs := it.snap.Segments()
	for it.seg < len(segs) {
		s := segs[it.seg]
		it.seg++
		if it.prune && it.pruner != nil && segPruned(it.pruner, s) {
			it.noteSeg(true)
			continue
		}
		it.noteSeg(false)
		sd, err := s.Load()
		if err != nil {
			it.done = true
			return err
		}
		it.curSD, it.cur, it.pos = sd, sd.Rows(), 0
		return nil
	}
	if !it.tailDone {
		it.tailDone = true
		it.cur, it.pos = it.snap.Tail(), 0
		return nil
	}
	it.done = true
	return nil
}

// noteSeg records segment accounting. The row pipeline is serial, so plain
// increments suffice.
func (it *seqScanIter) noteSeg(pruned bool) {
	if it.st == nil {
		return
	}
	if pruned {
		it.st.SegsPruned++
	} else {
		it.st.SegsScanned++
	}
}

func (it *seqScanIter) Next() (storage.Row, bool, error) {
	for !it.done {
		if it.pos >= len(it.cur) {
			if err := it.advance(); err != nil {
				return nil, false, err
			}
			continue
		}
		r := it.cur[it.pos]
		it.pos++
		if it.filter == nil {
			return r, true, nil
		}
		it.env.left = r
		v, err := it.filter(&it.env)
		if err != nil {
			return nil, false, err
		}
		if truthy(v) {
			return r, true, nil
		}
	}
	return nil, false, nil
}

func (it *seqScanIter) Close() error {
	it.releaseSeg()
	return nil
}

type indexScanIter struct {
	eng     *Engine
	n       *Node
	snap    storage.Snapshot
	recheck boundExpr // index condition ∧ residual filter
	env     rowEnv
	ids     []int
	pos     int
}

func (b *ibuild) newIndexScanIter(n *Node) (*indexScanIter, error) {
	if _, err := b.e.Cat.Table(n.Relation); err != nil {
		return nil, err
	}
	// Re-check the full index condition alongside the residual filter
	// (cheap, and keeps multi-conjunct conditions exact when the scan
	// bounds only captured part of them) — mirrors the reference executor.
	combined := sqlparser.JoinConjuncts(append(sqlparser.SplitConjuncts(n.IndexCond), sqlparser.SplitConjuncts(n.Filter)...))
	it := &indexScanIter{eng: b.e, n: n}
	if combined != nil {
		var err error
		if it.recheck, err = bindExpr(combined, n.Schema, b.e.subquery); err != nil {
			return nil, err
		}
	}
	return it, nil
}

func (it *indexScanIter) Open() error {
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

func (it *indexScanIter) Next() (storage.Row, bool, error) {
	for it.pos < len(it.ids) {
		r, err := it.snap.FetchRow(it.ids[it.pos])
		if err != nil {
			return nil, false, err
		}
		it.pos++
		if it.recheck == nil {
			return r, true, nil
		}
		it.env.left = r
		v, err := it.recheck(&it.env)
		if err != nil {
			return nil, false, err
		}
		if truthy(v) {
			return r, true, nil
		}
	}
	return nil, false, nil
}

func (it *indexScanIter) Close() error { return nil }

// --- Limit -----------------------------------------------------------------

// limitIter implements LIMIT/OFFSET by counting rows pulled from its child;
// once limit rows are emitted it stops pulling, short-circuiting the whole
// subtree below it.
type limitIter struct {
	child            rowIter
	limit, offset    int64 // limit < 0 means unbounded (OFFSET-only)
	skipped, emitted int64
}

func (it *limitIter) Open() error {
	it.skipped, it.emitted = 0, 0
	return it.child.Open()
}

func (it *limitIter) Next() (storage.Row, bool, error) {
	if it.limit >= 0 && it.emitted >= it.limit {
		return nil, false, nil
	}
	for {
		r, ok, err := it.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if it.skipped < it.offset {
			it.skipped++
			continue
		}
		it.emitted++
		return r, true, nil
	}
}

func (it *limitIter) Close() error { return it.child.Close() }

// --- Hash join -------------------------------------------------------------

// hashJoinIter materializes the build side once at Open, caching the
// evaluated join-key datums per build row in a flat arena so the
// hash-collision recheck is a pure datum comparison (no expression
// re-evaluation per probe×build pair). The probe side streams: each probe
// row's keys are evaluated once into a reusable buffer, and candidate
// pairs are checked through a two-part rowEnv so the joined row is only
// allocated for pairs that survive key, residual and filter checks.
type hashJoinIter struct {
	probe, build rowIter
	probeKeys    []boundExpr
	buildKeys    []boundExpr
	nKeys        int
	residual     boundExpr // pair-bound residual join condition
	outFilter    boundExpr // pair-bound post-join filter (n.Filter)
	leftOuter    bool
	nullsRight   storage.Row

	entries  []storage.Row
	keyArena []datum.D // len(entries)*nKeys, parallel to entries
	table    map[uint64][]int32

	env         rowEnv
	probeRow    storage.Row
	probeKeyBuf []datum.D
	bucket      []int32
	bi          int
	matched     bool
}

func (b *ibuild) newHashJoinIter(n *Node) (*hashJoinIter, error) {
	probeNode, hashNode := n.Children[0], n.Children[1]
	probeKeyExprs, buildKeyExprs, residual := joinKeyPairs(n.JoinCond, probeNode.Schema, hashNode.Schema)
	if len(probeKeyExprs) == 0 {
		return nil, fmt.Errorf("engine: hash join without equi-condition")
	}
	it := &hashJoinIter{
		nKeys:     len(probeKeyExprs),
		leftOuter: n.JoinType == sqlparser.LeftJoin,
	}
	var err error
	if it.probe, err = b.build(probeNode); err != nil {
		return nil, err
	}
	if it.build, err = b.build(hashNode); err != nil {
		return nil, err
	}
	if it.probeKeys, err = bindExprs(probeKeyExprs, probeNode.Schema, b.e.subquery); err != nil {
		return nil, err
	}
	if it.buildKeys, err = bindExprs(buildKeyExprs, hashNode.Schema, b.e.subquery); err != nil {
		return nil, err
	}
	// n.Schema is always probe schema followed by build schema (see
	// planner buildJoin), so pair binding matches the output row layout.
	if cond := sqlparser.JoinConjuncts(residual); cond != nil {
		if it.residual, err = bindPairExpr(cond, probeNode.Schema, hashNode.Schema, b.e.subquery); err != nil {
			return nil, err
		}
	}
	if n.Filter != nil {
		if it.outFilter, err = bindPairExpr(n.Filter, probeNode.Schema, hashNode.Schema, b.e.subquery); err != nil {
			return nil, err
		}
	}
	it.nullsRight = make(storage.Row, len(hashNode.Schema))
	for i := range it.nullsRight {
		it.nullsRight[i] = datum.Null
	}
	it.probeKeyBuf = make([]datum.D, it.nKeys)
	return it, nil
}

func (it *hashJoinIter) Open() error {
	if err := it.build.Open(); err != nil {
		return err
	}
	it.entries = it.entries[:0]
	it.keyArena = it.keyArena[:0]
	it.table = make(map[uint64][]int32)
	var env rowEnv
	for {
		r, ok, err := it.build.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		env.left = r
		h := uint64(1469598103934665603)
		null := false
		off := len(it.keyArena)
		for _, k := range it.buildKeys {
			v, err := k(&env)
			if err != nil {
				return err
			}
			if v.IsNull() {
				null = true
				break
			}
			it.keyArena = append(it.keyArena, v)
			h = h*1099511628211 ^ v.Hash()
		}
		if null {
			it.keyArena = it.keyArena[:off] // NULL keys never match
			continue
		}
		it.table[h] = append(it.table[h], int32(len(it.entries)))
		it.entries = append(it.entries, r)
	}
	it.probeRow, it.bucket, it.bi = nil, nil, 0
	return it.probe.Open()
}

func (it *hashJoinIter) Next() (storage.Row, bool, error) {
	for {
		if it.probeRow == nil {
			r, ok, err := it.probe.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			it.probeRow = r
			it.matched = false
			it.bucket, it.bi = nil, 0
			it.env.left = r
			h := uint64(1469598103934665603)
			null := false
			for i, k := range it.probeKeys {
				v, err := k(&it.env)
				if err != nil {
					return nil, false, err
				}
				if v.IsNull() {
					null = true
					break
				}
				it.probeKeyBuf[i] = v
				h = h*1099511628211 ^ v.Hash()
			}
			if !null {
				it.bucket = it.table[h]
			}
		}
		it.env.left = it.probeRow
		for it.bi < len(it.bucket) {
			idx := it.bucket[it.bi]
			it.bi++
			off := int(idx) * it.nKeys
			if !datumsEqual(it.probeKeyBuf, it.keyArena[off:off+it.nKeys]) {
				continue // hash collision
			}
			br := it.entries[idx]
			it.env.right = br
			if it.residual != nil {
				v, err := it.residual(&it.env)
				if err != nil {
					return nil, false, err
				}
				if !truthy(v) {
					continue
				}
			}
			// The ON condition (keys + residual) alone decides matched:
			// the pushed-down WHERE filter only gates emission, exactly as
			// the reference executor applies it after null-extension.
			it.matched = true
			if it.outFilter != nil {
				v, err := it.outFilter(&it.env)
				if err != nil {
					return nil, false, err
				}
				if !truthy(v) {
					continue
				}
			}
			return concatRows(it.probeRow, br), true, nil
		}
		pr := it.probeRow
		it.probeRow = nil
		if it.leftOuter && !it.matched {
			it.env.left, it.env.right = pr, it.nullsRight
			if it.outFilter != nil {
				v, err := it.outFilter(&it.env)
				if err != nil {
					return nil, false, err
				}
				if !truthy(v) {
					continue
				}
			}
			return concatRows(pr, it.nullsRight), true, nil
		}
	}
}

func (it *hashJoinIter) Close() error {
	err := it.probe.Close()
	if err2 := it.build.Close(); err == nil {
		err = err2
	}
	return err
}

func datumsEqual(a, b []datum.D) bool {
	for i := range a {
		if !datum.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// rowArena packs row-pipeline join output into flat datum chunks — one
// chunk allocation per ~batchSize emitted rows instead of one allocation
// per row (the row-at-a-time analogue of the batch writer's arena). Chunks
// are never reused: each emitted row is a three-index subslice of its
// chunk, so consumers may retain it forever, exactly like a concatRows
// allocation.
type rowArena struct {
	buf []datum.D
}

func (a *rowArena) concat(l, r storage.Row) storage.Row {
	need := len(l) + len(r)
	if cap(a.buf)-len(a.buf) < need {
		a.buf = make([]datum.D, 0, batchSize*need)
	}
	n := len(a.buf)
	a.buf = append(a.buf, l...)
	a.buf = append(a.buf, r...)
	return storage.Row(a.buf[n:len(a.buf):len(a.buf)])
}

// --- Nested loop -----------------------------------------------------------

// nestedLoopIter streams the outer side and materializes the inner side
// once at Open (it must be rescanned per outer row). The join condition and
// post-join filter evaluate through a two-part rowEnv, so non-matching
// pairs cost zero allocations — the joined row is only built on emission.
type nestedLoopIter struct {
	outer, innerSrc rowIter
	inner           []storage.Row
	cond, outFilter boundExpr // pair-bound
	leftOuter       bool
	nullsInner      storage.Row

	env      rowEnv
	out      rowArena
	outerRow storage.Row
	ii       int
	matched  bool
}

func (b *ibuild) newNestedLoopIter(n *Node) (*nestedLoopIter, error) {
	outerNode, innerNode := n.Children[0], n.Children[1]
	it := &nestedLoopIter{leftOuter: n.JoinType == sqlparser.LeftJoin}
	var err error
	if it.outer, err = b.build(outerNode); err != nil {
		return nil, err
	}
	if it.innerSrc, err = b.build(innerNode); err != nil {
		return nil, err
	}
	if n.JoinCond != nil {
		if it.cond, err = bindPairExpr(n.JoinCond, outerNode.Schema, innerNode.Schema, b.e.subquery); err != nil {
			return nil, err
		}
	}
	if n.Filter != nil {
		if it.outFilter, err = bindPairExpr(n.Filter, outerNode.Schema, innerNode.Schema, b.e.subquery); err != nil {
			return nil, err
		}
	}
	it.nullsInner = make(storage.Row, len(innerNode.Schema))
	for i := range it.nullsInner {
		it.nullsInner[i] = datum.Null
	}
	return it, nil
}

func (it *nestedLoopIter) Open() error {
	if err := it.innerSrc.Open(); err != nil {
		return err
	}
	it.inner = it.inner[:0]
	for {
		r, ok, err := it.innerSrc.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		it.inner = append(it.inner, r)
	}
	it.outerRow, it.ii = nil, 0
	return it.outer.Open()
}

func (it *nestedLoopIter) Next() (storage.Row, bool, error) {
	for {
		if it.outerRow == nil {
			r, ok, err := it.outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			it.outerRow, it.ii, it.matched = r, 0, false
		}
		it.env.left = it.outerRow
		for it.ii < len(it.inner) {
			ir := it.inner[it.ii]
			it.ii++
			it.env.right = ir
			if it.cond != nil {
				v, err := it.cond(&it.env)
				if err != nil {
					return nil, false, err
				}
				if !truthy(v) {
					continue
				}
			}
			// ON condition alone decides matched; the WHERE filter only
			// gates emission (reference applies it after null-extension).
			it.matched = true
			if it.outFilter != nil {
				v, err := it.outFilter(&it.env)
				if err != nil {
					return nil, false, err
				}
				if !truthy(v) {
					continue
				}
			}
			return it.out.concat(it.outerRow, ir), true, nil
		}
		or := it.outerRow
		it.outerRow = nil
		if it.leftOuter && !it.matched {
			it.env.left, it.env.right = or, it.nullsInner
			if it.outFilter != nil {
				v, err := it.outFilter(&it.env)
				if err != nil {
					return nil, false, err
				}
				if !truthy(v) {
					continue
				}
			}
			return it.out.concat(or, it.nullsInner), true, nil
		}
	}
}

func (it *nestedLoopIter) Close() error {
	err := it.outer.Close()
	if err2 := it.innerSrc.Close(); err == nil {
		err = err2
	}
	return err
}

// --- Merge join ------------------------------------------------------------

// mergeJoinIter materializes both (sorted) inputs at Open and evaluates the
// join keys once per row into flat arenas, so the merge itself is pure
// datum comparison — the reference path re-evaluates key expressions on
// every advance. Equal-key groups are emitted pairwise without buffering
// the cross product.
type mergeJoinIter struct {
	left, right  rowIter
	lKeyExprs    []boundExpr
	rKeyExprs    []boundExpr
	nKeys        int
	residual     boundExpr // pair-bound
	outFilter    boundExpr // pair-bound
	lEst, rEst   int       // planner cardinality estimates, for preallocation
	lRows, rRows []storage.Row
	lKeys, rKeys []datum.D
	li, ri       int // next ungrouped positions
	lEnd, rEnd   int // current group bounds
	a, b         int // cross-product cursors
	inGroup      bool
	env          rowEnv
	out          rowArena
}

func (b *ibuild) newMergeJoinIter(n *Node) (*mergeJoinIter, error) {
	leftNode, rightNode := n.Children[0], n.Children[1]
	lKeyExprs, rKeyExprs, residual := joinKeyPairs(n.JoinCond, leftNode.Schema, rightNode.Schema)
	if len(lKeyExprs) == 0 {
		return nil, fmt.Errorf("engine: merge join without equi-condition")
	}
	it := &mergeJoinIter{
		nKeys: len(lKeyExprs),
		lEst:  estCap(leftNode.EstRows),
		rEst:  estCap(rightNode.EstRows),
	}
	var err error
	if it.left, err = b.build(leftNode); err != nil {
		return nil, err
	}
	if it.right, err = b.build(rightNode); err != nil {
		return nil, err
	}
	if it.lKeyExprs, err = bindExprs(lKeyExprs, leftNode.Schema, b.e.subquery); err != nil {
		return nil, err
	}
	if it.rKeyExprs, err = bindExprs(rKeyExprs, rightNode.Schema, b.e.subquery); err != nil {
		return nil, err
	}
	if cond := sqlparser.JoinConjuncts(residual); cond != nil {
		if it.residual, err = bindPairExpr(cond, leftNode.Schema, rightNode.Schema, b.e.subquery); err != nil {
			return nil, err
		}
	}
	if n.Filter != nil {
		if it.outFilter, err = bindPairExpr(n.Filter, leftNode.Schema, rightNode.Schema, b.e.subquery); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// drainKeyed materializes an already-opened child and its per-row key
// datums.
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

func drainKeyed(child rowIter, keys []boundExpr, est int) ([]storage.Row, []datum.D, error) {
	rows := make([]storage.Row, 0, est)
	arena := make([]datum.D, 0, est*len(keys))
	var env rowEnv
	for {
		r, ok, err := child.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return rows, arena, nil
		}
		env.left = r
		for _, k := range keys {
			v, err := k(&env)
			if err != nil {
				return nil, nil, err
			}
			arena = append(arena, v)
		}
		rows = append(rows, r)
	}
}

func (it *mergeJoinIter) Open() error {
	var err error
	if err = it.left.Open(); err != nil {
		return err
	}
	if it.lRows, it.lKeys, err = drainKeyed(it.left, it.lKeyExprs, it.lEst); err != nil {
		return err
	}
	if err = it.right.Open(); err != nil {
		return err
	}
	if it.rRows, it.rKeys, err = drainKeyed(it.right, it.rKeyExprs, it.rEst); err != nil {
		return err
	}
	it.li, it.ri, it.inGroup = 0, 0, false
	return nil
}

func (it *mergeJoinIter) key(arena []datum.D, i int) []datum.D {
	return arena[i*it.nKeys : (i+1)*it.nKeys]
}

func keyHasNull(k []datum.D) bool {
	for _, v := range k {
		if v.IsNull() {
			return true
		}
	}
	return false
}

func compareKeys(a, b []datum.D) int {
	for i := range a {
		if c := datum.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// advance finds the next equal-key group; reports false when either input
// is exhausted.
func (it *mergeJoinIter) advance() bool {
	for it.li < len(it.lRows) && it.ri < len(it.rRows) {
		lk := it.key(it.lKeys, it.li)
		if keyHasNull(lk) {
			it.li++
			continue
		}
		rk := it.key(it.rKeys, it.ri)
		if keyHasNull(rk) {
			it.ri++
			continue
		}
		c := compareKeys(lk, rk)
		if c < 0 {
			it.li++
			continue
		}
		if c > 0 {
			it.ri++
			continue
		}
		it.lEnd = it.li + 1
		for it.lEnd < len(it.lRows) && compareKeys(it.key(it.lKeys, it.lEnd), lk) == 0 {
			it.lEnd++
		}
		it.rEnd = it.ri + 1
		for it.rEnd < len(it.rRows) && compareKeys(it.key(it.rKeys, it.rEnd), rk) == 0 {
			it.rEnd++
		}
		it.a, it.b = it.li, it.ri
		it.inGroup = true
		return true
	}
	return false
}

func (it *mergeJoinIter) Next() (storage.Row, bool, error) {
	for {
		if !it.inGroup {
			if !it.advance() {
				return nil, false, nil
			}
		}
		for it.a < it.lEnd {
			for it.b < it.rEnd {
				lr, rr := it.lRows[it.a], it.rRows[it.b]
				it.b++
				it.env.left, it.env.right = lr, rr
				if it.residual != nil {
					v, err := it.residual(&it.env)
					if err != nil {
						return nil, false, err
					}
					if !truthy(v) {
						continue
					}
				}
				if it.outFilter != nil {
					v, err := it.outFilter(&it.env)
					if err != nil {
						return nil, false, err
					}
					if !truthy(v) {
						continue
					}
				}
				return it.out.concat(lr, rr), true, nil
			}
			it.a++
			it.b = it.ri
		}
		it.li, it.ri = it.lEnd, it.rEnd
		it.inGroup = false
	}
}

func (it *mergeJoinIter) Close() error {
	err := it.left.Close()
	if err2 := it.right.Close(); err == nil {
		err = err2
	}
	return err
}

// --- Sort / top-K -----------------------------------------------------------

// sortIter materializes and sorts its input at Open. When the planner set
// SortLimit (a Sort feeding a Limit), it keeps a bounded top-K heap instead
// of buffering and sorting everything; sequence numbers break ties so the
// result is identical to a stable full sort followed by truncation.
type sortIter struct {
	child rowIter
	keys  []boundExpr
	desc  []bool
	topK  int64 // 0 = full sort
	est   int   // planner cardinality estimate, for preallocation
	out   []storage.Row
	pos   int
}

func (b *ibuild) newSortIter(n *Node) (*sortIter, error) {
	it := &sortIter{topK: n.SortLimit, est: estCap(n.EstRows)}
	var err error
	if it.child, err = b.build(n.Children[0]); err != nil {
		return nil, err
	}
	exprs := make([]sqlparser.Expr, len(n.SortKeys))
	it.desc = make([]bool, len(n.SortKeys))
	for i, k := range n.SortKeys {
		exprs[i] = k.Expr
		it.desc[i] = k.Desc
	}
	if it.keys, err = bindExprs(exprs, n.Children[0].Schema, b.e.subquery); err != nil {
		return nil, err
	}
	return it, nil
}

func (it *sortIter) Open() error {
	if err := it.child.Open(); err != nil {
		return err
	}
	it.pos = 0
	if it.topK > 0 {
		return it.openTopK()
	}
	rows, arena, err := drainKeyed(it.child, it.keys, it.est)
	if err != nil {
		return err
	}
	nKeys := len(it.keys)
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		a, b := idx[x], idx[y]
		for j := 0; j < nKeys; j++ {
			c := datum.Compare(arena[a*nKeys+j], arena[b*nKeys+j])
			if it.desc[j] {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	it.out = make([]storage.Row, len(rows))
	for i, j := range idx {
		it.out[i] = rows[j]
	}
	return nil
}

func (it *sortIter) openTopK() error {
	h := newTopKHeap(int(it.topK), len(it.keys), it.desc)
	scratch := make([]datum.D, len(it.keys))
	var env rowEnv
	for {
		r, ok, err := it.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		env.left = r
		for i, k := range it.keys {
			v, err := k(&env)
			if err != nil {
				return err
			}
			scratch[i] = v
		}
		h.push(r, scratch)
	}
	it.out = h.finish()
	return nil
}

func (it *sortIter) Next() (storage.Row, bool, error) {
	if it.pos >= len(it.out) {
		return nil, false, nil
	}
	r := it.out[it.pos]
	it.pos++
	return r, true, nil
}

func (it *sortIter) Close() error { return it.child.Close() }

// topKHeap retains the K rows that order first, as a max-heap keyed on
// (sort keys, arrival sequence): the root is the row that orders last among
// those retained, so a new row either displaces the root in place or is
// dropped — zero allocations per row once the heap is full. The sequence
// tiebreak makes the selection and final order exactly equal to a stable
// full sort truncated to K.
type topKHeap struct {
	k, nKeys int
	desc     []bool
	rows     []storage.Row
	keys     []datum.D // slot-major arena, nKeys per slot
	seqs     []int64
	order    []int32 // heap of slot indices
	next     int64   // arrival counter
}

func newTopKHeap(k, nKeys int, desc []bool) *topKHeap {
	// k comes from a user-supplied LIMIT and may vastly exceed the input
	// size; cap the initial capacity and let append grow the slices, so a
	// huge LIMIT costs memory proportional to the actual input.
	hint := k
	if hint > 1024 {
		hint = 1024
	}
	return &topKHeap{
		k: k, nKeys: nKeys, desc: desc,
		rows:  make([]storage.Row, 0, hint),
		keys:  make([]datum.D, 0, hint*nKeys),
		seqs:  make([]int64, 0, hint),
		order: make([]int32, 0, hint),
	}
}

// before reports whether (keyA, seqA) orders strictly before slot y.
func (h *topKHeap) before(keyA []datum.D, seqA int64, y int32) bool {
	off := int(y) * h.nKeys
	for j := 0; j < h.nKeys; j++ {
		c := datum.Compare(keyA[j], h.keys[off+j])
		if h.desc[j] {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return seqA < h.seqs[y]
}

func (h *topKHeap) slotBefore(x, y int32) bool {
	off := int(x) * h.nKeys
	return h.before(h.keys[off:off+h.nKeys], h.seqs[x], y)
}

func (h *topKHeap) push(r storage.Row, key []datum.D) {
	seq := h.next
	h.next++
	h.pushSeq(r, key, seq)
}

// pushSeq inserts with a caller-assigned sequence. The parallel sort
// workers (parallel.go) use it to tag each row with its serial arrival
// order, so merged per-worker heaps reproduce the serial top-K exactly.
func (h *topKHeap) pushSeq(r storage.Row, key []datum.D, seq int64) {
	if h.k == 0 {
		return
	}
	if len(h.rows) < h.k {
		slot := int32(len(h.rows))
		h.rows = append(h.rows, r)
		h.keys = append(h.keys, key...)
		h.seqs = append(h.seqs, seq)
		h.order = append(h.order, slot)
		// Sift up: a child that orders after its parent rises.
		i := len(h.order) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !h.slotBefore(h.order[parent], h.order[i]) {
				break
			}
			h.order[parent], h.order[i] = h.order[i], h.order[parent]
			i = parent
		}
		return
	}
	worst := h.order[0]
	if !h.before(key, seq, worst) {
		return // orders at or after everything retained
	}
	// Displace the root in place.
	h.rows[worst] = r
	copy(h.keys[int(worst)*h.nKeys:], key)
	h.seqs[worst] = seq
	h.siftDown(0)
}

func (h *topKHeap) siftDown(i int) {
	n := len(h.order)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.slotBefore(h.order[largest], h.order[l]) {
			largest = l
		}
		if r < n && h.slotBefore(h.order[largest], h.order[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.order[i], h.order[largest] = h.order[largest], h.order[i]
		i = largest
	}
}

// finish returns the retained rows in ascending sort order.
func (h *topKHeap) finish() []storage.Row {
	sort.Slice(h.order, func(x, y int) bool { return h.slotBefore(h.order[x], h.order[y]) })
	out := make([]storage.Row, len(h.order))
	for i, slot := range h.order {
		out[i] = h.rows[slot]
	}
	return out
}

// finishRuns returns the retained rows in ascending sort order together
// with their keys (row-major) and sequences — the sorted-run form the
// parallel exchange merges across workers.
func (h *topKHeap) finishRuns() ([]storage.Row, []datum.D, []int64) {
	sort.Slice(h.order, func(x, y int) bool { return h.slotBefore(h.order[x], h.order[y]) })
	rows := make([]storage.Row, len(h.order))
	keys := make([]datum.D, 0, len(h.order)*h.nKeys)
	seqs := make([]int64, len(h.order))
	for i, slot := range h.order {
		rows[i] = h.rows[slot]
		keys = append(keys, h.keys[int(slot)*h.nKeys:(int(slot)+1)*h.nKeys]...)
		seqs[i] = h.seqs[slot]
	}
	return rows, keys, seqs
}

// --- Aggregation -----------------------------------------------------------

// aggIter computes grouped aggregation at Open (aggregation is inherently
// blocking) with pre-bound group-key and argument expressions, then streams
// the finalized group rows.
type aggIter struct {
	child     rowIter
	groupKeys []boundExpr
	aggs      []aggSpec
	aggArgs   []boundExpr // nil entry for COUNT(*)
	having    boundExpr   // bound against the aggregate output schema
	plain     bool        // no GROUP BY: empty input still yields one row
	out       []storage.Row
	pos       int
}

func (b *ibuild) newAggIter(n *Node) (*aggIter, error) {
	childSchema := n.Children[0].Schema
	it := &aggIter{aggs: n.Aggs, plain: len(n.GroupKeys) == 0}
	var err error
	if it.child, err = b.build(n.Children[0]); err != nil {
		return nil, err
	}
	if it.groupKeys, err = bindExprs(n.GroupKeys, childSchema, b.e.subquery); err != nil {
		return nil, err
	}
	it.aggArgs = make([]boundExpr, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Call.Star {
			continue
		}
		if it.aggArgs[i], err = bindExpr(a.Call.Args[0], childSchema, b.e.subquery); err != nil {
			return nil, err
		}
	}
	if n.HavingFilter != nil {
		if it.having, err = bindExpr(n.HavingFilter, n.Schema, b.e.subquery); err != nil {
			return nil, err
		}
	}
	return it, nil
}

func (it *aggIter) newStates() []aggState {
	states := make([]aggState, len(it.aggs))
	for i := range states {
		states[i] = newAggState(it.aggs[i].Call)
		if it.aggs[i].Call.Distinct {
			states[i].distinct = make(map[string]bool)
		}
	}
	return states
}

func (it *aggIter) Open() error {
	if err := it.child.Open(); err != nil {
		return err
	}
	type group struct {
		keyVals []datum.D
		states  []aggState // value slice: one allocation per group, not per agg
	}
	idx := make(map[string]int32) // encoded key → index into groups
	var groups []group
	var env rowEnv
	// The build loop is per-input-row hot: keys evaluate into a reused
	// scratch slice and encode via AppendKey into a reused byte buffer, so
	// rows of existing groups allocate nothing (the map lookup on
	// string(keyBuf) does not copy; only a new group's insert does).
	keyBuf := make([]byte, 0, 64)
	keyScratch := make([]datum.D, len(it.groupKeys))
	for {
		r, ok, err := it.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		env.left = r
		keyBuf = keyBuf[:0]
		for i, k := range it.groupKeys {
			v, err := k(&env)
			if err != nil {
				return err
			}
			keyScratch[i] = v
			keyBuf = v.AppendKey(keyBuf)
			keyBuf = append(keyBuf, 0)
		}
		gi, ok := idx[string(keyBuf)]
		if !ok {
			gi = int32(len(groups))
			groups = append(groups, group{keyVals: append([]datum.D(nil), keyScratch...), states: it.newStates()})
			idx[string(keyBuf)] = gi
		}
		g := &groups[gi] // re-taken per row: groups may have been regrown
		for i, a := range it.aggs {
			if a.Call.Star {
				g.states[i].count++
				continue
			}
			v, err := it.aggArgs[i](&env)
			if err != nil {
				return err
			}
			if err := accumulateDatum(&g.states[i], v); err != nil {
				return err
			}
		}
	}
	// Plain aggregate over an empty input still yields one row.
	if it.plain && len(groups) == 0 {
		groups = append(groups, group{states: it.newStates()})
	}
	it.out = it.out[:0]
	it.pos = 0
	for gi := range groups {
		g := &groups[gi]
		row := make(storage.Row, 0, len(g.keyVals)+len(g.states))
		row = append(row, g.keyVals...)
		for i, a := range it.aggs {
			row = append(row, finalize(&g.states[i], a.Call))
		}
		if it.having != nil {
			env.left = row
			v, err := it.having(&env)
			if err != nil {
				return err
			}
			if !truthy(v) {
				continue
			}
		}
		it.out = append(it.out, row)
	}
	return nil
}

func (it *aggIter) Next() (storage.Row, bool, error) {
	if it.pos >= len(it.out) {
		return nil, false, nil
	}
	r := it.out[it.pos]
	it.pos++
	return r, true, nil
}

func (it *aggIter) Close() error { return it.child.Close() }

// --- Unique ----------------------------------------------------------------

// uniqueIter streams its (sorted) input, emitting the first row of each
// distinct key.
type uniqueIter struct {
	child rowIter
	keys  []boundExpr
	seen  map[string]bool
	buf   []byte
	env   rowEnv
}

func (b *ibuild) newUniqueIter(n *Node) (*uniqueIter, error) {
	it := &uniqueIter{}
	var err error
	if it.child, err = b.build(n.Children[0]); err != nil {
		return nil, err
	}
	exprs := make([]sqlparser.Expr, len(n.SortKeys))
	for i, k := range n.SortKeys {
		exprs[i] = k.Expr
	}
	if it.keys, err = bindExprs(exprs, n.Children[0].Schema, b.e.subquery); err != nil {
		return nil, err
	}
	return it, nil
}

func (it *uniqueIter) Open() error {
	it.seen = make(map[string]bool)
	return it.child.Open()
}

func (it *uniqueIter) Next() (storage.Row, bool, error) {
	for {
		r, ok, err := it.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.env.left = r
		it.buf = it.buf[:0]
		for _, k := range it.keys {
			v, err := k(&it.env)
			if err != nil {
				return nil, false, err
			}
			it.buf = append(it.buf, v.String()...)
			it.buf = append(it.buf, 0)
		}
		if it.seen[string(it.buf)] {
			continue
		}
		it.seen[string(it.buf)] = true
		return r, true, nil
	}
}

func (it *uniqueIter) Close() error { return it.child.Close() }

// --- Result ----------------------------------------------------------------

// resultIter emits the single constant row of a FROM-less SELECT.
type resultIter struct {
	items []boundExpr
	row   storage.Row
	done  bool
}

func (b *ibuild) newResultIter(n *Node) (*resultIter, error) {
	it := &resultIter{items: make([]boundExpr, len(n.ResultItems))}
	for i, item := range n.ResultItems {
		bound, err := bindExpr(item.Expr, nil, b.e.subquery)
		if err != nil {
			return nil, err
		}
		it.items[i] = bound
	}
	return it, nil
}

func (it *resultIter) Open() error {
	var env rowEnv
	it.row = make(storage.Row, len(it.items))
	for i, item := range it.items {
		v, err := item(&env)
		if err != nil {
			return err
		}
		it.row[i] = v
	}
	it.done = false
	return nil
}

func (it *resultIter) Next() (storage.Row, bool, error) {
	if it.done {
		return nil, false, nil
	}
	it.done = true
	return it.row, true, nil
}

func (it *resultIter) Close() error { return nil }
