package engine

// vecjoin.go holds the batch joins. The hash join's build phase drains the
// build side batch-at-a-time into a hashTable: a keyTable of its keys and
// its rows grouped by key id. Rows with a NULL key are skipped, since they
// can never match. Join keys are always columns of their input
// (joinKeyPairs admits only cross-input column equalities), so both sides
// load key datums by ordinal. The probe phase walks each probe batch in a
// tight loop and packs each surviving row pair into batchWriter arena
// chunks — typically one or two allocations per output batch instead of
// one allocation per output row. A packed row holds only the columns of
// the join's Schema, which the planner narrows to what its consumers read:
// it is gathered from the pair through one ordinal list per side, resolved
// when the join is built (gatherFor). The residual and the filter read
// the pair itself, bound against the two inputs' schemas side by side, so
// a column only they read is never packed. NULL semantics are
// identical on both sides: a probe row with any NULL key component matches
// nothing (and, for LEFT JOIN, flows to the null-extension path), and
// `matched` is decided by the ON condition (keys + residual) alone — the
// pushed-down WHERE filter only gates emission, after null-extension,
// exactly as the reference executor applies it.
//
// A Nested Loop is the keyless hash join: no keys are extracted from its
// condition, every inner (build) row has the one empty key, in inner
// order, and the whole JoinCond is the residual. Each outer row is
// therefore checked against every inner row in order, the inner side is
// materialized once, and the output order and match semantics are the
// nested-loop algorithm's.
//
// The merge join drains both (sorted) inputs at Open with their key datums
// loaded once into flat arenas, so the merge itself is pure datum
// comparison, and emits equal-key groups pairwise through a batchWriter,
// resuming mid-group when a batch fills. The parallel exchange's worker
// clones of a hash join (parallel.go) build the same shell, and with it
// the same gather.

import (
	"fmt"
	"slices"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

type hashJoinVec struct {
	probe vecIter
	build vecIter // nil in a parallel worker's clone, which probes a shared ht

	// Key ordinals in the probe and build rows; nil in a nested loop,
	// which has no keys.
	probeKeyOrds []int
	buildKeyOrds []int

	residual   boundExpr // pair-bound residual join condition
	outFilter  boundExpr // pair-bound post-join filter (n.Filter)
	leftOuter  bool
	nullsRight storage.Row

	ht *hashTable

	w      batchWriter
	est    int // planner's output estimate, clamped; seeds w.left at Open
	env    rowEnv
	keyBuf []datum.D

	// Probe cursor, preserved across NextBatch calls when the output batch
	// fills mid-match.
	curBatch []storage.Row
	pi       int
	probeRow storage.Row
	matches  []storage.Row // the build rows of the probe row's key
	bi       int
	matched  bool
	probing  bool
}

// hashTable is a hash join's build side: the keys of the build rows
// without a NULL key, and those rows, key id k's in build order at
// rows[start[k]:start[k+1]].
type hashTable struct {
	keys  keyTable
	rows  []storage.Row
	start []int32
}

// fill opens src and drains it into t, keyed by the columns at ords. It is
// the one build loop: a serial hash join fills its own table at Open, and
// the parallel exchange fills each driver-spine join's shared table. The
// table is sized once for the drained rows, so a build allocates as often
// for one distinct key as for a key per row.
func (t *hashTable) fill(src vecIter, ords []int) error {
	if err := src.Open(); err != nil {
		return err
	}
	keyBuf := make([]datum.D, len(ords))
	var drained []storage.Row
	var hashes []uint64
	for {
		b, err := src.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, r := range b {
			h, null := hashRowKeys(r, ords, keyBuf)
			if null {
				continue // NULL keys never match
			}
			drained = append(drained, r)
			hashes = append(hashes, h)
		}
	}
	capacity := len(drained) // each row's key may be distinct,
	if len(ords) == 0 {
		capacity = 1 // but a nested loop's rows share the empty key
	}
	t.keys.reset(len(ords), capacity)
	ids := make([]int32, len(drained))
	for i, r := range drained {
		hashRowKeys(r, ords, keyBuf)
		ids[i], _ = t.keys.insert(keyBuf, hashes[i])
	}
	// Group the rows by key id, keeping build order within each id: count,
	// then place each row at its id's next free slot.
	t.start = make([]int32, len(t.keys.chain)+1)
	for _, id := range ids {
		t.start[id+1]++
	}
	for k := 1; k < len(t.start); k++ {
		t.start[k] += t.start[k-1]
	}
	t.rows = make([]storage.Row, len(drained))
	for i, id := range ids {
		t.rows[t.start[id]] = drained[i]
		t.start[id]++
	}
	copy(t.start[1:], t.start)
	t.start[0] = 0
	return nil
}

func (v *vbuild) newHashJoinVec(n *Node) (*hashJoinVec, error) {
	it, err := v.hashJoinShell(n)
	if err != nil {
		return nil, err
	}
	it.ht = new(hashTable)
	if it.probe, err = v.build(n.Children[0]); err != nil {
		return nil, err
	}
	if it.build, err = v.build(n.Children[1]); err != nil {
		return nil, err
	}
	return it, nil
}

// hashJoinShell builds everything of a hashJoinVec except its inputs and
// table: key ordinals for both sides, residual and post-join filter
// binds, and the output writer. The serial constructor attaches probe and
// build children and a table of its own; the parallel exchange attaches a
// per-worker probe clone and a shared table instead.
//
// A Nested Loop (OpNestedLoop) gets no keys and its whole JoinCond as the
// residual.
func (v *vbuild) hashJoinShell(n *Node) (*hashJoinVec, error) {
	probeNode, hashNode := n.Children[0], n.Children[1]
	it := &hashJoinVec{leftOuter: n.JoinType == sqlparser.LeftJoin}
	cond := n.JoinCond
	var err error
	if n.Op == OpHashJoin {
		probeKeyExprs, buildKeyExprs, residual := joinKeyPairs(n.JoinCond, probeNode.Schema, hashNode.Schema)
		if len(probeKeyExprs) == 0 {
			return nil, fmt.Errorf("engine: hash join without equi-condition")
		}
		if it.probeKeyOrds, err = joinKeyOrdinals(probeKeyExprs, probeNode.Schema); err != nil {
			return nil, err
		}
		if it.buildKeyOrds, err = joinKeyOrdinals(buildKeyExprs, hashNode.Schema); err != nil {
			return nil, err
		}
		cond = sqlparser.JoinConjuncts(residual)
	}
	if cond != nil {
		if it.residual, err = bindPairExpr(cond, probeNode.Schema, hashNode.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	if n.Filter != nil {
		if it.outFilter, err = bindPairExpr(n.Filter, probeNode.Schema, hashNode.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	it.nullsRight = make(storage.Row, len(hashNode.Schema))
	for i := range it.nullsRight {
		it.nullsRight[i] = datum.Null
	}
	it.keyBuf = make([]datum.D, len(it.probeKeyOrds))
	if err := it.w.gatherFor(n); err != nil {
		return nil, err
	}
	it.est = estCap(n.EstRows)
	return it, nil
}

// gatherFor sets w up to pack join n's output rows: for each column of
// n.Schema, where it sits in the left input's Schema or in the right
// input's. The planner narrows n.Schema by dropping columns of its inputs'
// side by side, so the left input's columns come first.
func (w *batchWriter) gatherFor(n *Node) error {
	left, right := n.Children[0].Schema, n.Children[1].Schema
	ords := make([]int, len(n.Schema))
	split := 0
	for j, c := range n.Schema {
		if i := slices.Index(left, c); i >= 0 && split == j {
			ords[j], split = i, j+1
		} else if ords[j] = slices.Index(right, c); ords[j] < 0 {
			return fmt.Errorf("engine: %s output column %s.%s is not in its inputs in order", n.Op.Name(), c.Qual, c.Name)
		}
	}
	w.lOrds, w.rOrds, w.width = ords[:split], ords[split:], len(ords)
	return nil
}

// joinKeyOrdinals resolves join keys to ordinals of schema. joinKeyPairs
// admits only columns found in the input, so a key fails to resolve only
// when its name is ambiguous there, with resolve's error.
func joinKeyOrdinals(keys []sqlparser.Expr, schema []colRef) ([]int, error) {
	ords := make([]int, len(keys))
	for i, k := range keys {
		ord, err := resolve(schema, k.(*sqlparser.ColumnRef))
		if err != nil {
			return nil, err
		}
		ords[i] = ord
	}
	return ords, nil
}

// hashRowKeys loads r's key datums at ords into dst (which must hold
// len(ords)), returning their hashKey and whether any component was NULL
// (in which case dst is partial and the row can never match). With no
// keys every row has the one empty key of a nested loop.
func hashRowKeys(r storage.Row, ords []int, dst []datum.D) (uint64, bool) {
	for i, ord := range ords {
		if dst[i] = r[ord]; dst[i].IsNull() {
			return 0, true
		}
	}
	return hashKey(dst), false
}

// Open fills the join's own table from the build side, unless it probes
// a table the parallel exchange shares, and opens the probe side.
func (it *hashJoinVec) Open() error {
	if it.build != nil {
		if err := it.ht.fill(it.build, it.buildKeyOrds); err != nil {
			return err
		}
	}
	it.w.left = it.est
	it.curBatch, it.pi = nil, 0
	it.probeRow, it.matches, it.bi = nil, nil, 0
	it.probing = false
	return it.probe.Open()
}

func (it *hashJoinVec) NextBatch() ([]storage.Row, error) {
	it.w.reset()
	for {
		if !it.probing {
			if it.pi >= len(it.curBatch) {
				b, err := it.probe.NextBatch()
				if err != nil {
					return nil, err
				}
				if b == nil {
					if len(it.w.rows) > 0 {
						return it.w.rows, nil
					}
					return nil, nil
				}
				it.curBatch, it.pi = b, 0
				// Size the (not-yet-allocated) output arena for roughly one
				// output row per probe row; duplicate build keys spill into
				// a second chunk.
				if it.w.arena == nil {
					it.w.hint = len(b)
				}
				continue
			}
			r := it.curBatch[it.pi]
			it.pi++
			it.probeRow = r
			it.matched = false
			it.matches, it.bi = nil, 0
			if h, null := hashRowKeys(r, it.probeKeyOrds, it.keyBuf); !null {
				if id := it.ht.keys.find(it.keyBuf, h); id >= 0 {
					it.matches = it.ht.rows[it.ht.start[id]:it.ht.start[id+1]]
				}
			}
			it.probing = true
		}
		it.env.left = it.probeRow
		for it.bi < len(it.matches) {
			br := it.matches[it.bi]
			it.bi++
			it.env.right = br
			if it.residual != nil {
				v, err := it.residual(&it.env)
				if err != nil {
					return nil, err
				}
				if !truthy(v) {
					continue
				}
			}
			it.matched = true
			if it.outFilter != nil {
				v, err := it.outFilter(&it.env)
				if err != nil {
					return nil, err
				}
				if !truthy(v) {
					continue
				}
			}
			it.w.appendGather(it.probeRow, br)
			if it.w.full() {
				return it.w.rows, nil // resume mid-match next call
			}
		}
		pr := it.probeRow
		it.probing = false
		if it.leftOuter && !it.matched {
			it.env.left, it.env.right = pr, it.nullsRight
			if it.outFilter != nil {
				v, err := it.outFilter(&it.env)
				if err != nil {
					return nil, err
				}
				if !truthy(v) {
					continue
				}
			}
			it.w.appendGather(pr, it.nullsRight)
			if it.w.full() {
				return it.w.rows, nil
			}
		}
	}
}

func (it *hashJoinVec) Close() error {
	err := it.probe.Close()
	if it.build != nil {
		if err2 := it.build.Close(); err == nil {
			err = err2
		}
	}
	return err
}

// --- Merge join -------------------------------------------------------------

type mergeJoinVec struct {
	left, right        vecIter
	lKeyOrds, rKeyOrds []int
	nKeys              int
	residual           boundExpr // pair-bound
	outFilter          boundExpr // pair-bound
	lEst, rEst         int       // planner cardinality estimates, for preallocation
	est                int       // planner's output estimate, clamped; seeds w.left at Open

	lRows, rRows []storage.Row
	lKeys, rKeys []datum.D
	li, ri       int // next ungrouped positions
	lEnd, rEnd   int // current group bounds
	a, b         int // cross-product cursors, preserved when a batch fills mid-group
	inGroup      bool
	env          rowEnv
	w            batchWriter
}

func (v *vbuild) newMergeJoinVec(n *Node) (*mergeJoinVec, error) {
	leftNode, rightNode := n.Children[0], n.Children[1]
	lKeyExprs, rKeyExprs, residual := joinKeyPairs(n.JoinCond, leftNode.Schema, rightNode.Schema)
	if len(lKeyExprs) == 0 {
		return nil, fmt.Errorf("engine: merge join without equi-condition")
	}
	it := &mergeJoinVec{
		nKeys: len(lKeyExprs),
		lEst:  estCap(leftNode.EstRows),
		rEst:  estCap(rightNode.EstRows),
		est:   estCap(n.EstRows),
	}
	if err := it.w.gatherFor(n); err != nil {
		return nil, err
	}
	var err error
	if it.left, err = v.build(leftNode); err != nil {
		return nil, err
	}
	if it.right, err = v.build(rightNode); err != nil {
		return nil, err
	}
	if it.lKeyOrds, err = joinKeyOrdinals(lKeyExprs, leftNode.Schema); err != nil {
		return nil, err
	}
	if it.rKeyOrds, err = joinKeyOrdinals(rKeyExprs, rightNode.Schema); err != nil {
		return nil, err
	}
	if cond := sqlparser.JoinConjuncts(residual); cond != nil {
		if it.residual, err = bindPairExpr(cond, leftNode.Schema, rightNode.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	if n.Filter != nil {
		if it.outFilter, err = bindPairExpr(n.Filter, leftNode.Schema, rightNode.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// drainKeyed opens child and materializes its rows and their key datums,
// loaded from the columns at ords.
func drainKeyed(child vecIter, ords []int, est int) ([]storage.Row, []datum.D, error) {
	if err := child.Open(); err != nil {
		return nil, nil, err
	}
	rows := make([]storage.Row, 0, est)
	arena := make([]datum.D, 0, est*len(ords))
	for {
		b, err := child.NextBatch()
		if err != nil {
			return nil, nil, err
		}
		if b == nil {
			return rows, arena, nil
		}
		for _, r := range b {
			for _, o := range ords {
				arena = append(arena, r[o])
			}
		}
		rows = append(rows, b...)
	}
}

func (it *mergeJoinVec) Open() error {
	var err error
	if it.lRows, it.lKeys, err = drainKeyed(it.left, it.lKeyOrds, it.lEst); err != nil {
		return err
	}
	if it.rRows, it.rKeys, err = drainKeyed(it.right, it.rKeyOrds, it.rEst); err != nil {
		return err
	}
	it.li, it.ri, it.inGroup = 0, 0, false
	it.w.left = it.est
	return nil
}

func (it *mergeJoinVec) key(arena []datum.D, i int) []datum.D {
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

// compareKeys orders a against the key b starts with, by datum.Compare of
// each component. Datums of one kind and payload are identical structs,
// so equal components mostly settle without a call.
func compareKeys(a, b []datum.D) int {
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		if c := datum.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// advance finds the next equal-key group; reports false when either input
// is exhausted.
func (it *mergeJoinVec) advance() bool {
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

func (it *mergeJoinVec) NextBatch() ([]storage.Row, error) {
	it.w.reset()
	for {
		if !it.inGroup && !it.advance() {
			if len(it.w.rows) > 0 {
				return it.w.rows, nil
			}
			return nil, nil
		}
		for it.a < it.lEnd {
			for it.b < it.rEnd {
				lr, rr := it.lRows[it.a], it.rRows[it.b]
				it.b++
				it.env.left, it.env.right = lr, rr
				if it.residual != nil {
					v, err := it.residual(&it.env)
					if err != nil {
						return nil, err
					}
					if !truthy(v) {
						continue
					}
				}
				if it.outFilter != nil {
					v, err := it.outFilter(&it.env)
					if err != nil {
						return nil, err
					}
					if !truthy(v) {
						continue
					}
				}
				it.w.appendGather(lr, rr)
				if it.w.full() {
					return it.w.rows, nil // resume mid-group next call
				}
			}
			it.a++
			it.b = it.ri
		}
		it.li, it.ri = it.lEnd, it.rEnd
		it.inGroup = false
	}
}

func (it *mergeJoinVec) Close() error {
	err := it.left.Close()
	if err2 := it.right.Close(); err == nil {
		err = err2
	}
	return err
}
