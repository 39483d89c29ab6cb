package engine

// vecjoin.go holds the batch joins. The hash join's build phase drains the
// build side batch-at-a-time into a flat keyArena (the evaluated key
// datums of every build row, so the hash-collision recheck is a pure
// datum comparison) and a bucket table; NULL keys are skipped on insert,
// since they can never match. The probe phase walks each probe batch in a
// tight loop, loading key datums by ordinal when the join keys are bare
// column references, and packs surviving joined rows into batchWriter
// arena chunks — typically one or two allocations per output batch
// instead of one concatRows allocation per output row. NULL semantics are
// identical on both sides: a probe row with any NULL key component gets an
// empty bucket (and, for LEFT JOIN, flows to the null-extension path), and
// `matched` is decided by the ON condition (keys + residual) alone — the
// pushed-down WHERE filter only gates emission, after null-extension,
// exactly as the reference executor applies it.
//
// A Nested Loop is the keyless hash join: no keys are extracted from its
// condition, every inner (build) row lands in the one bucket in inner
// order, and the whole JoinCond is the residual. Each outer row is
// therefore checked against every inner row in order, the inner side is
// materialized once, and the output order and match semantics are the
// nested-loop algorithm's.
//
// The merge join drains both (sorted) inputs at Open with their key datums
// evaluated once into flat arenas, so the merge itself is pure datum
// comparison, and emits equal-key groups pairwise through a batchWriter,
// resuming mid-group when a batch fills.

import (
	"fmt"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

type hashJoinVec struct {
	probe, build vecIter

	// Key evaluation: ordinal fast path when every key is a bare column
	// reference, pre-bound closures otherwise. Exactly one of
	// {probeKeyOrds, probeKeys} is non-nil, same for the build side,
	// except in a nested loop, which has no keys.
	probeKeyOrds []int
	probeKeys    []boundExpr
	buildKeyOrds []int
	buildKeys    []boundExpr
	nKeys        int

	residual   boundExpr // pair-bound residual join condition
	outFilter  boundExpr // pair-bound post-join filter (n.Filter)
	leftOuter  bool
	nullsRight storage.Row

	entries  []storage.Row
	keyArena []datum.D // len(entries)*nKeys, parallel to entries
	table    map[uint64][]int32

	// shared, when non-nil, is a prebuilt build side owned by the parallel
	// exchange (parallel.go): Open adopts it read-only instead of draining
	// the build child, so every worker's probe clone shares one table.
	shared *hashShared

	w      batchWriter
	est    int // planner's output estimate, clamped; seeds w.left at Open
	env    rowEnv
	keyBuf []datum.D

	// Probe cursor, preserved across NextBatch calls when the output batch
	// fills mid-bucket.
	curBatch []storage.Row
	pi       int
	probeRow storage.Row
	bucket   []int32
	bi       int
	matched  bool
	probing  bool
}

func (v *vbuild) newHashJoinVec(n *Node) (*hashJoinVec, error) {
	it, err := v.hashJoinShell(n)
	if err != nil {
		return nil, err
	}
	if it.probe, err = v.build(n.Children[0]); err != nil {
		return nil, err
	}
	if it.build, err = v.build(n.Children[1]); err != nil {
		return nil, err
	}
	return it, nil
}

// hashJoinShell builds everything of a hashJoinVec except its child
// iterators: key evaluation for both sides, residual and post-join filter
// binds, and the output writer. The serial constructor attaches probe and
// build children; the parallel exchange attaches a per-worker probe clone
// and a shared prebuilt table instead.
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
		it.nKeys = len(probeKeyExprs)
		if it.probeKeyOrds = keyOrdinals(probeKeyExprs, probeNode.Schema); it.probeKeyOrds == nil {
			if it.probeKeys, err = bindExprs(probeKeyExprs, probeNode.Schema, v.e.subquery); err != nil {
				return nil, err
			}
		}
		if it.buildKeyOrds = keyOrdinals(buildKeyExprs, hashNode.Schema); it.buildKeyOrds == nil {
			if it.buildKeys, err = bindExprs(buildKeyExprs, hashNode.Schema, v.e.subquery); err != nil {
				return nil, err
			}
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
	it.keyBuf = make([]datum.D, it.nKeys)
	it.w.width = len(probeNode.Schema) + len(hashNode.Schema)
	it.est = estCap(n.EstRows)
	return it, nil
}

// hashRowKeys evaluates r's key datums into dst (which must hold nKeys),
// returning the FNV hash and whether any component was NULL (in which case
// dst is partial and the row can never match). With no keys every row
// hashes alike, into the one bucket of a nested loop.
func hashRowKeys(r storage.Row, ords []int, keys []boundExpr, dst []datum.D, env *rowEnv) (uint64, bool, error) {
	h := uint64(1469598103934665603)
	if ords != nil {
		for i, ord := range ords {
			v := r[ord]
			if v.IsNull() {
				return 0, true, nil
			}
			dst[i] = v
			h = h*1099511628211 ^ v.Hash()
		}
		return h, false, nil
	}
	env.left = r
	for i, k := range keys {
		v, err := k(env)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() {
			return 0, true, nil
		}
		dst[i] = v
		h = h*1099511628211 ^ v.Hash()
	}
	return h, false, nil
}

func (it *hashJoinVec) Open() error {
	it.w.left = it.est
	if it.shared != nil {
		// Prebuilt by the exchange before workers started; adopt read-only.
		it.entries, it.keyArena, it.table = it.shared.entries, it.shared.keyArena, it.shared.table
		it.curBatch, it.pi = nil, 0
		it.probeRow, it.bucket, it.bi = nil, nil, 0
		it.probing = false
		return it.probe.Open()
	}
	if err := it.build.Open(); err != nil {
		return err
	}
	it.entries = it.entries[:0]
	it.keyArena = it.keyArena[:0]
	it.table = make(map[uint64][]int32)
	var env rowEnv
	keyBuf := make([]datum.D, it.nKeys)
	for {
		b, err := it.build.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, r := range b {
			h, null, err := hashRowKeys(r, it.buildKeyOrds, it.buildKeys, keyBuf, &env)
			if err != nil {
				return err
			}
			if null {
				continue // NULL keys never match
			}
			it.keyArena = append(it.keyArena, keyBuf[:it.nKeys]...)
			it.table[h] = append(it.table[h], int32(len(it.entries)))
			it.entries = append(it.entries, r)
		}
	}
	it.curBatch, it.pi = nil, 0
	it.probeRow, it.bucket, it.bi = nil, nil, 0
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
			it.bucket, it.bi = nil, 0
			h, null, err := hashRowKeys(r, it.probeKeyOrds, it.probeKeys, it.keyBuf, &it.env)
			if err != nil {
				return nil, err
			}
			if !null {
				it.bucket = it.table[h]
			}
			it.probing = true
		}
		it.env.left = it.probeRow
		for it.bi < len(it.bucket) {
			idx := it.bucket[it.bi]
			it.bi++
			off := int(idx) * it.nKeys
			if !datumsEqual(it.keyBuf, it.keyArena[off:off+it.nKeys]) {
				continue // hash collision
			}
			br := it.entries[idx]
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
			it.w.appendConcat(it.probeRow, br)
			if it.w.full() {
				return it.w.rows, nil // resume mid-bucket next call
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
			it.w.appendConcat(pr, it.nullsRight)
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

func datumsEqual(a, b []datum.D) bool {
	for i := range a {
		if !datum.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// --- Merge join -------------------------------------------------------------

type mergeJoinVec struct {
	left, right          vecIter
	lKeyExprs, rKeyExprs []boundExpr
	nKeys                int
	residual             boundExpr // pair-bound
	outFilter            boundExpr // pair-bound
	lEst, rEst           int       // planner cardinality estimates, for preallocation
	est                  int       // planner's output estimate, clamped; seeds w.left at Open

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
	it.w.width = len(leftNode.Schema) + len(rightNode.Schema)
	var err error
	if it.left, err = v.build(leftNode); err != nil {
		return nil, err
	}
	if it.right, err = v.build(rightNode); err != nil {
		return nil, err
	}
	if it.lKeyExprs, err = bindExprs(lKeyExprs, leftNode.Schema, v.e.subquery); err != nil {
		return nil, err
	}
	if it.rKeyExprs, err = bindExprs(rKeyExprs, rightNode.Schema, v.e.subquery); err != nil {
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

// drainKeyed opens child and materializes its rows and their key datums.
func drainKeyed(child vecIter, keys []boundExpr, est int) ([]storage.Row, []datum.D, error) {
	if err := child.Open(); err != nil {
		return nil, nil, err
	}
	rows := make([]storage.Row, 0, est)
	arena := make([]datum.D, 0, est*len(keys))
	var env rowEnv
	for {
		b, err := child.NextBatch()
		if err != nil {
			return nil, nil, err
		}
		if b == nil {
			return rows, arena, nil
		}
		for _, r := range b {
			env.left = r
			for _, k := range keys {
				v, err := k(&env)
				if err != nil {
					return nil, nil, err
				}
				arena = append(arena, v)
			}
		}
		rows = append(rows, b...)
	}
}

func (it *mergeJoinVec) Open() error {
	var err error
	if it.lRows, it.lKeys, err = drainKeyed(it.left, it.lKeyExprs, it.lEst); err != nil {
		return err
	}
	if it.rRows, it.rKeys, err = drainKeyed(it.right, it.rKeyExprs, it.rEst); err != nil {
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
				it.w.appendConcat(lr, rr)
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
