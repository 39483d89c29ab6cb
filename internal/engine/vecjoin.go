package engine

// vecjoin.go is the batch hash join. The build phase drains the build
// side batch-at-a-time into a flat keyArena (the evaluated key datums of
// every build row, so the hash-collision recheck is a pure datum
// comparison) and a bucket table; NULL keys are skipped on insert, since
// they can never match. The probe phase walks each probe batch in a tight
// loop, loading key datums by ordinal when the join keys are bare column
// references, and packs surviving joined rows into batchWriter arena
// chunks — typically one or two allocations per output batch instead of
// one concatRows allocation per output row. NULL semantics are identical
// on both sides: a probe row with any NULL key component gets an empty
// bucket (and, for LEFT JOIN, flows to the null-extension path), and
// `matched` is decided by the ON condition (keys + residual) alone — the
// pushed-down WHERE filter only gates emission, after null-extension,
// exactly as the reference executor applies it.

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
	// {probeKeyOrds, probeKeys} is non-nil, same for the build side.
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
func (v *vbuild) hashJoinShell(n *Node) (*hashJoinVec, error) {
	probeNode, hashNode := n.Children[0], n.Children[1]
	probeKeyExprs, buildKeyExprs, residual := joinKeyPairs(n.JoinCond, probeNode.Schema, hashNode.Schema)
	if len(probeKeyExprs) == 0 {
		return nil, fmt.Errorf("engine: hash join without equi-condition")
	}
	it := &hashJoinVec{
		nKeys:     len(probeKeyExprs),
		leftOuter: n.JoinType == sqlparser.LeftJoin,
	}
	var err error
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
	if cond := sqlparser.JoinConjuncts(residual); cond != nil {
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
// dst is partial and the row can never match).
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
