package engine

// vecsort.go is the batch sort. It materializes at Open — full stable
// sort, or the bounded topKHeap when the planner set SortLimit (which is
// offset+limit, so OFFSET rows survive truncation) — consuming batches and
// evaluating sort keys by ordinal when they are bare column references,
// so the top-K push path does no closure calls and no allocations once
// the heap is full. The heap's arrival-sequence tiebreak keeps the result
// identical to the reference executor's stable full sort truncated to K,
// including when duplicate keys cross the limit boundary. The key
// evaluator (sortKeyEval) and the stable index sort (stableKeyOrder) are
// shared with Unique and with the parallel exchange's sort workers.

import (
	"sort"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// sortKeyEval evaluates a row's sort keys: by ordinal when every key is a
// bare column reference, through pre-bound closures otherwise.
type sortKeyEval struct {
	ords []int       // ordinal fast path; nil → keys
	keys []boundExpr // closure fallback
	desc []bool
}

func bindSortKeys(keys []sortKey, schema []colRef, sub subqueryFn) (sortKeyEval, error) {
	ev := sortKeyEval{desc: make([]bool, len(keys))}
	exprs := make([]sqlparser.Expr, len(keys))
	for i, k := range keys {
		exprs[i] = k.Expr
		ev.desc[i] = k.Desc
	}
	if ev.ords = keyOrdinals(exprs, schema); ev.ords == nil {
		var err error
		if ev.keys, err = bindExprs(exprs, schema, sub); err != nil {
			return sortKeyEval{}, err
		}
	}
	return ev, nil
}

// eval loads r's key datums into dst.
func (ev *sortKeyEval) eval(r storage.Row, dst []datum.D, env *rowEnv) error {
	if ev.ords != nil {
		for i, ord := range ev.ords {
			dst[i] = r[ord]
		}
		return nil
	}
	env.left = r
	for i, k := range ev.keys {
		v, err := k(env)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// compareSortKeys orders two key tuples, each key ascending or (desc)
// descending.
func compareSortKeys(a, b []datum.D, desc []bool) int {
	for j, d := range desc {
		c := datum.Compare(a[j], b[j])
		if d {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// stableKeyOrder returns the permutation that stably sorts n rows by their
// key tuples, held row-major in keys: rows with equal keys keep their
// input order.
func stableKeyOrder(keys []datum.D, n int, desc []bool) []int {
	nKeys := len(desc)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		a, b := idx[x]*nKeys, idx[y]*nKeys
		return compareSortKeys(keys[a:a+nKeys], keys[b:b+nKeys], desc) < 0
	})
	return idx
}

type sortVec struct {
	child vecIter
	keys  sortKeyEval
	topK  int64 // 0 = full sort
	est   int   // planner cardinality estimate, for preallocation
	out   rowsOut
}

func (v *vbuild) newSortVec(n *Node) (*sortVec, error) {
	it := &sortVec{topK: n.SortLimit, est: estCap(n.EstRows)}
	var err error
	if it.child, err = v.build(n.Children[0]); err != nil {
		return nil, err
	}
	if it.keys, err = bindSortKeys(n.SortKeys, n.Children[0].Schema, v.e.subquery); err != nil {
		return nil, err
	}
	return it, nil
}

// Open drains the child into the top-K heap, or into rows plus a flat key
// arena that a stable index sort then orders. Both buffers preallocate
// from the planner estimate, so an accurately costed sort materializes
// with one allocation each.
func (it *sortVec) Open() error {
	if err := it.child.Open(); err != nil {
		return err
	}
	nKeys := len(it.keys.desc)
	var (
		heap  *topKHeap
		rows  []storage.Row
		arena []datum.D
	)
	if it.topK > 0 {
		heap = newTopKHeap(int(it.topK), nKeys, it.keys.desc)
	} else {
		rows = make([]storage.Row, 0, it.est)
		arena = make([]datum.D, 0, it.est*nKeys)
	}
	var env rowEnv
	scratch := make([]datum.D, nKeys)
	for {
		b, err := it.child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, r := range b {
			if err := it.keys.eval(r, scratch, &env); err != nil {
				return err
			}
			if heap != nil {
				heap.push(r, scratch)
				continue
			}
			arena = append(arena, scratch...)
			rows = append(rows, r)
		}
	}
	if heap != nil {
		it.out.set(heap.finish())
		return nil
	}
	out := make([]storage.Row, len(rows))
	for i, j := range stableKeyOrder(arena, len(rows), it.keys.desc) {
		out[i] = rows[j]
	}
	it.out.set(out)
	return nil
}

func (it *sortVec) NextBatch() ([]storage.Row, error) { return it.out.next(), nil }

func (it *sortVec) Close() error { return it.child.Close() }

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
	if c := compareSortKeys(keyA, h.keys[off:off+h.nKeys], h.desc); c != 0 {
		return c < 0
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
