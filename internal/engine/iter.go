package engine

// iter.go holds the operators that still run row-at-a-time: Aggregate,
// Unique, Merge Join, Nested Loop and Result. Each implements rowIter
// (Open/Next/Close) and sits in the batch pipeline (vec.go) behind the
// adapters — vecToRow feeds it its vectorized children, rowToVec packs
// its output back into batches. Expressions are pre-bound to ordinals at
// construction time (bind.go). Aggregation and both merge-join inputs
// materialize at Open (merge-join key datums are evaluated once into flat
// arenas rather than per comparison), a nested loop materializes its
// inner side once, and Unique streams.

import (
	"fmt"

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

// buildRowOp builds a row-only operator over vectorized children.
func (v *vbuild) buildRowOp(n *Node) (rowIter, error) {
	switch n.Op {
	case OpMergeJoin:
		return v.newMergeJoinIter(n)
	case OpNestedLoop:
		return v.newNestedLoopIter(n)
	case OpAggregate, OpHashAggregate, OpGroupAggregate:
		return v.newAggIter(n)
	case OpUnique:
		return v.newUniqueIter(n)
	case OpResult:
		return v.newResultIter(n)
	}
	return nil, fmt.Errorf("engine: cannot execute operator %s", n.Op.Name())
}

// rowArena packs row-at-a-time join output into flat datum chunks — one
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

func (v *vbuild) newNestedLoopIter(n *Node) (*nestedLoopIter, error) {
	outerNode, innerNode := n.Children[0], n.Children[1]
	it := &nestedLoopIter{leftOuter: n.JoinType == sqlparser.LeftJoin}
	var err error
	if it.outer, err = v.rowChild(outerNode); err != nil {
		return nil, err
	}
	if it.innerSrc, err = v.rowChild(innerNode); err != nil {
		return nil, err
	}
	if n.JoinCond != nil {
		if it.cond, err = bindPairExpr(n.JoinCond, outerNode.Schema, innerNode.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	if n.Filter != nil {
		if it.outFilter, err = bindPairExpr(n.Filter, outerNode.Schema, innerNode.Schema, v.e.subquery); err != nil {
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

func (v *vbuild) newMergeJoinIter(n *Node) (*mergeJoinIter, error) {
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
	if it.left, err = v.rowChild(leftNode); err != nil {
		return nil, err
	}
	if it.right, err = v.rowChild(rightNode); err != nil {
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

// drainKeyed materializes an already-opened child and its per-row key
// datums.
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

func (v *vbuild) newAggIter(n *Node) (*aggIter, error) {
	childSchema := n.Children[0].Schema
	it := &aggIter{aggs: n.Aggs, plain: len(n.GroupKeys) == 0}
	var err error
	if it.child, err = v.rowChild(n.Children[0]); err != nil {
		return nil, err
	}
	if it.groupKeys, err = bindExprs(n.GroupKeys, childSchema, v.e.subquery); err != nil {
		return nil, err
	}
	it.aggArgs = make([]boundExpr, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Call.Star {
			continue
		}
		if it.aggArgs[i], err = bindExpr(a.Call.Args[0], childSchema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	if n.HavingFilter != nil {
		if it.having, err = bindExpr(n.HavingFilter, n.Schema, v.e.subquery); err != nil {
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

func (v *vbuild) newUniqueIter(n *Node) (*uniqueIter, error) {
	it := &uniqueIter{}
	var err error
	if it.child, err = v.rowChild(n.Children[0]); err != nil {
		return nil, err
	}
	exprs := make([]sqlparser.Expr, len(n.SortKeys))
	for i, k := range n.SortKeys {
		exprs[i] = k.Expr
	}
	if it.keys, err = bindExprs(exprs, n.Children[0].Schema, v.e.subquery); err != nil {
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

func (v *vbuild) newResultIter(n *Node) (*resultIter, error) {
	it := &resultIter{items: make([]boundExpr, len(n.ResultItems))}
	for i, item := range n.ResultItems {
		bound, err := bindExpr(item.Expr, nil, v.e.subquery)
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
