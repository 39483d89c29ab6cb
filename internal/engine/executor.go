package engine

import (
	"fmt"
	"slices"
	"sort"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// execNode materializes the rows produced by a plan node. This is the
// reference executor: every operator fully materializes its output. The
// batch executor in vec.go is the default query path (see
// Config.ReferenceExec); this path is retained as the semantic oracle for
// the differential tests and as the "full materialization" baseline in
// the engine benchmarks.
func (e *Engine) execNode(n *Node) ([]storage.Row, error) {
	switch n.Op {
	case OpSeqScan:
		return e.execSeqScan(n)
	case OpIndexScan:
		return e.execIndexScan(n)
	case OpHash, OpMaterialize:
		return e.execNode(n.Children[0])
	case OpHashJoin:
		return e.execHashJoin(n)
	case OpMergeJoin:
		return e.execMergeJoin(n)
	case OpNestedLoop:
		return e.execNestedLoop(n)
	case OpSort:
		return e.execSort(n)
	case OpAggregate, OpHashAggregate, OpGroupAggregate:
		return e.execAggregate(n)
	case OpUnique:
		return e.execUnique(n)
	case OpLimit:
		rows, err := e.execNode(n.Children[0])
		if err != nil {
			return nil, err
		}
		if n.Offset > 0 {
			if n.Offset >= int64(len(rows)) {
				rows = nil
			} else {
				rows = rows[n.Offset:]
			}
		}
		if n.Limit >= 0 && int64(len(rows)) > n.Limit {
			rows = rows[:n.Limit]
		}
		return rows, nil
	case OpResult:
		return e.filterRows(n.Filter, nil, []storage.Row{{}})
	}
	return nil, fmt.Errorf("engine: cannot execute operator %s", n.Op.Name())
}

// subquery executes an uncorrelated subquery, for the expression evaluator.
func (e *Engine) subquery(q *sqlparser.SelectStmt) ([]storage.Row, error) {
	res, err := e.runSelect(q)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// filterRows returns the rows, described by schema, that filter holds for.
func (e *Engine) filterRows(filter sqlparser.Expr, schema []colRef, rows []storage.Row) ([]storage.Row, error) {
	if filter == nil {
		return rows, nil
	}
	ctx := &evalCtx{schema: schema, sub: e.subquery}
	out := rows[:0:0]
	for _, r := range rows {
		ctx.row = r
		v, err := eval(ctx, filter)
		if err != nil {
			return nil, err
		}
		if truthy(v) {
			out = append(out, r)
		}
	}
	return out, nil
}

func (e *Engine) execSeqScan(n *Node) ([]storage.Row, error) {
	t, err := e.Cat.Table(n.Relation)
	if err != nil {
		return nil, err
	}
	// The reference oracle deliberately stays naive: materialize every row
	// (segments and tail) and filter through the tree-walking evaluator —
	// no zone maps, no typed loops — so it differentially checks both.
	rows, err := t.Snapshot().FetchAll()
	if err != nil {
		return nil, err
	}
	return e.filterRows(n.Filter, n.Schema, rows)
}

// execIndexScan derives the scan interval from the planned index condition
// and fetches the matching heap rows, then applies the residual filter.
func (e *Engine) execIndexScan(n *Node) ([]storage.Row, error) {
	t, err := e.Cat.Table(n.Relation)
	if err != nil {
		return nil, err
	}
	col, lo, hi, incLo, incHi, eq, hasEq, err := indexBounds(n.IndexCond)
	if err != nil {
		return nil, err
	}
	snap := t.Snapshot()
	ix := snap.Index(col)
	if ix == nil {
		return nil, fmt.Errorf("engine: planned index on %s.%s does not exist", n.Relation, col)
	}
	var ids []int
	if hasEq {
		ids = ix.Lookup(eq)
	} else {
		ids = ix.Range(lo, hi, incLo, incHi)
	}
	rows, err := snap.FetchRows(make([]storage.Row, 0, len(ids)), ids)
	if err != nil {
		return nil, err
	}
	// Re-check the index condition too (cheap, and keeps multi-conjunct
	// conditions exact when bounds only captured part of them).
	cond := sqlparser.JoinConjuncts(append(sqlparser.SplitConjuncts(n.IndexCond), sqlparser.SplitConjuncts(n.Filter)...))
	return e.filterRows(cond, n.Schema, rows)
}

// indexBounds extracts the column and bounds from an index condition
// (a conjunction of comparisons of one column against literals).
func indexBounds(cond sqlparser.Expr) (col string, lo, hi datum.D, incLo, incHi bool, eq datum.D, hasEq bool, err error) {
	lo, hi, eq = datum.Null, datum.Null, datum.Null
	incLo, incHi = true, true
	tighten := func(c string, op sqlparser.BinOp, v datum.D) {
		if col == "" {
			col = c
		}
		switch op {
		case sqlparser.OpEq:
			eq, hasEq = v, true
		case sqlparser.OpGt:
			lo, incLo = v, false
		case sqlparser.OpGe:
			lo, incLo = v, true
		case sqlparser.OpLt:
			hi, incHi = v, false
		case sqlparser.OpLe:
			hi, incHi = v, true
		}
	}
	for _, c := range sqlparser.SplitConjuncts(cond) {
		switch ex := c.(type) {
		case *sqlparser.BinaryExpr:
			if cr, ok := ex.Left.(*sqlparser.ColumnRef); ok {
				if v, isLit := literalDatum(ex.Right); isLit {
					tighten(cr.Name, ex.Op, v)
					continue
				}
			}
			if cr, ok := ex.Right.(*sqlparser.ColumnRef); ok {
				if v, isLit := literalDatum(ex.Left); isLit {
					// flip operator
					switch ex.Op {
					case sqlparser.OpLt:
						tighten(cr.Name, sqlparser.OpGt, v)
					case sqlparser.OpLe:
						tighten(cr.Name, sqlparser.OpGe, v)
					case sqlparser.OpGt:
						tighten(cr.Name, sqlparser.OpLt, v)
					case sqlparser.OpGe:
						tighten(cr.Name, sqlparser.OpLe, v)
					default:
						tighten(cr.Name, ex.Op, v)
					}
					continue
				}
			}
		case *sqlparser.BetweenExpr:
			cr, ok := ex.X.(*sqlparser.ColumnRef)
			loV, okLo := literalDatum(ex.Lo)
			hiV, okHi := literalDatum(ex.Hi)
			if ok && okLo && okHi {
				tighten(cr.Name, sqlparser.OpGe, loV)
				tighten(cr.Name, sqlparser.OpLe, hiV)
				continue
			}
		}
		return "", datum.Null, datum.Null, false, false, datum.Null, false,
			fmt.Errorf("engine: unsupported index condition %s", sqlparser.FormatExpr(c))
	}
	if col == "" {
		return "", datum.Null, datum.Null, false, false, datum.Null, false,
			fmt.Errorf("engine: empty index condition")
	}
	return col, lo, hi, incLo, incHi, eq, hasEq, nil
}

// joinKeyPairs splits a join condition into per-side key expressions and
// the residual. A column equality is a key pair only when its columns come
// from opposite inputs; the pair is ordered so its first element evaluates
// against leftSchema and its second against rightSchema. Every other
// conjunct, including an equality between two columns of one input, is
// residual.
func joinKeyPairs(cond sqlparser.Expr, leftSchema, rightSchema []colRef) (lhs, rhs []sqlparser.Expr, residual []sqlparser.Expr) {
	inSchema := func(c *sqlparser.ColumnRef, schema []colRef) bool {
		for _, sc := range schema {
			if (c.Table == "" || sc.Qual == c.Table) && sc.Name == c.Name {
				return true
			}
		}
		return false
	}
	for _, c := range sqlparser.SplitConjuncts(cond) {
		lc, rc, ok := columnEquality(c)
		switch {
		case ok && inSchema(lc, leftSchema) && inSchema(rc, rightSchema):
			lhs = append(lhs, lc)
			rhs = append(rhs, rc)
		case ok && inSchema(rc, leftSchema) && inSchema(lc, rightSchema):
			lhs = append(lhs, rc)
			rhs = append(rhs, lc)
		default:
			residual = append(residual, c)
		}
	}
	return lhs, rhs, residual
}

func (e *Engine) execHashJoin(n *Node) ([]storage.Row, error) {
	probeNode, hashNode := n.Children[0], n.Children[1]
	probe, err := e.execNode(probeNode)
	if err != nil {
		return nil, err
	}
	build, err := e.execNode(hashNode)
	if err != nil {
		return nil, err
	}
	probeKeys, buildKeys, residual := joinKeyPairs(n.JoinCond, probeNode.Schema, hashNode.Schema)
	if len(probeKeys) == 0 {
		return nil, fmt.Errorf("engine: hash join without equi-condition")
	}
	// Build rows are found by the hash of their keys, then by datum.Compare
	// on every key, which never finds a probe key holding NULL.
	type entry struct {
		row  storage.Row
		keys []datum.D
	}
	buildCtx := &evalCtx{schema: hashNode.Schema, sub: e.subquery}
	table := make(map[uint64][]entry, len(build))
	for _, r := range build {
		buildCtx.row = r
		keys, err := evalKeys(buildCtx, buildKeys)
		if err != nil {
			return nil, err
		}
		if !slices.ContainsFunc(keys, datum.D.IsNull) { // NULL keys never match
			table[hashKey(keys)] = append(table[hashKey(keys)], entry{r, keys})
		}
	}
	probeCtx := &evalCtx{schema: probeNode.Schema, sub: e.subquery}
	pairs := pairSchema(n)
	pairCtx := &evalCtx{schema: pairs, sub: e.subquery}
	residualCond := sqlparser.JoinConjuncts(residual)
	var out []storage.Row
	leftOuter := n.JoinType == sqlparser.LeftJoin
	nullsRight := make(storage.Row, len(hashNode.Schema))
	for i := range nullsRight {
		nullsRight[i] = datum.Null
	}
	// Reusable pair buffer: candidates are checked in place and only
	// materialized with concatRows once key + residual checks pass.
	pairBuf := make(storage.Row, 0, len(pairs))
	for _, pr := range probe {
		probeCtx.row = pr
		matched := false
		keys, err := evalKeys(probeCtx, probeKeys)
		if err != nil {
			return nil, err
		}
		for _, b := range table[hashKey(keys)] {
			if compareKeys(keys, b.keys) != 0 {
				continue
			}
			if residualCond != nil {
				pairBuf = append(append(pairBuf[:0], pr...), b.row...)
				pairCtx.row = pairBuf
				v, err := eval(pairCtx, residualCond)
				if err != nil {
					return nil, err
				}
				if !truthy(v) {
					continue
				}
			}
			matched = true
			out = append(out, concatRows(pr, b.row))
		}
		if leftOuter && !matched {
			out = append(out, concatRows(pr, nullsRight))
		}
	}
	return e.joinOutput(n, pairs, out)
}

// evalKeys evaluates key expressions against ctx's row.
func evalKeys(ctx *evalCtx, keys []sqlparser.Expr) ([]datum.D, error) {
	vals := make([]datum.D, len(keys))
	for i, k := range keys {
		v, err := eval(ctx, k)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

func concatRows(a, b storage.Row) storage.Row {
	out := make(storage.Row, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// joinOutput finishes a join over its joined row pairs, whose columns are
// pairs: it keeps the pairs n.Filter holds for, and copies each one's
// columns of n.Schema into an output row.
func (e *Engine) joinOutput(n *Node, pairs []colRef, rows []storage.Row) ([]storage.Row, error) {
	rows, err := e.filterRows(n.Filter, pairs, rows)
	if err != nil {
		return nil, err
	}
	ords := make([]int, len(n.Schema))
	for i, c := range n.Schema {
		if ords[i] = slices.Index(pairs, c); ords[i] < 0 {
			return nil, fmt.Errorf("engine: %s output column %s.%s is not in its inputs", n.Op.Name(), c.Qual, c.Name)
		}
	}
	out := make([]storage.Row, len(rows))
	for i, r := range rows {
		out[i] = make(storage.Row, len(ords))
		for j, o := range ords {
			out[i][j] = r[o]
		}
	}
	return out, nil
}

func (e *Engine) execMergeJoin(n *Node) ([]storage.Row, error) {
	leftNode, rightNode := n.Children[0], n.Children[1]
	left, err := e.execNode(leftNode)
	if err != nil {
		return nil, err
	}
	right, err := e.execNode(rightNode)
	if err != nil {
		return nil, err
	}
	lKeys, rKeys, residual := joinKeyPairs(n.JoinCond, leftNode.Schema, rightNode.Schema)
	if len(lKeys) == 0 {
		return nil, fmt.Errorf("engine: merge join without equi-condition")
	}
	lCtx := &evalCtx{schema: leftNode.Schema, sub: e.subquery}
	rCtx := &evalCtx{schema: rightNode.Schema, sub: e.subquery}
	keyOf := func(ctx *evalCtx, row storage.Row, keys []sqlparser.Expr) ([]datum.D, error) {
		ctx.row = row
		out := make([]datum.D, len(keys))
		for i, k := range keys {
			v, err := eval(ctx, k)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	cmpKeys := func(a, b []datum.D) int {
		for i := range a {
			if c := datum.Compare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	hasNull := func(k []datum.D) bool {
		for _, v := range k {
			if v.IsNull() {
				return true
			}
		}
		return false
	}
	pairs := pairSchema(n)
	pairCtx := &evalCtx{schema: pairs, sub: e.subquery}
	residualCond := sqlparser.JoinConjuncts(residual)
	var out []storage.Row
	li, ri := 0, 0
	for li < len(left) && ri < len(right) {
		lk, err := keyOf(lCtx, left[li], lKeys)
		if err != nil {
			return nil, err
		}
		rk, err := keyOf(rCtx, right[ri], rKeys)
		if err != nil {
			return nil, err
		}
		if hasNull(lk) {
			li++
			continue
		}
		if hasNull(rk) {
			ri++
			continue
		}
		c := cmpKeys(lk, rk)
		if c < 0 {
			li++
			continue
		}
		if c > 0 {
			ri++
			continue
		}
		// Equal runs: gather both groups, emit the cross product.
		lEnd := li + 1
		for lEnd < len(left) {
			k, err := keyOf(lCtx, left[lEnd], lKeys)
			if err != nil {
				return nil, err
			}
			if cmpKeys(k, lk) != 0 {
				break
			}
			lEnd++
		}
		rEnd := ri + 1
		for rEnd < len(right) {
			k, err := keyOf(rCtx, right[rEnd], rKeys)
			if err != nil {
				return nil, err
			}
			if cmpKeys(k, rk) != 0 {
				break
			}
			rEnd++
		}
		for a := li; a < lEnd; a++ {
			for b := ri; b < rEnd; b++ {
				joined := concatRows(left[a], right[b])
				if residualCond != nil {
					pairCtx.row = joined
					v, err := eval(pairCtx, residualCond)
					if err != nil {
						return nil, err
					}
					if !truthy(v) {
						continue
					}
				}
				out = append(out, joined)
			}
		}
		li, ri = lEnd, rEnd
	}
	return e.joinOutput(n, pairs, out)
}

func (e *Engine) execNestedLoop(n *Node) ([]storage.Row, error) {
	outerNode, innerNode := n.Children[0], n.Children[1]
	outer, err := e.execNode(outerNode)
	if err != nil {
		return nil, err
	}
	inner, err := e.execNode(innerNode)
	if err != nil {
		return nil, err
	}
	pairs := pairSchema(n)
	ctx := &evalCtx{schema: pairs, sub: e.subquery}
	var out []storage.Row
	leftOuter := n.JoinType == sqlparser.LeftJoin
	nullsInner := make(storage.Row, len(innerNode.Schema))
	for i := range nullsInner {
		nullsInner[i] = datum.Null
	}
	for _, or := range outer {
		matched := false
		for _, ir := range inner {
			joined := concatRows(or, ir)
			if n.JoinCond != nil {
				ctx.row = joined
				v, err := eval(ctx, n.JoinCond)
				if err != nil {
					return nil, err
				}
				if !truthy(v) {
					continue
				}
			}
			matched = true
			out = append(out, joined)
		}
		if leftOuter && !matched {
			out = append(out, concatRows(or, nullsInner))
		}
	}
	return e.joinOutput(n, pairs, out)
}

func (e *Engine) execSort(n *Node) ([]storage.Row, error) {
	rows, err := e.execNode(n.Children[0])
	if err != nil {
		return nil, err
	}
	return sortRows(e, rows, n.Children[0].Schema, n.SortKeys)
}

func sortRows(e *Engine, rows []storage.Row, schema []colRef, keys []sortKey) ([]storage.Row, error) {
	type keyed struct {
		row  storage.Row
		keys []datum.D
	}
	ctx := &evalCtx{schema: schema, sub: e.subquery}
	items := make([]keyed, len(rows))
	for i, r := range rows {
		ctx.row = r
		ks := make([]datum.D, len(keys))
		for j, k := range keys {
			v, err := eval(ctx, k.Expr)
			if err != nil {
				return nil, err
			}
			ks[j] = v
		}
		items[i] = keyed{row: r, keys: ks}
	}
	sort.SliceStable(items, func(a, b int) bool {
		for j := range keys {
			c := datum.Compare(items[a].keys[j], items[b].keys[j])
			if keys[j].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	out := make([]storage.Row, len(items))
	for i, it := range items {
		out[i] = it.row
	}
	return out, nil
}

// aggState accumulates one aggregate within one group. needs records
// which folds this aggregate's finalize will read, so the per-row
// accumulate skips the others — a SUM never pays the min/max compares.
// The running sum is typed: sumKind is KNull before the first numeric
// value, then KInt or KFloat with the total in sumInt or sumFloat. minSeq
// and maxSeq are the sequences of the rows min and max came from, which
// break ties when partial states merge. distinct, non-nil for a DISTINCT
// aggregate, holds the values folded so far, as keys of one datum in
// first-arrival order. Both executors share it with the batch executor's
// other hashing operators.
type aggState struct {
	count          int64
	needs          uint8
	sumKind        datum.Kind
	sumInt         int64
	sumFloat       float64
	min, max       datum.D
	minSeq, maxSeq int64
	distinct       *keyTable
}

const (
	aggNeedSum uint8 = 1 << iota
	aggNeedMin
	aggNeedMax
)

// aggNeeds maps an aggregate function to the folds it reads at finalize.
// The count is always maintained (COUNT and AVG read it, and it is one
// increment); unknown names conservatively keep everything.
func aggNeeds(call *sqlparser.FuncCall) uint8 {
	switch call.Name {
	case "COUNT":
		return 0
	case "SUM", "AVG":
		return aggNeedSum
	case "MIN":
		return aggNeedMin
	case "MAX":
		return aggNeedMax
	}
	return aggNeedSum | aggNeedMin | aggNeedMax
}

// newAggState returns the empty accumulator for one aggregate call.
func newAggState(call *sqlparser.FuncCall) aggState {
	st := aggState{needs: aggNeeds(call), min: datum.Null, max: datum.Null}
	if call.Distinct {
		st.distinct = new(keyTable)
		st.distinct.reset(1, 0)
	}
	return st
}

func (e *Engine) execAggregate(n *Node) ([]storage.Row, error) {
	input, err := e.execNode(n.Children[0])
	if err != nil {
		return nil, err
	}
	childSchema := n.Children[0].Schema
	ctx := &evalCtx{schema: childSchema, sub: e.subquery}

	type group struct {
		keyVals []datum.D
		states  []*aggState
	}
	newGroup := func(keyVals []datum.D) *group {
		g := &group{keyVals: keyVals, states: make([]*aggState, len(n.Aggs))}
		for i := range g.states {
			st := newAggState(n.Aggs[i].Call)
			g.states[i] = &st
		}
		return g
	}
	// Groups are found by hash, then by datum.Compare on every key.
	groups := make(map[uint64][]*group)
	var order []*group

	for seq, r := range input {
		ctx.row = r
		keyVals, err := evalKeys(ctx, n.GroupKeys)
		if err != nil {
			return nil, err
		}
		h := hashKey(keyVals)
		var g *group
		for _, c := range groups[h] {
			if compareKeys(c.keyVals, keyVals) == 0 {
				g = c
				break
			}
		}
		if g == nil {
			g = newGroup(keyVals)
			groups[h] = append(groups[h], g)
			order = append(order, g)
		}
		for i, a := range n.Aggs {
			if err := accumulate(ctx, g.states[i], a.Call, int64(seq)); err != nil {
				return nil, err
			}
		}
	}

	// Plain aggregate over an empty input still yields one row.
	if len(n.GroupKeys) == 0 && len(order) == 0 {
		order = append(order, newGroup(nil))
	}

	havingCtx := &evalCtx{schema: n.Schema, sub: e.subquery}
	var out []storage.Row
	for _, g := range order {
		row := make(storage.Row, 0, len(g.keyVals)+len(g.states))
		row = append(row, g.keyVals...)
		for i, a := range n.Aggs {
			row = append(row, finalize(g.states[i], a.Call))
		}
		if n.HavingFilter != nil {
			havingCtx.row = row
			v, err := eval(havingCtx, n.HavingFilter)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		out = append(out, row)
	}
	// GroupAggregate consumed sorted input; emission above follows input
	// order, so the sortedness annotation remains valid.
	return out, nil
}

func accumulate(ctx *evalCtx, st *aggState, call *sqlparser.FuncCall, seq int64) error {
	if call.Star {
		st.count++
		return nil
	}
	v, err := eval(ctx, call.Args[0])
	if err != nil {
		return err
	}
	accumulateDatum(st, v, seq)
	return nil
}

// accumulateDatum folds one evaluated argument, of the row at sequence
// seq, into an aggregate state; shared by the reference and batch
// executors. A DISTINCT state folds a value at its first arrival and skips
// its repeats.
func accumulateDatum(st *aggState, v datum.D, seq int64) {
	if v.IsNull() || !st.firstArrival(v) {
		return
	}
	st.foldCountSum(v)
	st.foldMinMax(v, seq)
}

// firstArrival reports whether v is new to a DISTINCT state, adding it to
// the state's values; every value is new to any other state.
func (st *aggState) firstArrival(v datum.D) bool {
	if st.distinct == nil {
		return true
	}
	key := [1]datum.D{v}
	_, added := st.distinct.insert(key[:], hashKey(key[:]))
	return added
}

// foldCountSum counts a non-NULL value and adds it to the running sum
// where finalize reads it.
func (st *aggState) foldCountSum(v datum.D) {
	st.count++
	if st.needs&aggNeedSum != 0 {
		switch v.Kind() {
		case datum.KInt:
			st.addInt(v.Int())
		case datum.KFloat:
			st.addFloat(v.Float())
		}
	}
}

// addInt adds an integer to the running sum as datum.Arith('+') would:
// the first value becomes the sum, an integer sum stays an integer (and
// wraps on overflow), and a float sum widens the integer.
func (st *aggState) addInt(i int64) {
	switch st.sumKind {
	case datum.KNull:
		st.sumKind, st.sumInt = datum.KInt, i
	case datum.KInt:
		st.sumInt += i
	default:
		st.sumFloat += float64(i)
	}
}

// addFloat adds a float to the running sum as datum.Arith('+') would: the
// first value becomes the sum (so a lone -0.0 stays -0.0), and an integer
// sum widens to float.
func (st *aggState) addFloat(f float64) {
	switch st.sumKind {
	case datum.KNull:
		st.sumKind, st.sumFloat = datum.KFloat, f
	case datum.KInt:
		st.sumKind, st.sumFloat = datum.KFloat, float64(st.sumInt)+f
	default:
		st.sumFloat += f
	}
}

// foldMinMax folds a non-NULL value, of the row at sequence seq, into MIN
// and MAX where finalize reads them. Rows fold in sequence order, so of
// equal values the first row's stays.
func (st *aggState) foldMinMax(v datum.D, seq int64) {
	if st.needs&aggNeedMin != 0 && (st.min.IsNull() || datum.Compare(v, st.min) < 0) {
		st.min, st.minSeq = v, seq
	}
	if st.needs&aggNeedMax != 0 && (st.max.IsNull() || datum.Compare(v, st.max) > 0) {
		st.max, st.maxSeq = v, seq
	}
}

// sum returns the running sum as a datum, NULL before any numeric value.
func (st *aggState) sum() datum.D {
	switch st.sumKind {
	case datum.KInt:
		return datum.NewInt(st.sumInt)
	case datum.KFloat:
		return datum.NewFloat(st.sumFloat)
	}
	return datum.Null
}

func finalize(st *aggState, call *sqlparser.FuncCall) datum.D {
	switch call.Name {
	case "COUNT":
		return datum.NewInt(st.count)
	case "SUM":
		return st.sum()
	case "AVG":
		sum := st.sum()
		if st.count == 0 || sum.IsNull() {
			return datum.Null
		}
		return datum.NewFloat(sum.Float() / float64(st.count))
	case "MIN":
		return st.min
	case "MAX":
		return st.max
	}
	return datum.Null
}

func (e *Engine) execUnique(n *Node) ([]storage.Row, error) {
	rows, err := e.execNode(n.Children[0])
	if err != nil {
		return nil, err
	}
	ctx := &evalCtx{schema: n.Children[0].Schema, sub: e.subquery}
	// Keys are found by hash, then by datum.Compare on every component.
	seen := make(map[uint64][][]datum.D, len(rows))
	var out []storage.Row
	for _, r := range rows {
		ctx.row = r
		key := make([]datum.D, len(n.SortKeys))
		for i, k := range n.SortKeys {
			v, err := eval(ctx, k.Expr)
			if err != nil {
				return nil, err
			}
			key[i] = v
		}
		h := hashKey(key)
		if slices.ContainsFunc(seen[h], func(s []datum.D) bool { return compareKeys(s, key) == 0 }) {
			continue
		}
		seen[h] = append(seen[h], key)
		out = append(out, r)
	}
	return out, nil
}
