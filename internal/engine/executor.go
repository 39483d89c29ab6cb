package engine

import (
	"fmt"
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
		ctx := &evalCtx{schema: nil, row: nil, sub: e.subquery}
		row := make(storage.Row, len(n.ResultItems))
		for i, it := range n.ResultItems {
			v, err := eval(ctx, it.Expr)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		return []storage.Row{row}, nil
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

func (e *Engine) filterRows(n *Node, rows []storage.Row) ([]storage.Row, error) {
	if n.Filter == nil {
		return rows, nil
	}
	ctx := &evalCtx{schema: n.Schema, sub: e.subquery}
	out := rows[:0:0]
	for _, r := range rows {
		ctx.row = r
		v, err := eval(ctx, n.Filter)
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
	return e.filterRows(n, rows)
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
	rows := make([]storage.Row, 0, len(ids))
	for _, id := range ids {
		r, err := snap.FetchRow(id)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	// Re-check the index condition too (cheap, and keeps multi-conjunct
	// conditions exact when bounds only captured part of them).
	save := n.Filter
	n.Filter = sqlparser.JoinConjuncts(append(sqlparser.SplitConjuncts(n.IndexCond), sqlparser.SplitConjuncts(save)...))
	out, err := e.filterRows(n, rows)
	n.Filter = save
	return out, err
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
	buildCtx := &evalCtx{schema: hashNode.Schema, sub: e.subquery}
	table := make(map[uint64][]storage.Row, len(build))
	for _, r := range build {
		buildCtx.row = r
		h, ok, err := hashKeys(buildCtx, buildKeys)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // NULL keys never match
		}
		table[h] = append(table[h], r)
	}
	probeCtx := &evalCtx{schema: probeNode.Schema, sub: e.subquery}
	pairCtx := &evalCtx{schema: n.Schema, sub: e.subquery}
	buildRowCtx := &evalCtx{schema: hashNode.Schema, sub: e.subquery}
	residualCond := sqlparser.JoinConjuncts(residual)
	var out []storage.Row
	leftOuter := n.JoinType == sqlparser.LeftJoin
	nullsRight := make(storage.Row, len(hashNode.Schema))
	for i := range nullsRight {
		nullsRight[i] = datum.Null
	}
	// Reusable pair buffer: candidates are checked in place and only
	// materialized with concatRows once key + residual checks pass.
	pairBuf := make(storage.Row, 0, len(n.Schema))
	for _, pr := range probe {
		probeCtx.row = pr
		matched := false
		h, ok, err := hashKeys(probeCtx, probeKeys)
		if err != nil {
			return nil, err
		}
		if ok {
			for _, br := range table[h] {
				buildRowCtx.row = br
				match, err := evalJoinMatch(probeKeys, buildKeys, probeCtx, buildRowCtx)
				if err != nil {
					return nil, err
				}
				if !match {
					continue
				}
				if residualCond != nil {
					pairBuf = append(append(pairBuf[:0], pr...), br...)
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
				out = append(out, concatRows(pr, br))
			}
		}
		if leftOuter && !matched {
			out = append(out, concatRows(pr, nullsRight))
		}
	}
	return e.filterRows(n, out)
}

// evalJoinMatch verifies key equality exactly (hash collisions are possible).
func evalJoinMatch(lKeys, rKeys []sqlparser.Expr, lCtx, rCtx *evalCtx) (bool, error) {
	for i := range lKeys {
		lv, err := eval(lCtx, lKeys[i])
		if err != nil {
			return false, err
		}
		rv, err := eval(rCtx, rKeys[i])
		if err != nil {
			return false, err
		}
		if !datum.Equal(lv, rv) {
			return false, nil
		}
	}
	return true, nil
}

// hashKeys hashes the evaluated key expressions; ok is false when any key
// is NULL (which can never join).
func hashKeys(ctx *evalCtx, keys []sqlparser.Expr) (uint64, bool, error) {
	var h uint64 = 1469598103934665603
	for _, k := range keys {
		v, err := eval(ctx, k)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() {
			return 0, false, nil
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return h, true, nil
}

func concatRows(a, b storage.Row) storage.Row {
	out := make(storage.Row, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
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
	pairCtx := &evalCtx{schema: n.Schema, sub: e.subquery}
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
	return e.filterRows(n, out)
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
	ctx := &evalCtx{schema: n.Schema, sub: e.subquery}
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
	return e.filterRows(n, out)
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
// distinct, non-nil for a DISTINCT aggregate, holds the values folded so
// far, keyed by their String form.
type aggState struct {
	count    int64
	needs    uint8
	sum      datum.D
	min, max datum.D
	distinct map[string]datum.D
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
	st := aggState{needs: aggNeeds(call), sum: datum.Null, min: datum.Null, max: datum.Null}
	if call.Distinct {
		st.distinct = make(map[string]datum.D)
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
	groups := make(map[string]*group)
	var order []string

	for _, r := range input {
		ctx.row = r
		keyVals := make([]datum.D, len(n.GroupKeys))
		keyText := ""
		for i, k := range n.GroupKeys {
			v, err := eval(ctx, k)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
			keyText += v.String() + "\x00"
		}
		g, ok := groups[keyText]
		if !ok {
			g = &group{keyVals: keyVals, states: make([]*aggState, len(n.Aggs))}
			for i := range g.states {
				st := newAggState(n.Aggs[i].Call)
				g.states[i] = &st
			}
			groups[keyText] = g
			order = append(order, keyText)
		}
		for i, a := range n.Aggs {
			if err := accumulate(ctx, g.states[i], a.Call); err != nil {
				return nil, err
			}
		}
	}

	// Plain aggregate over an empty input still yields one row.
	if len(n.GroupKeys) == 0 && len(groups) == 0 {
		g := &group{states: make([]*aggState, len(n.Aggs))}
		for i := range g.states {
			st := newAggState(n.Aggs[i].Call)
			g.states[i] = &st
		}
		groups[""] = g
		order = append(order, "")
	}

	havingCtx := &evalCtx{schema: n.Schema, sub: e.subquery}
	var out []storage.Row
	for _, kt := range order {
		g := groups[kt]
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

func accumulate(ctx *evalCtx, st *aggState, call *sqlparser.FuncCall) error {
	if call.Star {
		st.count++
		return nil
	}
	v, err := eval(ctx, call.Args[0])
	if err != nil {
		return err
	}
	return accumulateDatum(st, v)
}

// accumulateDatum folds one evaluated argument into an aggregate state;
// shared by the reference and batch executors. A DISTINCT state folds a
// value at its first arrival and skips its repeats.
func accumulateDatum(st *aggState, v datum.D) error {
	if v.IsNull() {
		return nil
	}
	if st.distinct != nil {
		key := v.String()
		if _, seen := st.distinct[key]; seen {
			return nil
		}
		st.distinct[key] = v
	}
	st.count++
	if st.needs&aggNeedSum != 0 && v.IsNumeric() {
		if st.sum.IsNull() {
			st.sum = v
		} else {
			sum, err := datum.Arith('+', st.sum, v)
			if err != nil {
				return err
			}
			st.sum = sum
		}
	}
	if st.needs&aggNeedMin != 0 && (st.min.IsNull() || datum.Compare(v, st.min) < 0) {
		st.min = v
	}
	if st.needs&aggNeedMax != 0 && (st.max.IsNull() || datum.Compare(v, st.max) > 0) {
		st.max = v
	}
	return nil
}

func finalize(st *aggState, call *sqlparser.FuncCall) datum.D {
	switch call.Name {
	case "COUNT":
		return datum.NewInt(st.count)
	case "SUM":
		return st.sum
	case "AVG":
		if st.count == 0 || st.sum.IsNull() {
			return datum.Null
		}
		return datum.NewFloat(st.sum.Float() / float64(st.count))
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
	seen := make(map[string]bool, len(rows))
	var out []storage.Row
	for _, r := range rows {
		ctx.row = r
		key := ""
		for _, k := range n.SortKeys {
			v, err := eval(ctx, k.Expr)
			if err != nil {
				return nil, err
			}
			key += v.String() + "\x00"
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, r)
	}
	return out, nil
}
