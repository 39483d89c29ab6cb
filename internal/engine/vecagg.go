package engine

// vecagg.go is aggregation on the batch pipeline. One accumulator, aggAcc,
// serves the serial Aggregate, HashAggregate and GroupAggregate operators
// and every worker of a parallel aggregation (parallel.go), and one finish
// step turns its groups into output rows for both. The accumulator keeps
// its group keys (ordinals when every key is a bare column, bound closures
// otherwise), its aggregate arguments, a keyTable (keytable.go) of the
// group keys, and its groups in first-arrival order, so a group's index is
// its key's id; each group is tagged with the sequence of its first input
// row. A row of an existing group therefore allocates nothing, and a plain
// aggregate skips the key and the lookup after its first row. The
// parallel exchange merges the workers' groups into one more accumulator
// and orders them by that sequence, which is the serial first-arrival
// order.
//
// Arguments fold through typed kernels. An argument that is a column, a
// numeric literal, or +, - and * over those compiles to a numExpr, which
// evaluates a row to a kind and an int64 or a float64 with no closure call
// and no datum arithmetic, and every aggregate keeps a typed running sum
// (aggState.addInt, addFloat) with datum.Arith's result kinds, so SUM and
// AVG stay bit-identical to the reference executor. When the input is a
// scan, a column leaf reads the segment's INT or FLOAT vector at the
// batch origin the scan reports (vec.go), and a bare-column key reads the
// column's typed vector, so neither touches the row datums; otherwise, and
// for tail rows or columns without such a vector, they read the row datum.
// A NULL operand skips the row. An operand of any other kind sends the row
// through the argument's bound closure, so errors and the counting of
// non-numeric values are exactly the closure's. Division, unary minus,
// CASE, functions and DISTINCT arguments always run the bound closure.
// Rows fold one at a time in arrival order, so each group adds its floats
// in the reference executor's order.
//
// A DISTINCT aggregate folds each value at its first arrival, keeping the
// values it has folded in a keyTable, as the reference executor does, so
// serial results are bit-identical to it.

import (
	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// aggGroup is one group's key values (set when its accumulator hands it
// over), aggregate states and the sequence of its first input row.
type aggGroup struct {
	keyVals  []datum.D
	states   []aggState // value slice: one allocation per group, not per aggregate
	firstSeq int64
}

type aggAcc struct {
	aggs      []aggSpec
	keyOrds   []int             // group key ordinals, when every key is a bare column
	groupKeys []boundExpr       // bound group keys otherwise
	keyVecs   []*storage.ColVec // per keyOrds entry: the batch's typed vector, or nil for row datums
	args      []boundExpr       // nil entry for COUNT(*)
	nums      []*numExpr        // typed evaluator per argument; nil where only the closure applies
	leaves    []*numExpr        // the column leaves of nums
	having    boundExpr         // bound against the aggregate's output schema
	plain     bool              // no GROUP BY: empty input still yields one row

	keys       keyTable // group keys; a key's id indexes groups
	groups     []aggGroup
	keyScratch []datum.D
	env        rowEnv
}

func (v *vbuild) newAggAcc(n *Node) (*aggAcc, error) {
	childSchema := n.Children[0].Schema
	a := &aggAcc{
		aggs:       n.Aggs,
		plain:      len(n.GroupKeys) == 0,
		args:       make([]boundExpr, len(n.Aggs)),
		nums:       make([]*numExpr, len(n.Aggs)),
		keyScratch: make([]datum.D, len(n.GroupKeys)),
	}
	var err error
	if a.keyOrds = keyOrdinals(n.GroupKeys, childSchema); a.keyOrds != nil {
		a.keyVecs = make([]*storage.ColVec, len(a.keyOrds))
	} else if a.groupKeys, err = bindExprs(n.GroupKeys, childSchema, v.e.subquery); err != nil {
		return nil, err
	}
	for i, ag := range n.Aggs {
		if ag.Call.Star {
			continue
		}
		arg := ag.Call.Args[0]
		if a.args[i], err = bindExpr(arg, childSchema, v.e.subquery); err != nil {
			return nil, err
		}
		if ag.Call.Distinct {
			continue // a DISTINCT argument folds through its value set
		}
		if x := compileNum(arg, childSchema); x != nil {
			a.nums[i] = x
			a.leaves = x.appendLeaves(a.leaves)
		}
	}
	if n.HavingFilter != nil {
		if a.having, err = bindExpr(n.HavingFilter, n.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// numVal is a typed argument value: KInt or KFloat with its payload in i
// or f, KNull, or any other kind, whose row the bound closure evaluates.
type numVal struct {
	kind datum.Kind
	i    int64
	f    float64
}

func numOf(v datum.D) numVal {
	switch v.Kind() {
	case datum.KInt:
		return numVal{kind: datum.KInt, i: v.Int()}
	case datum.KFloat:
		return numVal{kind: datum.KFloat, f: v.Float()}
	}
	return numVal{kind: v.Kind()}
}

// other reports a kind the typed kernels do not evaluate.
func (v numVal) other() bool {
	return v.kind != datum.KNull && v.kind != datum.KInt && v.kind != datum.KFloat
}

func (v numVal) float() float64 {
	if v.kind == datum.KInt {
		return float64(v.i)
	}
	return v.f
}

// numExpr is an aggregate argument compiled to a typed evaluator: a column
// leaf, a numeric literal leaf, or a +, - or * node over two operands.
type numExpr struct {
	op   sqlparser.BinOp // a node's operator
	l, r *numExpr        // a node's operands; nil for a leaf
	ord  int             // a column leaf's ordinal; -1 for a literal leaf
	lit  numVal          // a literal leaf's value
	// vec is a column leaf's INT or FLOAT vector in the segment the current
	// batch comes from, or nil to read the row datum.
	vec *storage.ColVec
}

// compileNum compiles e over schema into a typed evaluator, or returns nil
// when e is not a column, a numeric literal, or +, - or * over those. It
// resolves each subexpression as bind does: a literal is its value, and
// any other expression the schema carries as a column, computed ones
// included, reads that column.
func compileNum(e sqlparser.Expr, schema []colRef) *numExpr {
	if lit, ok := e.(*sqlparser.Literal); ok {
		if !lit.Value.IsNumeric() {
			return nil
		}
		return &numExpr{ord: -1, lit: numOf(lit.Value)}
	}
	if ord, ok := columnOrdinal(e, schema); ok {
		return &numExpr{ord: ord}
	}
	b, ok := e.(*sqlparser.BinaryExpr)
	if !ok || (b.Op != sqlparser.OpAdd && b.Op != sqlparser.OpSub && b.Op != sqlparser.OpMul) {
		return nil
	}
	l, r := compileNum(b.Left, schema), compileNum(b.Right, schema)
	if l == nil || r == nil {
		return nil
	}
	return &numExpr{op: b.Op, l: l, r: r}
}

// appendLeaves appends the column leaves of x to out.
func (x *numExpr) appendLeaves(out []*numExpr) []*numExpr {
	switch {
	case x.l != nil:
		return x.r.appendLeaves(x.l.appendLeaves(out))
	case x.ord >= 0:
		return append(out, x)
	}
	return out
}

// eval evaluates x over batch row r, which is row i of the origin segment
// when the leaves hold typed vectors. The kinds follow datum.Arith: a
// non-numeric operand makes the result that kind (the caller runs the
// bound closure, which reports the error Arith gives), then a NULL operand
// makes it NULL, two integers stay an integer (wrapping on overflow), and
// anything else widens to float.
func (x *numExpr) eval(r storage.Row, i int32) numVal {
	if x.l == nil {
		switch {
		case x.vec != nil:
			if x.vec.Null(int(i)) {
				return numVal{}
			}
			if x.vec.Kind == datum.KInt {
				return numVal{kind: datum.KInt, i: x.vec.Ints[i]}
			}
			return numVal{kind: datum.KFloat, f: x.vec.Floats[i]}
		case x.ord < 0:
			return x.lit
		}
		return numOf(r[x.ord])
	}
	a, b := x.l.eval(r, i), x.r.eval(r, i)
	switch {
	case a.other():
		return a
	case b.other():
		return b
	case a.kind == datum.KNull:
		return a
	case b.kind == datum.KNull:
		return b
	case a.kind == datum.KInt && b.kind == datum.KInt:
		switch x.op {
		case sqlparser.OpAdd:
			return numVal{kind: datum.KInt, i: a.i + b.i}
		case sqlparser.OpSub:
			return numVal{kind: datum.KInt, i: a.i - b.i}
		}
		return numVal{kind: datum.KInt, i: a.i * b.i}
	}
	af, bf := a.float(), b.float()
	switch x.op {
	case sqlparser.OpAdd:
		return numVal{kind: datum.KFloat, f: af + bf}
	case sqlparser.OpSub:
		return numVal{kind: datum.KFloat, f: af - bf}
	}
	return numVal{kind: datum.KFloat, f: af * bf}
}

// foldNum folds a typed argument value, of the row at sequence seq, into
// st as accumulateDatum folds the same datum, and reports whether it
// could: a value of a kind the kernels do not evaluate must go through the
// bound closure instead.
func (st *aggState) foldNum(v numVal, seq int64) bool {
	switch v.kind {
	case datum.KNull:
	case datum.KInt:
		st.count++
		if st.needs&aggNeedSum != 0 {
			st.addInt(v.i)
		}
		if st.needs&(aggNeedMin|aggNeedMax) != 0 {
			st.foldMinMax(datum.NewInt(v.i), seq)
		}
	case datum.KFloat:
		st.count++
		if st.needs&aggNeedSum != 0 {
			st.addFloat(v.f)
		}
		if st.needs&(aggNeedMin|aggNeedMax) != 0 {
			st.foldMinMax(datum.NewFloat(v.f), seq)
		}
	default:
		return false
	}
	return true
}

func newAggStates(aggs []aggSpec) []aggState {
	states := make([]aggState, len(aggs))
	for i, ag := range aggs {
		states[i] = newAggState(ag.Call)
	}
	return states
}

// reset starts an empty run.
func (a *aggAcc) reset() {
	a.keys.reset(len(a.keyScratch), 0)
	a.groups = nil
}

// addBatch folds a batch of input rows into their groups; seq is the
// sequence of the batch's first row, and each later row's is one more. at
// locates the batch in a loaded segment when the input is a scan, and is
// zero otherwise.
func (a *aggAcc) addBatch(b []storage.Row, seq int64, at segRows) error {
	a.bindVectors(at.sd)
	for j, r := range b {
		a.env.left = r
		var i int32
		if at.sd != nil {
			i = at.row(j)
		}
		rowSeq := seq + int64(j)
		states, err := a.groupStates(r, i, rowSeq)
		if err != nil {
			return err
		}
		for k, arg := range a.args {
			st := &states[k]
			if arg == nil {
				st.count++
				continue
			}
			if x := a.nums[k]; x != nil && st.foldNum(x.eval(r, i), rowSeq) {
				continue
			}
			v, err := arg(&a.env)
			if err != nil {
				return err
			}
			accumulateDatum(st, v, rowSeq)
		}
	}
	return nil
}

// bindVectors points the column leaves and bare-column keys at the typed
// vectors of sd, the segment the next batch comes from: INT and FLOAT
// vectors for the leaves, any typed vector for the keys. A nil sd, or a
// column without such a vector, leaves them reading row datums.
func (a *aggAcc) bindVectors(sd *storage.SegData) {
	for _, x := range a.leaves {
		x.vec = nil
		if sd != nil {
			if vec := sd.Col(x.ord); vec.Kind == datum.KInt || vec.Kind == datum.KFloat {
				x.vec = vec
			}
		}
	}
	for k, ord := range a.keyOrds {
		a.keyVecs[k] = nil
		if sd != nil && sd.Col(ord).Kind != datum.KNull {
			a.keyVecs[k] = sd.Col(ord)
		}
	}
}

// groupStates returns the aggregate states of the group of batch row r,
// which is row i of the origin segment when the keys hold typed vectors,
// adding the group, first seen at sequence seq, when it is new.
func (a *aggAcc) groupStates(r storage.Row, i int32, seq int64) ([]aggState, error) {
	if a.plain && len(a.groups) > 0 {
		return a.groups[0].states, nil
	}
	for k := range a.keyOrds {
		a.keyScratch[k] = a.keyAt(k, r, i)
	}
	for k, key := range a.groupKeys {
		v, err := key(&a.env)
		if err != nil {
			return nil, err
		}
		a.keyScratch[k] = v
	}
	gi, added := a.keys.insert(a.keyScratch, hashKey(a.keyScratch))
	if added {
		a.groups = append(a.groups, aggGroup{states: newAggStates(a.aggs), firstSeq: seq})
	}
	return a.groups[gi].states, nil
}

// keyAt returns bare-column key k of batch row r, which is row i of the
// origin segment: from the key's typed vector when it has one, else the
// row datum. Both hold the same value.
func (a *aggAcc) keyAt(k int, r storage.Row, i int32) datum.D {
	vec := a.keyVecs[k]
	switch {
	case vec == nil:
		return r[a.keyOrds[k]]
	case vec.Null(int(i)):
		return datum.Null
	case vec.Kind == datum.KInt:
		return datum.NewInt(vec.Ints[i])
	case vec.Kind == datum.KFloat:
		return datum.NewFloat(vec.Floats[i])
	}
	return datum.NewString(vec.Strs[i])
}

// merge folds groups another accumulator of the same aggregate handed over
// into this one. A group new here is adopted whole; an existing one merges
// its states and keeps the key values and sequence of the earlier first
// row, since equal keys may differ in kind or sign (1 and 1.0, 0.0 and
// -0.0) and a group shows its first row's.
func (a *aggAcc) merge(groups []aggGroup) {
	for i := range groups {
		g := &groups[i]
		gi, added := a.keys.insert(g.keyVals, hashKey(g.keyVals))
		if added {
			a.groups = append(a.groups, *g)
			continue
		}
		dst := &a.groups[gi]
		if g.firstSeq < dst.firstSeq {
			dst.keyVals, dst.firstSeq = g.keyVals, g.firstSeq
		}
		for j := range dst.states {
			dst.states[j].merge(&g.states[j])
		}
	}
}

// take hands the groups over, each with its key values (a group merge
// adopted keeps the values it came with), and drops the accumulator's
// references to them and to the key table holding those values, so they
// are garbage once their consumer is done.
func (a *aggAcc) take() []aggGroup {
	g, w := a.groups, a.keys.width
	for i := range g {
		if g[i].keyVals == nil {
			g[i].keyVals = a.keys.keys[i*w : (i+1)*w : (i+1)*w]
		}
	}
	a.keys, a.groups = keyTable{}, nil
	return g
}

// finish turns groups, in their order, into output rows: the key values,
// then each aggregate finalized, kept when HAVING holds. A plain
// aggregate over empty input yields its one row.
func (a *aggAcc) finish(groups []aggGroup) ([]storage.Row, error) {
	if a.plain && len(groups) == 0 {
		groups = []aggGroup{{states: newAggStates(a.aggs)}}
	}
	out := make([]storage.Row, 0, len(groups))
	for gi := range groups {
		g := &groups[gi]
		row := make(storage.Row, 0, len(g.keyVals)+len(g.states))
		row = append(row, g.keyVals...)
		for i, ag := range a.aggs {
			row = append(row, finalize(&g.states[i], ag.Call))
		}
		if a.having != nil {
			a.env.left = row
			v, err := a.having(&a.env)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// merge folds another partial state of the same aggregate into st. A
// DISTINCT state counts and sums the other side's values it has not seen,
// in the other side's arrival order, which differs from the serial one;
// that is safe only because aggsMergeable admits order-insensitive
// aggregates alone. MIN and MAX keep, of equal values, the one from the
// earlier row, as the serial fold does, whatever order the partial states
// merge in: 0.0 and -0.0, or 1e6 and 1000000, are equal but print apart.
func (st *aggState) merge(o *aggState) {
	if st.distinct != nil {
		for _, v := range o.distinct.keys {
			if st.firstArrival(v) {
				st.foldCountSum(v)
			}
		}
	} else {
		st.count += o.count
		switch o.sumKind {
		case datum.KInt:
			st.addInt(o.sumInt)
		case datum.KFloat:
			st.addFloat(o.sumFloat)
		}
	}
	if !o.min.IsNull() && (st.min.IsNull() || replaces(datum.Compare(o.min, st.min), o.minSeq, st.minSeq)) {
		st.min, st.minSeq = o.min, o.minSeq
	}
	if !o.max.IsNull() && (st.max.IsNull() || replaces(datum.Compare(st.max, o.max), o.maxSeq, st.maxSeq)) {
		st.max, st.maxSeq = o.max, o.maxSeq
	}
}

// replaces reports whether a candidate MIN or MAX, of the row at sequence
// seq, replaces the current one, of the row at cur, given c, which is
// negative when the candidate is the better value: it must be better, or
// equal and earlier.
func replaces(c int, seq, cur int64) bool {
	return c < 0 || c == 0 && seq < cur
}

// aggVec is the blocking aggregate: Open folds every input batch into the
// accumulator and finishes it, and NextBatch hands out the rows.
type aggVec struct {
	child vecIter
	src   batchOrigin // the child, when it reports batch origins
	acc   *aggAcc
	out   rowsOut
}

func (v *vbuild) newAggVec(n *Node) (*aggVec, error) {
	child, err := v.build(n.Children[0])
	if err != nil {
		return nil, err
	}
	acc, err := v.newAggAcc(n)
	if err != nil {
		return nil, err
	}
	src, _ := child.(batchOrigin)
	return &aggVec{child: child, src: src, acc: acc}, nil
}

func (it *aggVec) Open() error {
	if err := it.child.Open(); err != nil {
		return err
	}
	it.acc.reset()
	var seq int64
	for {
		b, err := it.child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		var at segRows
		if it.src != nil {
			at = it.src.origin()
		}
		if err := it.acc.addBatch(b, seq, at); err != nil {
			return err
		}
		seq += int64(len(b))
	}
	rows, err := it.acc.finish(it.acc.take())
	if err != nil {
		return err
	}
	it.out.set(rows)
	return nil
}

func (it *aggVec) NextBatch() ([]storage.Row, error) { return it.out.next(), nil }

func (it *aggVec) Close() error { return it.child.Close() }
