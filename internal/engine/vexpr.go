package engine

// vexpr.go compiles filter predicates into vectorized selectors for the
// batch executor (vec.go). Where bind.go compiles an expression into a
// per-row closure, compileVecPred goes one step further for the predicate
// shapes that dominate scan filters — comparisons of a column against a
// literal or another column, IS [NOT] NULL, x BETWEEN lit AND lit (the
// conjunction x >= lit AND x <= lit), x IN (lit, ...), and conjunctions
// of those — and emits a selector that runs a tight typed loop: one
// ordinal load and one comparison per row, no closure calls, no
// three-valued-logic boxing. The same selectors refute whole segments from
// their zone maps. Anything the specializer does not recognize (NOT
// BETWEEN, NOT IN, IN (subquery), non-literal bounds or items, and every
// other expression) falls back to the pre-bound closure from bind.go
// evaluated row-by-row, so vectorized filtering is never less general than
// a bound expression.
//
// A selector filters two forms of input. Over a loaded segment it narrows
// a selection vector, the indices of the rows still in play: each conjunct
// compacts it in place with its typed loop over the segment's column
// vectors, so the second and later conjuncts of a conjunction run typed
// loops too, and the scan gathers row headers once, for the final
// survivors (narrow). Over row headers (the unsealed tail, index-scan
// candidates) it appends the survivors to a new slice (selectInto).
//
// SQL semantics are preserved exactly: a comparison with a NULL operand is
// not true, so the row is dropped — identical to what truthy(bound(env))
// yields — and every typed loop decides a row as datum.Compare orders its
// kind pairing. The differential tests pin both forms against the
// reference executor.

import (
	"slices"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// vecPred filters a batch. selectInto appends the rows of in that satisfy
// the predicate to out and returns it; in rows must not be mutated, and out
// must not alias in except as in[:0] (selection only drops rows, never
// reorders ones already written). narrow keeps the entries of sel, row
// indices into the loaded segment payload sd, whose rows satisfy the
// predicate: it compacts sel in place, preserving order, and returns the
// shortened slice.
type vecPred interface {
	selectInto(out []storage.Row, in []storage.Row) ([]storage.Row, error)
	narrow(sd *storage.SegData, sel []int32) ([]int32, error)
}

// compileVecPred compiles e into a vectorized selector over schema.
func compileVecPred(e sqlparser.Expr, schema []colRef, sub subqueryFn) (vecPred, error) {
	// Conjunctions chain specialized selectors; each conjunct filters the
	// survivors of the previous one.
	if conds := sqlparser.SplitConjuncts(e); len(conds) > 1 {
		preds := make([]vecPred, len(conds))
		for i, c := range conds {
			p, err := compileVecPred(c, schema, sub)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		return &andPred{preds: preds}, nil
	}
	if p := specializePred(e, schema); p != nil {
		return p, nil
	}
	b, err := bindExpr(e, schema, sub)
	if err != nil {
		return nil, err
	}
	return &exprPred{bound: b}, nil
}

// specializePred recognizes the typed-loop-able predicate shapes; nil means
// "use the closure fallback".
func specializePred(e sqlparser.Expr, schema []colRef) vecPred {
	switch ex := e.(type) {
	case *sqlparser.BinaryExpr:
		switch ex.Op {
		case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		default:
			return nil
		}
		lOrd, lCol := columnOrdinal(ex.Left, schema)
		rOrd, rCol := columnOrdinal(ex.Right, schema)
		lLit, lIsLit := literalValue(ex.Left)
		rLit, rIsLit := literalValue(ex.Right)
		switch {
		case lCol && rIsLit:
			return &cmpColLit{ord: lOrd, op: ex.Op, lit: rLit}
		case lIsLit && rCol:
			return &cmpColLit{ord: rOrd, op: flipCmp(ex.Op), lit: lLit}
		case lCol && rCol:
			return &cmpColCol{a: lOrd, b: rOrd, op: ex.Op}
		}
	case *sqlparser.IsNullExpr:
		if ord, ok := columnOrdinal(ex.X, schema); ok {
			return &isNullPred{ord: ord, not: ex.Not}
		}
	case *sqlparser.BetweenExpr:
		// x BETWEEN lo AND hi means x >= lo AND x <= hi (betweenVerdict),
		// so it compiles to those two comparisons and inherits their zone
		// checks and typed loops.
		ord, isCol := columnOrdinal(ex.X, schema)
		lo, loLit := literalValue(ex.Lo)
		hi, hiLit := literalValue(ex.Hi)
		if !ex.Not && isCol && loLit && hiLit {
			return &andPred{preds: []vecPred{
				&cmpColLit{ord: ord, op: sqlparser.OpGe, lit: lo},
				&cmpColLit{ord: ord, op: sqlparser.OpLe, lit: hi},
			}}
		}
	case *sqlparser.InExpr:
		if p := newInColLit(ex, schema); p != nil {
			return p
		}
	}
	return nil
}

func literalValue(e sqlparser.Expr) (datum.D, bool) {
	if lit, ok := e.(*sqlparser.Literal); ok {
		return lit.Value, true
	}
	return datum.Null, false
}

// flipCmp mirrors a comparison operator for swapped operands
// (lit op col ⇒ col flip(op) lit).
func flipCmp(op sqlparser.BinOp) sqlparser.BinOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLe:
		return sqlparser.OpGe
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGe:
		return sqlparser.OpLe
	}
	return op // Eq / Ne are symmetric
}

// cmpHolds evaluates the comparison verdict from a three-way compare.
func cmpHolds(op sqlparser.BinOp, c int) bool {
	switch op {
	case sqlparser.OpEq:
		return c == 0
	case sqlparser.OpNe:
		return c != 0
	case sqlparser.OpLt:
		return c < 0
	case sqlparser.OpLe:
		return c <= 0
	case sqlparser.OpGt:
		return c > 0
	case sqlparser.OpGe:
		return c >= 0
	}
	return false
}

// cmpColLit is the workhorse: column ⟨op⟩ constant in one typed loop.
// NULL column values fail the comparison (SQL three-valued logic: NULL
// predicates are not true). A NULL literal rejects every row.
type cmpColLit struct {
	ord int
	op  sqlparser.BinOp
	lit datum.D
}

// holds is the row verdict every loop of cmpColLit reproduces.
func (p *cmpColLit) holds(v datum.D) bool {
	return !v.IsNull() && cmpHolds(p.op, datum.Compare(v, p.lit))
}

func (p *cmpColLit) selectInto(out []storage.Row, in []storage.Row) ([]storage.Row, error) {
	if p.lit.IsNull() {
		return out, nil
	}
	// Fast integer path: the common TPC-H filter compares an int column to
	// an int literal; skip datum.Compare's kind dispatch for int values.
	if p.lit.Kind() == datum.KInt {
		lv := p.lit.Int()
		for _, r := range in {
			var ok bool
			if v := r[p.ord]; v.Kind() == datum.KInt {
				ok = holds(p.op, v.Int(), lv)
			} else {
				ok = p.holds(v)
			}
			if ok {
				out = append(out, r)
			}
		}
		return out, nil
	}
	for _, r := range in {
		if p.holds(r[p.ord]) {
			out = append(out, r)
		}
	}
	return out, nil
}

// cmpColCol compares two columns of the same row.
type cmpColCol struct {
	a, b int
	op   sqlparser.BinOp
}

func (p *cmpColCol) holds(r storage.Row) bool {
	av, bv := r[p.a], r[p.b]
	return !av.IsNull() && !bv.IsNull() && cmpHolds(p.op, datum.Compare(av, bv))
}

func (p *cmpColCol) selectInto(out []storage.Row, in []storage.Row) ([]storage.Row, error) {
	for _, r := range in {
		if p.holds(r) {
			out = append(out, r)
		}
	}
	return out, nil
}

// isNullPred implements IS [NOT] NULL on a column.
type isNullPred struct {
	ord int
	not bool
}

func (p *isNullPred) selectInto(out []storage.Row, in []storage.Row) ([]storage.Row, error) {
	for _, r := range in {
		if r[p.ord].IsNull() != p.not {
			out = append(out, r)
		}
	}
	return out, nil
}

// inColLit is x IN (lit, ...): a row survives when x is non-NULL and
// compares equal under datum.Compare to one of the literals, which is
// what bindIn's datum.Equal decides. NULL items are dropped at compile
// time: they can only turn a false verdict into NULL, and a filter
// rejects both. The typed segment loops probe a sorted copy of the
// literals, built here once, when every literal is an integer or every
// literal is a string.
type inColLit struct {
	ord  int
	lits []datum.D // the non-NULL items
	ints []int64   // sorted, when every literal is an integer
	strs []string  // sorted, when every literal is a string
}

// newInColLit compiles x IN (lit, ...) over a column; nil for NOT IN, a
// subquery, or any item that is not a literal.
func newInColLit(ex *sqlparser.InExpr, schema []colRef) *inColLit {
	if ex.Not || ex.Subquery != nil {
		return nil
	}
	ord, ok := columnOrdinal(ex.X, schema)
	if !ok {
		return nil
	}
	p := &inColLit{ord: ord}
	var ints []int64
	var strs []string
	for _, item := range ex.List {
		v, ok := literalValue(item)
		if !ok {
			return nil
		}
		switch v.Kind() {
		case datum.KNull:
			continue
		case datum.KInt:
			ints = append(ints, v.Int())
		case datum.KString:
			strs = append(strs, v.Str())
		}
		p.lits = append(p.lits, v)
	}
	if len(ints) == len(p.lits) {
		p.ints = ints
		slices.Sort(p.ints)
	}
	if len(strs) == len(p.lits) {
		p.strs = strs
		slices.Sort(p.strs)
	}
	return p
}

func (p *inColLit) holds(v datum.D) bool {
	if v.IsNull() {
		return false
	}
	for _, lit := range p.lits {
		if datum.Compare(v, lit) == 0 {
			return true
		}
	}
	return false
}

func (p *inColLit) selectInto(out []storage.Row, in []storage.Row) ([]storage.Row, error) {
	for _, r := range in {
		if p.holds(r[p.ord]) {
			out = append(out, r)
		}
	}
	return out, nil
}

// andPred chains conjuncts: each filters the survivors of the previous.
// selectInto holds intermediate survivor sets in the scratch buffers, and
// the final conjunct writes directly into out; narrow needs none, since
// every conjunct compacts the one selection vector in place.
type andPred struct {
	preds   []vecPred
	scratch [2][]storage.Row
}

func (p *andPred) selectInto(out []storage.Row, in []storage.Row) ([]storage.Row, error) {
	cur := in
	var err error
	for i, pred := range p.preds {
		if i == len(p.preds)-1 {
			return pred.selectInto(out, cur)
		}
		buf := p.scratch[i%2][:0]
		if buf == nil {
			buf = make([]storage.Row, 0, batchSize)
		}
		buf, err = pred.selectInto(buf, cur)
		if err != nil {
			return out, err
		}
		p.scratch[i%2] = buf
		cur = buf
	}
	return append(out, cur...), nil // unreachable for len(preds) >= 1
}

// exprPred is the general fallback: the pre-bound closure from bind.go
// evaluated per row. Still batch-amortized — the per-batch virtual call is
// shared across up to batchSize rows.
type exprPred struct {
	bound boundExpr
	env   rowEnv
}

func (p *exprPred) selectInto(out []storage.Row, in []storage.Row) ([]storage.Row, error) {
	for _, r := range in {
		p.env.left = r
		v, err := p.bound(&p.env)
		if err != nil {
			return out, err
		}
		if truthy(v) {
			out = append(out, r)
		}
	}
	return out, nil
}

// --- Zone-map pruning and segment selection ----------------------------------
//
// Scan schemas list table columns in declared order, so a predicate ordinal
// indexes a segment's zone maps and column vectors directly. Pruning reads
// the zone maps, which stay resident; narrow reads the payload a scan
// faulted in (and pinned) through the buffer pool, never the Segment
// itself, so the two stay on opposite sides of the I/O boundary. Both are
// conservative: a predicate shape without pruning support never prunes,
// and a column without a typed vector (or a kind pairing outside the typed
// loops) decides each row datum as selectInto does, so neither changes a
// result. The differential corpus pins that.

// zonePruner is implemented by predicates that can refute a whole sealed
// segment from its per-column zone maps: true means no row of the segment
// can satisfy the predicate, so the scan skips it without touching data.
type zonePruner interface {
	prunesSegment(seg *storage.Segment) bool
}

// segPruned reports whether p provably rejects every row of seg.
func segPruned(p vecPred, seg *storage.Segment) bool {
	zp, ok := p.(zonePruner)
	return ok && zp.prunesSegment(seg)
}

// prunesSegment refutes a comparison from the column's zone map. Bounds
// are compared with datum.Compare — the same total order selectInto's
// verdicts refine — so a pruned segment can never contain a surviving row:
// selectInto keeps a row only if cmpHolds(op, Compare(v, lit)), and the
// zone map bounds every non-NULL v under that order.
func (p *cmpColLit) prunesSegment(seg *storage.Segment) bool {
	if p.lit.IsNull() {
		return true // a NULL literal rejects every row
	}
	zm := seg.Zone(p.ord)
	if zm.Min.IsNull() {
		return true // only NULLs in the segment; comparisons are never true
	}
	cMin := datum.Compare(p.lit, zm.Min)
	cMax := datum.Compare(p.lit, zm.Max)
	switch p.op {
	case sqlparser.OpEq:
		return cMin < 0 || cMax > 0
	case sqlparser.OpNe:
		// Refutable only when every value equals the literal.
		return cMin == 0 && cMax == 0
	case sqlparser.OpLt: // v < lit impossible when min >= lit
		return cMin <= 0
	case sqlparser.OpLe:
		return cMin < 0
	case sqlparser.OpGt: // v > lit impossible when max <= lit
		return cMax >= 0
	case sqlparser.OpGe:
		return cMax > 0
	}
	return false
}

// narrow runs the comparison over the typed column vector where the kind
// pairing has a typed loop: int with int, string with string, and any
// other numeric pairing widened to float, as datum.Compare widens it. Any
// other pairing, or a column without a typed vector, decides each row
// datum.
func (p *cmpColLit) narrow(sd *storage.SegData, sel []int32) ([]int32, error) {
	if p.lit.IsNull() {
		return sel[:0], nil
	}
	vec := sd.Col(p.ord)
	switch lk := p.lit.Kind(); {
	case vec.Kind == datum.KInt && lk == datum.KInt:
		return narrowLit(sel, vec, vec.Ints, p.op, p.lit.Int()), nil
	case vec.Kind == datum.KFloat && p.lit.IsNumeric():
		return narrowLit(sel, vec, vec.Floats, p.op, p.lit.Float()), nil
	case vec.Kind == datum.KString && lk == datum.KString:
		return narrowLit(sel, vec, vec.Strs, p.op, p.lit.Str()), nil
	case vec.Kind == datum.KInt && lk == datum.KFloat:
		lf, n := p.lit.Float(), 0
		for _, i := range sel {
			if !vec.Null(int(i)) && holds(p.op, float64(vec.Ints[i]), lf) {
				sel[n] = i
				n++
			}
		}
		return sel[:n], nil
	}
	rows, n := sd.Rows(), 0
	for _, i := range sel {
		if p.holds(rows[i][p.ord]) {
			sel[n] = i
			n++
		}
	}
	return sel[:n], nil
}

// narrow compares the two typed vectors row by row: same-kind pairs
// directly, an INT against a FLOAT column widened to float as
// datum.Compare widens. Other pairings decide each row's datums.
func (p *cmpColCol) narrow(sd *storage.SegData, sel []int32) ([]int32, error) {
	a, b := sd.Col(p.a), sd.Col(p.b)
	switch {
	case a.Kind == datum.KInt && b.Kind == datum.KInt:
		return narrowCols(sel, a, b, a.Ints, b.Ints, p.op), nil
	case a.Kind == datum.KFloat && b.Kind == datum.KFloat:
		return narrowCols(sel, a, b, a.Floats, b.Floats, p.op), nil
	case a.Kind == datum.KString && b.Kind == datum.KString:
		return narrowCols(sel, a, b, a.Strs, b.Strs, p.op), nil
	case a.Kind == datum.KInt && b.Kind == datum.KFloat:
		return narrowIntFloat(sel, a, b, p.op), nil
	case a.Kind == datum.KFloat && b.Kind == datum.KInt:
		return narrowIntFloat(sel, b, a, flipCmp(p.op)), nil
	}
	rows, n := sd.Rows(), 0
	for _, i := range sel {
		if p.holds(rows[i]) {
			sel[n] = i
			n++
		}
	}
	return sel[:n], nil
}

// holds reports whether a op b holds for two values of one kind, as
// cmpHolds decides it from datum.Compare. Every case is written with < so
// that a float NaN, which Compare finds equal to everything, passes =, <=
// and >= and fails <, > and <>, and so that a string case costs one
// comparison where it can.
func holds[T int64 | float64 | string](op sqlparser.BinOp, a, b T) bool {
	switch op {
	case sqlparser.OpLt:
		return a < b
	case sqlparser.OpLe:
		return !(b < a)
	case sqlparser.OpGt:
		return b < a
	case sqlparser.OpGe:
		return !(a < b)
	case sqlparser.OpEq:
		return !(a < b) && !(b < a)
	case sqlparser.OpNe:
		return a < b || b < a
	}
	return false
}

// narrowLit keeps the entries of sel whose non-NULL value in vals, the
// payload of vec, compares with lit as op requires.
func narrowLit[T int64 | float64 | string](sel []int32, vec *storage.ColVec, vals []T, op sqlparser.BinOp, lit T) []int32 {
	n := 0
	for _, i := range sel {
		if !vec.Null(int(i)) && holds(op, vals[i], lit) {
			sel[n] = i
			n++
		}
	}
	return sel[:n]
}

// narrowCols keeps the entries of sel where both columns are non-NULL and
// compare as op requires.
func narrowCols[T int64 | float64 | string](sel []int32, va, vb *storage.ColVec, a, b []T, op sqlparser.BinOp) []int32 {
	n := 0
	for _, i := range sel {
		if !va.Null(int(i)) && !vb.Null(int(i)) && holds(op, a[i], b[i]) {
			sel[n] = i
			n++
		}
	}
	return sel[:n]
}

// narrowIntFloat is narrowCols for an INT column compared with a FLOAT
// one, the integer widened to float.
func narrowIntFloat(sel []int32, ints, floats *storage.ColVec, op sqlparser.BinOp) []int32 {
	n := 0
	for _, i := range sel {
		if !ints.Null(int(i)) && !floats.Null(int(i)) && holds(op, float64(ints.Ints[i]), floats.Floats[i]) {
			sel[n] = i
			n++
		}
	}
	return sel[:n]
}

// prunesSegment refutes IS [NOT] NULL from the zone map's null count.
func (p *isNullPred) prunesSegment(seg *storage.Segment) bool {
	zm := seg.Zone(p.ord)
	if p.not {
		return zm.NullCount == seg.NumRows()
	}
	return zm.NullCount == 0
}

// narrow answers IS [NOT] NULL from the null bitmap alone — the bitmap is
// built for every column, typed vector or not.
func (p *isNullPred) narrow(sd *storage.SegData, sel []int32) ([]int32, error) {
	vec := sd.Col(p.ord)
	n := 0
	for _, i := range sel {
		if vec.Null(int(i)) != p.not {
			sel[n] = i
			n++
		}
	}
	return sel[:n], nil
}

// prunesSegment refutes an IN list when the zone map refutes equality
// with every literal, as cmpColLit does for one.
func (p *inColLit) prunesSegment(seg *storage.Segment) bool {
	zm := seg.Zone(p.ord)
	if zm.Min.IsNull() {
		return true // only NULLs in the segment
	}
	for _, lit := range p.lits {
		if datum.Compare(lit, zm.Min) >= 0 && datum.Compare(lit, zm.Max) <= 0 {
			return false
		}
	}
	return true
}

// narrow probes the sorted literal set with the typed vector's values for
// an integer column and integer literals, or a string column and string
// literals; any other pairing decides each row datum.
func (p *inColLit) narrow(sd *storage.SegData, sel []int32) ([]int32, error) {
	vec := sd.Col(p.ord)
	switch {
	case vec.Kind == datum.KInt && p.ints != nil:
		return narrowIn(sel, vec, vec.Ints, p.ints), nil
	case vec.Kind == datum.KString && p.strs != nil:
		return narrowIn(sel, vec, vec.Strs, p.strs), nil
	}
	rows, n := sd.Rows(), 0
	for _, i := range sel {
		if p.holds(rows[i][p.ord]) {
			sel[n] = i
			n++
		}
	}
	return sel[:n], nil
}

// narrowIn keeps the entries of sel whose non-NULL value in vals is in the
// sorted set.
func narrowIn[T int64 | string](sel []int32, vec *storage.ColVec, vals, set []T) []int32 {
	n := 0
	for _, i := range sel {
		if vec.Null(int(i)) {
			continue
		}
		if _, ok := slices.BinarySearch(set, vals[i]); ok {
			sel[n] = i
			n++
		}
	}
	return sel[:n]
}

// prunesSegment: a conjunction is refuted when any conjunct is.
func (p *andPred) prunesSegment(seg *storage.Segment) bool {
	for _, pred := range p.preds {
		if segPruned(pred, seg) {
			return true
		}
	}
	return false
}

// narrow narrows the selection through each conjunct in order, each over
// the survivors of the previous one.
func (p *andPred) narrow(sd *storage.SegData, sel []int32) ([]int32, error) {
	var err error
	for _, pred := range p.preds {
		if len(sel) == 0 {
			break
		}
		if sel, err = pred.narrow(sd, sel); err != nil {
			return sel, err
		}
	}
	return sel, nil
}

// narrow evaluates the bound closure on each selected row.
func (p *exprPred) narrow(sd *storage.SegData, sel []int32) ([]int32, error) {
	rows, n := sd.Rows(), 0
	for _, i := range sel {
		p.env.left = rows[i]
		v, err := p.bound(&p.env)
		if err != nil {
			return sel[:n], err
		}
		if truthy(v) {
			sel[n] = i
			n++
		}
	}
	return sel[:n], nil
}

// keyOrdinals resolves sort and group key expressions to schema ordinals
// when every key is a bare column reference — the dominant case — so batch
// key evaluation is a direct index load per key instead of a closure call.
// Returns nil when any key needs general evaluation.
func keyOrdinals(exprs []sqlparser.Expr, schema []colRef) []int {
	ords := make([]int, len(exprs))
	for i, e := range exprs {
		ord, ok := columnOrdinal(e, schema)
		if !ok {
			return nil
		}
		ords[i] = ord
	}
	return ords
}
