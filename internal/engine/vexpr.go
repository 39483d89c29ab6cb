package engine

// vexpr.go compiles filter predicates into vectorized selectors for the
// batch executor (vec.go). Where bind.go compiles an expression into a
// per-row closure, compileVecPred goes one step further for the predicate
// shapes that dominate scan filters — comparisons of a column against a
// literal or another column, IS [NOT] NULL, and conjunctions of those —
// and emits a selector that runs a tight typed loop over a whole batch:
// one ordinal load and one datum comparison per row, no closure calls, no
// three-valued-logic boxing. Anything the specializer does not recognize
// falls back to the pre-bound closure from bind.go evaluated row-by-row,
// so vectorized filtering is never less general than a bound expression.
//
// SQL semantics are preserved exactly: a comparison with a NULL operand is
// not true, so the row is dropped — identical to what truthy(bound(env))
// yields, and pinned against the reference executor by the differential
// tests.

import (
	"strings"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// vecPred filters a batch: rows that satisfy the predicate are appended to
// out (which is returned). in rows must not be mutated; out must not alias
// in (callers pass a distinct buffer or use filterInPlace-style
// compaction via out = in[:0], which is safe because selection only drops
// rows, never reorders ones already written).
type vecPred interface {
	selectInto(out []storage.Row, in []storage.Row) ([]storage.Row, error)
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

func (p *cmpColLit) selectInto(out []storage.Row, in []storage.Row) ([]storage.Row, error) {
	if p.lit.IsNull() {
		return out, nil
	}
	// Fast integer path: the common TPC-H filter compares an int column to
	// an int literal; skip datum.Compare's kind dispatch entirely.
	if p.lit.Kind() == datum.KInt {
		lv := p.lit.Int()
		for _, r := range in {
			v := r[p.ord]
			if v.Kind() != datum.KInt {
				if v.IsNull() {
					continue
				}
				if v.IsNumeric() && cmpHolds(p.op, datum.Compare(v, p.lit)) {
					out = append(out, r)
				}
				continue
			}
			c := 0
			switch iv := v.Int(); {
			case iv < lv:
				c = -1
			case iv > lv:
				c = 1
			}
			if cmpHolds(p.op, c) {
				out = append(out, r)
			}
		}
		return out, nil
	}
	for _, r := range in {
		v := r[p.ord]
		if v.IsNull() {
			continue
		}
		if cmpHolds(p.op, datum.Compare(v, p.lit)) {
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

func (p *cmpColCol) selectInto(out []storage.Row, in []storage.Row) ([]storage.Row, error) {
	for _, r := range in {
		av, bv := r[p.a], r[p.b]
		if av.IsNull() || bv.IsNull() {
			continue
		}
		if cmpHolds(p.op, datum.Compare(av, bv)) {
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

// andPred chains conjuncts: each filters the survivors of the previous.
// The scratch buffer holds intermediate survivor sets; the final conjunct
// writes directly into out.
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

// --- Zone-map pruning and segment-typed selection ----------------------------
//
// The specialized predicates double as segment refuters and typed-vector
// selectors. Scan schemas list table columns in declared order, so a
// predicate ordinal indexes the segment's zone maps and column vectors
// directly. Both facilities are conservative: a predicate shape without
// pruning support never prunes, and a column without a typed vector (or a
// kind pairing outside the fast paths) falls back to the row-major loop —
// so they are strictly an optimization over selectInto, never a semantic
// change. The differential corpus pins that.

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

// segSelector is implemented by predicates with a typed-vector loop: rows
// [lo, hi) of the loaded segment payload are filtered by scanning the flat
// column vector and late-materializing only the surviving row headers.
// Selection operates on a *storage.SegData — the payload a scan faulted in
// (and pinned) through the buffer pool — never on the Segment itself, so
// pruning (zones, always resident) and selection (payload, possibly
// on disk) stay on opposite sides of the I/O boundary.
type segSelector interface {
	selectSeg(out []storage.Row, sd *storage.SegData, lo, hi int) ([]storage.Row, error)
}

// segSelect filters rows [lo, hi) of a loaded segment payload through p:
// the typed-vector loop when the predicate has one, the row-major loop
// otherwise.
func segSelect(p vecPred, out []storage.Row, sd *storage.SegData, lo, hi int) ([]storage.Row, error) {
	if sp, ok := p.(segSelector); ok {
		return sp.selectSeg(out, sd, lo, hi)
	}
	return p.selectInto(out, sd.Rows()[lo:hi])
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

// selectSeg runs the comparison over the typed column vector. Each fast
// path replicates exactly what selectInto's datum path computes for that
// kind pairing (ints compare as ints, mixed numerics widen to float,
// strings compare lexically); any other pairing — or a column without a
// typed vector — falls back to the row loop.
func (p *cmpColLit) selectSeg(out []storage.Row, sd *storage.SegData, lo, hi int) ([]storage.Row, error) {
	if p.lit.IsNull() {
		return out, nil
	}
	vec := sd.Col(p.ord)
	rows := sd.Rows()
	switch {
	case vec.Kind == datum.KInt && p.lit.Kind() == datum.KInt:
		lv := p.lit.Int()
		if !vec.HasNulls() {
			for i := lo; i < hi; i++ {
				if intCmpHolds(p.op, vec.Ints[i], lv) {
					out = append(out, rows[i])
				}
			}
			return out, nil
		}
		for i := lo; i < hi; i++ {
			if !vec.Null(i) && intCmpHolds(p.op, vec.Ints[i], lv) {
				out = append(out, rows[i])
			}
		}
		return out, nil
	case vec.Kind == datum.KInt && p.lit.Kind() == datum.KFloat:
		lf := p.lit.Float()
		for i := lo; i < hi; i++ {
			if !vec.Null(i) && floatCmpHolds(p.op, float64(vec.Ints[i]), lf) {
				out = append(out, rows[i])
			}
		}
		return out, nil
	case vec.Kind == datum.KFloat && p.lit.IsNumeric():
		lf := p.lit.Float()
		if !vec.HasNulls() {
			for i := lo; i < hi; i++ {
				if floatCmpHolds(p.op, vec.Floats[i], lf) {
					out = append(out, rows[i])
				}
			}
			return out, nil
		}
		for i := lo; i < hi; i++ {
			if !vec.Null(i) && floatCmpHolds(p.op, vec.Floats[i], lf) {
				out = append(out, rows[i])
			}
		}
		return out, nil
	case vec.Kind == datum.KString && p.lit.Kind() == datum.KString:
		ls := p.lit.Str()
		for i := lo; i < hi; i++ {
			if !vec.Null(i) && cmpHolds(p.op, strings.Compare(vec.Strs[i], ls)) {
				out = append(out, rows[i])
			}
		}
		return out, nil
	}
	return p.selectInto(out, rows[lo:hi])
}

func intCmpHolds(op sqlparser.BinOp, a, b int64) bool {
	switch op {
	case sqlparser.OpEq:
		return a == b
	case sqlparser.OpNe:
		return a != b
	case sqlparser.OpLt:
		return a < b
	case sqlparser.OpLe:
		return a <= b
	case sqlparser.OpGt:
		return a > b
	case sqlparser.OpGe:
		return a >= b
	}
	return false
}

func floatCmpHolds(op sqlparser.BinOp, a, b float64) bool {
	switch op {
	case sqlparser.OpEq:
		return a == b
	case sqlparser.OpNe:
		return a != b
	case sqlparser.OpLt:
		return a < b
	case sqlparser.OpLe:
		return a <= b
	case sqlparser.OpGt:
		return a > b
	case sqlparser.OpGe:
		return a >= b
	}
	return false
}

// prunesSegment refutes IS [NOT] NULL from the zone map's null count.
func (p *isNullPred) prunesSegment(seg *storage.Segment) bool {
	zm := seg.Zone(p.ord)
	if p.not {
		return zm.NullCount == seg.NumRows()
	}
	return zm.NullCount == 0
}

// selectSeg answers IS [NOT] NULL from the null bitmap alone — the bitmap
// is built for every column, typed vector or not.
func (p *isNullPred) selectSeg(out []storage.Row, sd *storage.SegData, lo, hi int) ([]storage.Row, error) {
	vec := sd.Col(p.ord)
	rows := sd.Rows()
	if !vec.HasNulls() {
		if p.not {
			return append(out, rows[lo:hi]...), nil
		}
		return out, nil
	}
	for i := lo; i < hi; i++ {
		if vec.Null(i) != p.not {
			out = append(out, rows[i])
		}
	}
	return out, nil
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

// selectSeg runs the first conjunct through its typed loop (the survivors
// late-materialize there), then chains the rest over the survivor rows.
func (p *andPred) selectSeg(out []storage.Row, sd *storage.SegData, lo, hi int) ([]storage.Row, error) {
	var cur []storage.Row
	var err error
	for i, pred := range p.preds {
		last := i == len(p.preds)-1
		if i == 0 {
			if last {
				return segSelect(pred, out, sd, lo, hi)
			}
			buf := p.scratch[0][:0]
			if buf == nil {
				buf = make([]storage.Row, 0, batchSize)
			}
			if buf, err = segSelect(pred, buf, sd, lo, hi); err != nil {
				return out, err
			}
			p.scratch[0] = buf
			cur = buf
			continue
		}
		if last {
			return pred.selectInto(out, cur)
		}
		buf := p.scratch[i%2][:0]
		if buf == nil {
			buf = make([]storage.Row, 0, batchSize)
		}
		if buf, err = pred.selectInto(buf, cur); err != nil {
			return out, err
		}
		p.scratch[i%2] = buf
		cur = buf
	}
	return append(out, cur...), nil // unreachable for len(preds) >= 1
}

// keyOrdinals resolves join/sort key expressions to schema ordinals when
// every key is a bare column reference — the dominant case — so batch key
// evaluation is a direct index load per key instead of a closure call.
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
