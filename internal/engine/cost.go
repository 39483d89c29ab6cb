package engine

import (
	"math"

	"lantern/internal/catalog"
	"lantern/internal/datum"
	"lantern/internal/sqlparser"
)

// Cost model constants, in abstract cost units loosely patterned after
// PostgreSQL's (sequential page fetch = 1.0 baseline).
const (
	cpuTupleCost   = 0.01 // per tuple processed
	cpuOperCost    = 0.0025
	seqTupleCost   = 0.05 // per tuple of sequential scan (page amortized)
	randTupleCost  = 0.2  // per tuple fetched through an index
	hashBuildCost  = 0.02 // per tuple inserted into a hash table
	sortCostFactor = 0.02 // multiplied by N log2 N
	defaultSel     = 1.0 / 3.0
	eqDefaultSel   = 0.005
	likeSel        = 0.05
)

// selectivityEstimator estimates predicate selectivities from catalog
// statistics for the bindings of one FROM clause.
type selectivityEstimator struct {
	cat  *catalog.Catalog
	rels []relation // in FROM order
}

// betweenSel is the estimate of a BETWEEN that folds into no interval:
// two range predicates at the default selectivity.
var betweenSel = clampSel(defaultSel * defaultSel * 4)

// selectivity returns the estimated fraction of rows satisfying e.
func (s *selectivityEstimator) selectivity(e sqlparser.Expr) float64 {
	switch ex := e.(type) {
	case *sqlparser.BinaryExpr:
		switch ex.Op {
		case sqlparser.OpAnd, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
			return s.conjunction(e)
		case sqlparser.OpOr:
			l, r := s.selectivity(ex.Left), s.selectivity(ex.Right)
			return l + r - l*r
		case sqlparser.OpEq:
			return s.eqSelectivity(ex)
		case sqlparser.OpNe:
			return 1 - s.eqSelectivity(ex)
		}
		return defaultSel
	case *sqlparser.UnaryExpr:
		if ex.Op == '!' {
			return clampSel(1 - s.selectivity(ex.X))
		}
		return defaultSel
	case *sqlparser.LikeExpr:
		if ex.Not {
			return clampSel(1 - likeSel)
		}
		return likeSel
	case *sqlparser.BetweenExpr:
		if ex.Not {
			return betweenSel
		}
		return s.conjunction(e)
	case *sqlparser.InExpr:
		if col, ok := ex.X.(*sqlparser.ColumnRef); ok && len(ex.List) > 0 {
			ndv := s.ndv(col)
			if ndv > 0 {
				sel := float64(len(ex.List)) / float64(ndv)
				if ex.Not {
					sel = 1 - sel
				}
				return clampSel(sel)
			}
		}
		return defaultSel
	case *sqlparser.IsNullExpr:
		if col, ok := ex.X.(*sqlparser.ColumnRef); ok {
			if cs, ok := s.colStats(col); ok {
				if ex.Not {
					return clampSel(1 - cs.NullFraction)
				}
				return clampSel(cs.NullFraction)
			}
		}
		return 0.01
	}
	return defaultSel
}

// --- Conjunctions: one interval per bounded column ----------------------------

// interval is the numeric bounds a conjunction places on one column, with
// the column's statistics: lo and hi start open (±Inf) and every bound
// narrows them. Its selectivity is its share of the column's [min, max].
type interval struct {
	qual, name string  // the resolved column
	min, max   float64 // column statistics, min < max
	lo, hi     float64
	first      float64 // the selectivity of the first bound, as multiplied in
	narrowed   bool    // a later bound narrowed the first
}

func (iv *interval) sel() float64 {
	fracLo, fracHi := 0.0, 1.0
	if !math.IsInf(iv.lo, -1) {
		fracLo = math.Max(0, math.Min(1, (iv.lo-iv.min)/(iv.max-iv.min)))
	}
	if !math.IsInf(iv.hi, 1) {
		fracHi = math.Max(0, math.Min(1, (iv.hi-iv.min)/(iv.max-iv.min)))
	}
	return clampSel(fracHi - fracLo)
}

// conjunctionState accumulates one conjunction: the running product of
// its conjuncts' selectivities and the intervals folded so far. It lives
// on the caller's stack; a conjunction bounding more columns than it has
// slots estimates each further bound on its own.
type conjunctionState struct {
	sel float64
	n   int
	ivs [8]interval
}

// conjunction estimates the conjunction of conds, splitting AND. The
// numeric bounds on one column (<, <=, > and >= against a numeric
// literal on either side, and BETWEEN) fold into one interval whose
// selectivity is its share of the column's [min, max]; every other
// conjunct multiplies in. A column's interval enters the product where
// its first bound stands, so a single bound estimates exactly as it
// would alone, and a conjunction without two bounds on one column
// multiplies in the same order as a plain product.
func (s *selectivityEstimator) conjunction(conds ...sqlparser.Expr) float64 {
	st := conjunctionState{sel: 1}
	for _, c := range conds {
		s.addConjunct(&st, c)
	}
	for i := range st.ivs[:st.n] {
		if iv := &st.ivs[i]; iv.narrowed {
			st.sel = st.sel / iv.first * iv.sel()
		}
	}
	return st.sel
}

func (s *selectivityEstimator) addConjunct(st *conjunctionState, e sqlparser.Expr) {
	if be, ok := e.(*sqlparser.BinaryExpr); ok && be.Op == sqlparser.OpAnd {
		s.addConjunct(st, be.Left)
		s.addConjunct(st, be.Right)
		return
	}
	b, ok := s.numericBound(e)
	if !ok {
		st.sel *= s.unfoldedSel(e)
		return
	}
	for i := range st.ivs[:st.n] {
		if iv := &st.ivs[i]; iv.qual == b.qual && iv.name == b.name {
			iv.lo, iv.hi = math.Max(iv.lo, b.lo), math.Min(iv.hi, b.hi)
			iv.narrowed = true
			return
		}
	}
	b.first = b.sel()
	st.sel *= b.first
	if st.n < len(st.ivs) {
		st.ivs[st.n] = b
		st.n++
	}
}

// unfoldedSel is the selectivity of a conjunct that is not a numeric
// bound. A range comparison or BETWEEN that cannot fold keeps its default
// here rather than going back through selectivity, which would route it
// to conjunction again.
func (s *selectivityEstimator) unfoldedSel(e sqlparser.Expr) float64 {
	switch ex := e.(type) {
	case *sqlparser.BetweenExpr:
		return betweenSel
	case *sqlparser.BinaryExpr:
		switch ex.Op {
		case sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
			return defaultSel
		}
	}
	return s.selectivity(e)
}

// numericBound recognizes a conjunct that bounds a column by numeric
// literals, col <op> lit or lit <op> col for a range operator, or
// col BETWEEN lit AND lit, on a column whose statistics span a numeric
// [min, max] with min < max. It returns the conjunct's interval.
func (s *selectivityEstimator) numericBound(e sqlparser.Expr) (interval, bool) {
	var col *sqlparser.ColumnRef
	lo, hi := math.Inf(-1), math.Inf(1)
	switch ex := e.(type) {
	case *sqlparser.BinaryExpr:
		op := ex.Op
		c, okc := ex.Left.(*sqlparser.ColumnRef)
		lit, okl := ex.Right.(*sqlparser.Literal)
		if !okc || !okl {
			c, okc = ex.Right.(*sqlparser.ColumnRef)
			lit, okl = ex.Left.(*sqlparser.Literal)
			op = flipCmp(op)
		}
		if !okc || !okl || !lit.Value.IsNumeric() {
			return interval{}, false
		}
		switch op {
		case sqlparser.OpLt, sqlparser.OpLe:
			hi = lit.Value.Float()
		case sqlparser.OpGt, sqlparser.OpGe:
			lo = lit.Value.Float()
		default:
			return interval{}, false
		}
		col = c
	case *sqlparser.BetweenExpr:
		c, okc := ex.X.(*sqlparser.ColumnRef)
		l, okl := ex.Lo.(*sqlparser.Literal)
		h, okh := ex.Hi.(*sqlparser.Literal)
		if ex.Not || !okc || !okl || !okh || !l.Value.IsNumeric() || !h.Value.IsNumeric() {
			return interval{}, false
		}
		col, lo, hi = c, l.Value.Float(), h.Value.Float()
	default:
		return interval{}, false
	}
	qual, cs, ok := s.lookup(col)
	if !ok || !cs.Min.IsNumeric() || !cs.Max.IsNumeric() {
		return interval{}, false
	}
	iv := interval{qual: qual, name: col.Name, min: cs.Min.Float(), max: cs.Max.Float(), lo: lo, hi: hi}
	return iv, iv.max > iv.min
}

func (s *selectivityEstimator) colStats(c *sqlparser.ColumnRef) (catalog.ColumnStats, bool) {
	_, cs, ok := s.lookup(c)
	return cs, ok
}

// lookup resolves a column reference to the binding that owns it (the
// alias, or the table name when unaliased) and that column's statistics.
// An unqualified name resolves to the first binding in FROM order that
// has the column, so an estimate never depends on map order; the planner
// rejects names two bindings share.
func (s *selectivityEstimator) lookup(c *sqlparser.ColumnRef) (string, catalog.ColumnStats, bool) {
	if c.Table == "" {
		for _, r := range s.rels {
			if cs, err := s.cat.ColumnStats(r.table, c.Name); err == nil {
				return r.alias, cs, true
			}
		}
		return "", catalog.ColumnStats{}, false
	}
	tbl := c.Table
	for _, r := range s.rels {
		if r.alias == c.Table {
			tbl = r.table
			break
		}
	}
	cs, err := s.cat.ColumnStats(tbl, c.Name)
	if err != nil {
		return "", catalog.ColumnStats{}, false
	}
	return c.Table, cs, true
}

// ndv returns the distinct count for a column, or 0 when unknown.
func (s *selectivityEstimator) ndv(c *sqlparser.ColumnRef) int {
	if cs, ok := s.colStats(c); ok {
		return cs.Distinct
	}
	return 0
}

func (s *selectivityEstimator) eqSelectivity(ex *sqlparser.BinaryExpr) float64 {
	if col, ok := ex.Left.(*sqlparser.ColumnRef); ok {
		if _, isLit := ex.Right.(*sqlparser.Literal); isLit {
			if ndv := s.ndv(col); ndv > 0 {
				return clampSel(1 / float64(ndv))
			}
		}
	}
	if col, ok := ex.Right.(*sqlparser.ColumnRef); ok {
		if _, isLit := ex.Left.(*sqlparser.Literal); isLit {
			if ndv := s.ndv(col); ndv > 0 {
				return clampSel(1 / float64(ndv))
			}
		}
	}
	return eqDefaultSel
}

func clampSel(s float64) float64 {
	if s < 0.0001 {
		return 0.0001
	}
	if s > 1 {
		return 1
	}
	return s
}

// --- Operator cost formulas ----------------------------------------------

// seqScanCost prices a sequential scan. pruneFrac is the predicted
// fraction of heap rows that zone-map pruning lets the scan skip without
// reading (0 when the table is tail-only, the filter is not prunable, or
// pruning is disabled): skipped rows cost neither the page fetch nor the
// per-tuple predicate check.
func seqScanCost(rows, pruneFrac float64) float64 {
	if pruneFrac < 0 {
		pruneFrac = 0
	} else if pruneFrac > 1 {
		pruneFrac = 1
	}
	return rows * (1 - pruneFrac) * (seqTupleCost + cpuTupleCost)
}

func indexScanCost(tableRows, matchRows float64) float64 {
	if tableRows < 1 {
		tableRows = 1
	}
	return math.Log2(tableRows+1)*cpuOperCost*10 + matchRows*randTupleCost
}

func sortCost(rows float64) float64 {
	if rows < 2 {
		return cpuOperCost
	}
	return sortCostFactor * rows * math.Log2(rows)
}

// hashCost is the total cost of a Hash node over an input of the given
// rows and total cost.
func hashCost(rows, inputCost float64) float64 {
	return inputCost + rows*hashBuildCost
}

func hashJoinCost(build, probe, out float64) float64 {
	return build*hashBuildCost + probe*cpuTupleCost + out*cpuTupleCost
}

func mergeJoinCost(left, right, out float64) float64 {
	return (left+right)*cpuTupleCost + out*cpuTupleCost
}

func nestedLoopCost(outer, inner, out float64) float64 {
	return outer*inner*cpuOperCost + out*cpuTupleCost
}

func hashAggCost(rows, groups float64) float64 {
	return rows*(hashBuildCost+cpuTupleCost) + groups*cpuTupleCost
}

func groupAggCost(rows float64) float64 {
	return rows * cpuTupleCost * 2
}

// estimateGroups bounds the number of groups by the product of per-key
// distinct counts, capped at the input cardinality.
func estimateGroups(s *selectivityEstimator, keys []sqlparser.Expr, inputRows float64) float64 {
	if len(keys) == 0 {
		return 1
	}
	groups := 1.0
	for _, k := range keys {
		if col, ok := k.(*sqlparser.ColumnRef); ok {
			if ndv := s.ndv(col); ndv > 0 {
				groups *= float64(ndv)
				continue
			}
		}
		groups *= 10
	}
	if groups > inputRows {
		groups = inputRows
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}

// literalDatum extracts the literal value from an expression, if it is one.
func literalDatum(e sqlparser.Expr) (datum.D, bool) {
	if l, ok := e.(*sqlparser.Literal); ok {
		return l.Value, true
	}
	return datum.Null, false
}
