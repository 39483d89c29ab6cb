package engine

import (
	"fmt"
	"math/bits"
	"slices"

	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// relation is one base-table binding in the FROM clause.
type relation struct {
	table string // catalog table name
	alias string // binding name (alias, or table name when unaliased)
}

// predicate is a classified WHERE/ON conjunct.
type predicate struct {
	expr   sqlparser.Expr
	tables map[string]bool // aliases referenced
	// equi-join shape: left/right column refs when expr is col = col across
	// two relations.
	eqLeft, eqRight *sqlparser.ColumnRef
}

// planner carries the state of planning one SELECT.
type planner struct {
	eng  *Engine
	sel  *sqlparser.SelectStmt
	rels []relation
	// colOwner maps unqualified column name -> alias; ambiguous names map
	// to "" and error on use.
	colOwner map[string]string
	est      *selectivityEstimator
	preds    []predicate // all conjuncts (scan filters and join predicates)
}

// planSelect builds the physical plan for a SELECT statement.
func (e *Engine) planSelect(sel *sqlparser.SelectStmt) (*Node, error) {
	p := &planner{eng: e, sel: sel}
	hasOuter, err := p.bindFrom()
	if err != nil {
		return nil, err
	}
	if err := p.rewriteAliases(); err != nil {
		return nil, err
	}
	var join *Node
	switch {
	case len(sel.From) == 0:
		join, err = p.planResult()
	case hasOuter:
		join, err = p.planSyntactic()
	default:
		join, err = p.planCostBased()
	}
	if err != nil {
		return nil, err
	}
	n, err := p.finishPlan(join)
	if err != nil {
		return nil, err
	}
	if err := p.checkBindings(n); err != nil {
		return nil, err
	}
	e.annotateParallel(n)
	return n, nil
}

// planResult is the join root of a SELECT without FROM: one row of no
// columns, which WHERE filters. The rest of the query is planned over it
// as over any join, and the projector evaluates the select list.
func (p *planner) planResult() (*Node, error) {
	for _, it := range p.sel.Items {
		if it.Star || it.TableStar != "" {
			return nil, fmt.Errorf("engine: SELECT * requires a FROM clause")
		}
	}
	return &Node{Op: OpResult, Filter: p.sel.Where, EstRows: 1, EstCost: cpuTupleCost}, nil
}

func itemName(it sqlparser.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	return sqlparser.FormatExpr(it.Expr)
}

// bindFrom registers relations and collects all predicates (WHERE conjuncts
// plus inner-join ON conditions). It reports whether the query contains any
// outer join, which forces syntactic join order.
func (p *planner) bindFrom() (bool, error) {
	hasOuter := false
	var walkRef func(ref sqlparser.TableRef) error
	walkRef = func(ref sqlparser.TableRef) error {
		switch r := ref.(type) {
		case *sqlparser.BaseTable:
			if !p.eng.Cat.HasTable(r.Name) {
				return fmt.Errorf("engine: relation %q does not exist", r.Name)
			}
			rel := baseRelation(r)
			for _, existing := range p.rels {
				if existing.alias == rel.alias {
					return fmt.Errorf("engine: table name %q specified more than once", rel.alias)
				}
			}
			p.rels = append(p.rels, rel)
		case *sqlparser.JoinRef:
			if r.Type == sqlparser.LeftJoin {
				hasOuter = true
			}
			if err := walkRef(r.Left); err != nil {
				return err
			}
			if err := walkRef(r.Right); err != nil {
				return err
			}
		}
		return nil
	}
	for _, ref := range p.sel.From {
		if err := walkRef(ref); err != nil {
			return false, err
		}
	}
	// Column ownership for unqualified references.
	p.colOwner = make(map[string]string)
	for _, r := range p.rels {
		t, err := p.eng.Cat.Table(r.table)
		if err != nil {
			return false, err
		}
		for _, c := range t.Columns {
			if _, seen := p.colOwner[c.Name]; seen {
				p.colOwner[c.Name] = "" // ambiguous
			} else {
				p.colOwner[c.Name] = r.alias
			}
		}
	}
	p.est = &selectivityEstimator{cat: p.eng.Cat, rels: p.rels}

	// Collect predicates: WHERE conjuncts + inner join ON conjuncts (outer
	// join ONs stay attached to their join in syntactic planning).
	if !hasOuter {
		var gather func(ref sqlparser.TableRef) error
		gather = func(ref sqlparser.TableRef) error {
			j, ok := ref.(*sqlparser.JoinRef)
			if !ok {
				return nil
			}
			for _, c := range sqlparser.SplitConjuncts(j.On) {
				if err := p.addPredicate(c); err != nil {
					return err
				}
			}
			if err := gather(j.Left); err != nil {
				return err
			}
			return gather(j.Right)
		}
		for _, ref := range p.sel.From {
			if err := gather(ref); err != nil {
				return false, err
			}
		}
	}
	for _, c := range sqlparser.SplitConjuncts(p.sel.Where) {
		if err := p.addPredicate(c); err != nil {
			return false, err
		}
	}
	return hasOuter, nil
}

// baseRelation is the binding a FROM-clause table introduces.
func baseRelation(r *sqlparser.BaseTable) relation {
	if r.Alias == "" {
		return relation{table: r.Name, alias: r.Name}
	}
	return relation{table: r.Name, alias: r.Alias}
}

func (p *planner) addPredicate(e sqlparser.Expr) error {
	tables, err := p.tablesOf(e)
	if err != nil {
		return err
	}
	pr := predicate{expr: e, tables: tables}
	if lc, rc, ok := columnEquality(e); ok {
		lt, rt := p.ownerOf(lc), p.ownerOf(rc)
		if lt != "" && rt != "" && lt != rt {
			pr.eqLeft, pr.eqRight = lc, rc
		}
	}
	p.preds = append(p.preds, pr)
	return nil
}

// columnEquality matches a `column = column` conjunct.
func columnEquality(e sqlparser.Expr) (l, r *sqlparser.ColumnRef, ok bool) {
	be, isBin := e.(*sqlparser.BinaryExpr)
	if !isBin || be.Op != sqlparser.OpEq {
		return nil, nil, false
	}
	l, lok := be.Left.(*sqlparser.ColumnRef)
	r, rok := be.Right.(*sqlparser.ColumnRef)
	return l, r, lok && rok
}

// ownerOf resolves a column reference to its relation alias ("" if unknown).
func (p *planner) ownerOf(c *sqlparser.ColumnRef) string {
	if c.Table != "" {
		for _, r := range p.rels {
			if r.alias == c.Table {
				return r.alias
			}
		}
		return ""
	}
	return p.colOwner[c.Name]
}

// tablesOf returns the set of relation aliases a WHERE or ON conjunct
// references. Subqueries contribute no outer tables (only uncorrelated are
// supported). An unqualified column whose name two FROM tables share is an
// error: no executor could tell which table it means.
func (p *planner) tablesOf(e sqlparser.Expr) (map[string]bool, error) {
	out := make(map[string]bool)
	var ambiguous *sqlparser.ColumnRef
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
		c, ok := x.(*sqlparser.ColumnRef)
		if !ok {
			return
		}
		if owner := p.ownerOf(c); owner != "" {
			out[owner] = true
		} else if _, shared := p.colOwner[c.Name]; shared && c.Table == "" {
			ambiguous = c
		}
	})
	if ambiguous != nil {
		return nil, fmt.Errorf("engine: column reference %q is ambiguous", ambiguous.Name)
	}
	return out, nil
}

// rewriteAliases replaces select-item aliases used in GROUP BY, HAVING and
// ORDER BY with the underlying expressions (PostgreSQL permits this).
func (p *planner) rewriteAliases() error {
	aliasExpr := make(map[string]sqlparser.Expr)
	for _, it := range p.sel.Items {
		if it.Alias != "" && it.Expr != nil {
			aliasExpr[it.Alias] = it.Expr
		}
	}
	subst := func(e sqlparser.Expr) sqlparser.Expr {
		if c, ok := e.(*sqlparser.ColumnRef); ok && c.Table == "" {
			// Only substitute when the name is not a real column.
			if p.colOwner[c.Name] == "" {
				if repl, ok := aliasExpr[c.Name]; ok {
					return repl
				}
			}
		}
		return e
	}
	for i, g := range p.sel.GroupBy {
		p.sel.GroupBy[i] = subst(g)
	}
	for i, o := range p.sel.OrderBy {
		p.sel.OrderBy[i].Expr = subst(o.Expr)
	}
	return nil
}

// --- Scan planning --------------------------------------------------------

// planScan builds the access path for one relation, consuming the matching
// single-table predicates.
func (p *planner) planScan(rel relation) (*Node, error) {
	t, baseRows, err := p.tableRows(rel)
	if err != nil {
		return nil, err
	}
	var filters []sqlparser.Expr
	for i := range p.preds {
		pr := &p.preds[i]
		if pr.eqLeft != nil {
			continue // join predicate
		}
		if len(pr.tables) == 1 && pr.tables[rel.alias] {
			filters = append(filters, pr.expr)
			pr.expr = nil // consumed
		}
	}
	p.compactPreds()

	seq := p.seqScanNode(rel, t, baseRows, filters)
	if !p.eng.Cfg.EnableIndexScan {
		return seq, nil
	}
	best := seq
	for _, idxCol := range t.IndexedColumns() {
		idxConds, residual := splitIndexConds(filters, rel.alias, idxCol, p.colOwner)
		if len(idxConds) == 0 {
			continue
		}
		matchRows := baseRows * p.est.conjunction(idxConds...)
		if matchRows < 1 {
			matchRows = 1
		}
		cost := indexScanCost(baseRows, matchRows)
		if cost >= best.EstCost && best.Op == OpIndexScan {
			continue
		}
		if cost >= seq.EstCost {
			continue
		}
		idx := &Node{
			Op:        OpIndexScan,
			Relation:  rel.table,
			Alias:     rel.alias,
			IndexName: fmt.Sprintf("%s_%s_idx", rel.table, idxCol),
			IndexCond: sqlparser.JoinConjuncts(idxConds),
			Filter:    sqlparser.JoinConjuncts(residual),
			EstRows:   seq.EstRows,
			EstCost:   cost,
			Schema:    seq.Schema,
			sorted:    []sortKey{{Expr: &sqlparser.ColumnRef{Table: rel.alias, Name: idxCol}}},
		}
		if best.Op != OpIndexScan || cost < best.EstCost {
			best = idx
		}
	}
	return best, nil
}

// tableRows resolves rel's catalog table and its analyzed row count.
func (p *planner) tableRows(rel relation) (*storage.Table, float64, error) {
	t, err := p.eng.Cat.Table(rel.table)
	if err != nil {
		return nil, 0, err
	}
	stats, err := p.eng.Cat.Stats(rel.table)
	if err != nil {
		return nil, 0, err
	}
	return t, float64(stats.RowCount), nil
}

// seqScanNode builds the sequential scan of rel filtered by the given
// single-table conjuncts. The row estimate is their conjunction's
// selectivity: the numeric bounds on one column fold into one interval
// and every other conjunct multiplies in. The cost charges only the rows
// whose segments the filter cannot refute through zone maps.
func (p *planner) seqScanNode(rel relation, t *storage.Table, baseRows float64, filters []sqlparser.Expr) *Node {
	sel := p.est.conjunction(filters...)
	seq := &Node{
		Op:       OpSeqScan,
		Relation: rel.table,
		Alias:    rel.alias,
		Filter:   sqlparser.JoinConjuncts(filters),
		Schema:   scanSchema(t, rel.alias),
		EstRows:  maxf(1, baseRows*sel),
	}
	seq.EstCost = seqScanCost(baseRows, p.predictedPruneFraction(t, seq.Filter, seq.Schema))
	return seq
}

// predictedPruneFraction estimates the fraction of heap rows a filtered
// sequential scan will skip via zone-map pruning, by replaying the
// compiled predicate's zone checks against the table's current sealed
// segments — the same checks the executor makes, so the prediction is
// exact for the snapshot the planner sees. Cost: one min/max comparison
// per segment, no row access.
func (p *planner) predictedPruneFraction(t *storage.Table, filter sqlparser.Expr, schema []colRef) float64 {
	if filter == nil || p.eng.Cfg.DisableZonePruning {
		return 0
	}
	pred, err := compileVecPred(filter, schema, p.eng.subquery)
	if err != nil || pred == nil {
		return 0
	}
	snap := t.Snapshot()
	total := snap.NumRows()
	if total == 0 {
		return 0
	}
	pruned := 0
	for _, seg := range snap.Segments() {
		if segPruned(pred, seg) {
			pruned += seg.NumRows()
		}
	}
	return float64(pruned) / float64(total)
}

func scanSchema(t *storage.Table, alias string) []colRef {
	schema := make([]colRef, len(t.Columns))
	for i, c := range t.Columns {
		schema[i] = colRef{Qual: alias, Name: c.Name}
	}
	return schema
}

// splitIndexConds partitions filters into those an index on (alias, col) can
// satisfy (equality / range / BETWEEN against literals) and the rest.
func splitIndexConds(filters []sqlparser.Expr, alias, col string, colOwner map[string]string) (idx, rest []sqlparser.Expr) {
	matchesCol := func(e sqlparser.Expr) bool {
		c, ok := e.(*sqlparser.ColumnRef)
		if !ok || c.Name != col {
			return false
		}
		return c.Table == alias || (c.Table == "" && colOwner[col] == alias)
	}
	for _, f := range filters {
		switch ex := f.(type) {
		case *sqlparser.BinaryExpr:
			if _, isLit := literalDatum(ex.Right); isLit && matchesCol(ex.Left) {
				switch ex.Op {
				case sqlparser.OpEq, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
					idx = append(idx, f)
					continue
				}
			}
			if _, isLit := literalDatum(ex.Left); isLit && matchesCol(ex.Right) {
				switch ex.Op {
				case sqlparser.OpEq, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
					idx = append(idx, f)
					continue
				}
			}
		case *sqlparser.BetweenExpr:
			if !ex.Not && matchesCol(ex.X) {
				_, loLit := literalDatum(ex.Lo)
				_, hiLit := literalDatum(ex.Hi)
				if loLit && hiLit {
					idx = append(idx, f)
					continue
				}
			}
		}
		rest = append(rest, f)
	}
	return idx, rest
}

func (p *planner) compactPreds() {
	kept := p.preds[:0]
	for _, pr := range p.preds {
		if pr.expr != nil {
			kept = append(kept, pr)
		}
	}
	p.preds = kept
}

// --- Cost-based join ordering ---------------------------------------------

// joinKey is one equi-join conjunct of an inner join, with its columns put
// on the join's two inputs.
type joinKey struct {
	expr sqlparser.Expr       // the conjunct, for the join condition
	l, r *sqlparser.ColumnRef // its columns on the left and the right input
	// div is the containment divisor: the larger of the two columns'
	// distinct counts, and at least 1.
	div float64
}

func (k joinKey) flip() joinKey { return joinKey{expr: k.expr, l: k.r, r: k.l, div: k.div} }

// joinEdge is an equi-join predicate of the query: its key oriented as
// written, and the relations of its two columns as indices into
// planner.rels and as bits of dpJoin's subset masks.
type joinEdge struct {
	joinKey
	a, b       int
	aBit, bBit uint64
}

// joinEdges lists the query's equi-join predicates in predicate order,
// which is the order of every join condition built from them.
func (p *planner) joinEdges() []joinEdge {
	var edges []joinEdge
	for _, pr := range p.preds {
		if pr.eqLeft == nil {
			continue
		}
		a, b := p.relIndex(p.ownerOf(pr.eqLeft)), p.relIndex(p.ownerOf(pr.eqRight))
		edges = append(edges, joinEdge{
			joinKey: joinKey{expr: pr.expr, l: pr.eqLeft, r: pr.eqRight, div: p.keyDivisor(pr.eqLeft, pr.eqRight)},
			a:       a, b: b, aBit: 1 << uint(a), bBit: 1 << uint(b),
		})
	}
	return edges
}

func (p *planner) relIndex(alias string) int {
	for i, r := range p.rels {
		if r.alias == alias {
			return i
		}
	}
	return -1
}

// keyDivisor is the containment assumption's divisor for the key l = r.
func (p *planner) keyDivisor(l, r *sqlparser.ColumnRef) float64 {
	return maxf(float64(maxi(p.est.ndv(l), 1)), float64(maxi(p.est.ndv(r), 1)))
}

// keysBetween appends the keys of the edges between the relation sets
// left and right, in predicate order, oriented left to right.
func keysBetween(keys []joinKey, edges []joinEdge, left, right uint64) []joinKey {
	for i := range edges {
		e := &edges[i]
		switch {
		case left&e.aBit != 0 && right&e.bBit != 0:
			keys = append(keys, e.joinKey)
		case left&e.bBit != 0 && right&e.aBit != 0:
			keys = append(keys, e.flip())
		}
	}
	return keys
}

// planCostBased orders inner joins with exhaustive dynamic programming
// (greedy beyond Cfg.DPThreshold relations).
func (p *planner) planCostBased() (*Node, error) {
	scans := make([]*Node, len(p.rels))
	for i, rel := range p.rels {
		s, err := p.planScan(rel)
		if err != nil {
			return nil, err
		}
		scans[i] = s
	}
	var root *Node
	switch n := len(scans); {
	case n == 1:
		root = scans[0]
	case n > p.eng.Cfg.DPThreshold:
		root = p.greedyJoin(scans, p.joinEdges())
	default:
		root = p.dpJoin(scans, p.joinEdges())
	}
	return p.applyResidual(root), nil
}

// joinInput is what costing a join reads of one input.
type joinInput struct {
	rows, cost float64
	sorted     []sortKey // output ordering
}

func inputOf(n *Node) joinInput { return joinInput{rows: n.EstRows, cost: n.EstCost, sorted: n.sorted} }

// dpEntry is the cheapest plan of one subset of the relations: its
// estimates and ordering, and for two or more relations the split it
// joins and the operator that joins it.
type dpEntry struct {
	joinInput
	left, right uint64
	op          Op
}

// dpJoin fills a dense table, indexed by subset mask, with the cheapest
// plan of every subset of the relations, and builds the Nodes of the full
// set's plan. A subset tries each split that an equi-join predicate
// crosses, or every split as a Cartesian product when none does (see
// "Join ordering" in doc.go). Candidates are costed from the table alone,
// so none allocates.
func (p *planner) dpJoin(scans []*Node, edges []joinEdge) *Node {
	full := uint64(1)<<uint(len(scans)) - 1
	table := make([]dpEntry, full+1)
	for i, s := range scans {
		table[1<<uint(i)].joinInput = inputOf(s)
	}
	var keys []joinKey
	// Every proper subset of a mask is numerically smaller, so numeric
	// order has both halves of every split costed first.
	for mask := uint64(3); mask <= full; mask++ {
		if mask&(mask-1) == 0 {
			continue // one relation
		}
		// Each unordered split once, in descending order of the half
		// without the mask's top bit.
		rest := mask &^ (1 << uint(63-bits.LeadingZeros64(mask)))
		best := &table[mask]
		found := false
		// The splits an equi-join predicate crosses; every split, as a
		// Cartesian product, only when none does.
		for _, cartesian := range [...]bool{false, true} {
			for sub := rest; sub > 0; sub = (sub - 1) & rest {
				other := mask &^ sub
				if keys = keysBetween(keys[:0], edges, sub, other); len(keys) == 0 && !cartesian {
					continue
				}
				c := p.cheapestJoin(table[sub].joinInput, table[other].joinInput, keys)
				if !found || c.cost < best.cost {
					*best = dpEntry{joinInput: joinInput{rows: c.rows, cost: c.cost}, left: sub, right: other, op: c.op}
					found = true
				}
			}
			if found {
				break
			}
		}
		if best.op == OpMergeJoin {
			best.sorted = keyOrder(keysBetween(keys[:0], edges, best.left, best.right), true)
		}
	}
	return buildTree(table, scans, edges, full)
}

// buildTree builds the Nodes of dpJoin's plan for mask.
func buildTree(table []dpEntry, scans []*Node, edges []joinEdge, mask uint64) *Node {
	e := &table[mask]
	if e.left == 0 {
		return scans[bits.TrailingZeros64(mask)]
	}
	left := buildTree(table, scans, edges, e.left)
	right := buildTree(table, scans, edges, e.right)
	return joinNode(joinChoice{op: e.op, rows: e.rows, cost: e.cost}, left, right, keysBetween(nil, edges, e.left, e.right))
}

// greedyJoin joins the cheapest pair of pieces, preferring pairs an
// equi-join predicate connects, until one piece is left. Pairs are costed
// as dpJoin costs splits, and only the pair joined is built. pieceOf maps
// each relation to its piece, so any number of relations fits.
func (p *planner) greedyJoin(pieces []*Node, edges []joinEdge) *Node {
	pieceOf := make([]int, len(pieces))
	for i := range pieceOf {
		pieceOf[i] = i
	}
	var keys []joinKey
	for len(pieces) > 1 {
		bestI, bestJ := -1, -1
		var best joinChoice
		for i := range pieces {
			for j := i + 1; j < len(pieces); j++ {
				keys = pieceKeys(keys[:0], edges, pieceOf, i, j)
				if len(keys) == 0 && bestI >= 0 {
					continue // prefer connected joins
				}
				c := p.cheapestJoin(inputOf(pieces[i]), inputOf(pieces[j]), keys)
				if bestI < 0 || c.cost < best.cost {
					bestI, bestJ, best = i, j, c
				}
			}
		}
		merged := joinNode(best, pieces[bestI], pieces[bestJ], pieceKeys(nil, edges, pieceOf, bestI, bestJ))
		last := len(pieces) - 1
		for r, pc := range pieceOf {
			switch pc {
			case bestJ:
				pieceOf[r] = bestI
			case last:
				pieceOf[r] = bestJ
			}
		}
		pieces[bestI], pieces[bestJ] = merged, pieces[last]
		pieces = pieces[:last]
	}
	return pieces[0]
}

// pieceKeys appends the keys of the edges between greedy pieces left and
// right, in predicate order, oriented left to right.
func pieceKeys(keys []joinKey, edges []joinEdge, pieceOf []int, left, right int) []joinKey {
	for i := range edges {
		e := &edges[i]
		switch pa, pb := pieceOf[e.a], pieceOf[e.b]; {
		case pa == left && pb == right:
			keys = append(keys, e.joinKey)
		case pa == right && pb == left:
			keys = append(keys, e.flip())
		}
	}
	return keys
}

// joinChoice is a costed join: its operator and the estimates its Node
// carries.
type joinChoice struct {
	op         Op
	rows, cost float64
}

// cheapestJoin costs left ⋈ right on keys (none: a Cartesian product)
// under each join operator the configuration enables, and returns the
// cheapest; a tie keeps the earlier of hash join, merge join and nested
// loop. A hash join builds on the smaller input and a nested loop drives
// with it. Every inner join is costed here, and nothing is allocated.
func (p *planner) cheapestJoin(left, right joinInput, keys []joinKey) joinChoice {
	c := joinChoice{rows: joinRows(left.rows, right.rows, keys)}
	small, large := left, right
	if right.rows < left.rows {
		small, large = right, left
	}
	cfg := p.eng.Cfg
	found := false
	if len(keys) > 0 && cfg.EnableHashJoin {
		c.op, c.cost, found = OpHashJoin, large.cost+hashCost(small.rows, small.cost)+hashJoinCost(small.rows, large.rows, c.rows), true
	}
	if len(keys) > 0 && cfg.EnableMergeJoin {
		cost := orderedCost(left, keys, true) + orderedCost(right, keys, false) + mergeJoinCost(left.rows, right.rows, c.rows)
		if !found || cost < c.cost {
			c.op, c.cost, found = OpMergeJoin, cost, true
		}
	}
	if cfg.EnableNestLoop || !found {
		cost := small.cost + large.cost + nestedLoopCost(small.rows, large.rows, c.rows)
		if !found || cost < c.cost {
			c.op, c.cost = OpNestedLoop, cost
		}
	}
	return c
}

// joinRows estimates an inner join's rows under the containment
// assumption: the inputs' product divided by each key's divisor, and at
// least one row when there is a key.
func joinRows(left, right float64, keys []joinKey) float64 {
	rows := left * right
	for _, k := range keys {
		rows = rows / k.div
	}
	if len(keys) > 0 && rows < 1 {
		rows = 1
	}
	return rows
}

// orderedCost is the cost of one side of a merge join: the input's own
// when its ordering leads with that side's key columns, with a sort added
// otherwise.
func orderedCost(in joinInput, keys []joinKey, left bool) float64 {
	if orderedOn(in.sorted, keys, left) {
		return in.cost
	}
	return in.cost + sortCost(in.rows)
}

// orderedOn reports whether ordering have leads with one side's key
// columns, ascending.
func orderedOn(have []sortKey, keys []joinKey, left bool) bool {
	if len(have) < len(keys) {
		return false
	}
	for i, k := range keys {
		col := k.r
		if left {
			col = k.l
		}
		if have[i].Desc || !sortExprEqual(have[i].Expr, col) {
			return false
		}
	}
	return true
}

// keyOrder is the ascending ordering on one side's key columns.
func keyOrder(keys []joinKey, left bool) []sortKey {
	out := make([]sortKey, len(keys))
	for i, k := range keys {
		if left {
			out[i].Expr = k.l
		} else {
			out[i].Expr = k.r
		}
	}
	return out
}

// buildJoin costs and builds the cheapest join of two planned inputs.
func (p *planner) buildJoin(left, right *Node, keys []joinKey) *Node {
	return joinNode(p.cheapestJoin(inputOf(left), inputOf(right), keys), left, right, keys)
}

// joinNode builds the Node of a costed join of left and right on keys,
// with the Hash or Sort inputs its operator needs. It carries the
// choice's estimates: the costs join ordering compared.
func joinNode(c joinChoice, left, right *Node, keys []joinKey) *Node {
	conds := make([]sqlparser.Expr, len(keys))
	for i, k := range keys {
		conds[i] = k.expr
	}
	j := &Node{Op: c.op, JoinType: sqlparser.InnerJoin, JoinCond: sqlparser.JoinConjuncts(conds), EstRows: c.rows, EstCost: c.cost}
	small, large := left, right
	if right.EstRows < left.EstRows {
		small, large = right, left
	}
	switch c.op {
	case OpHashJoin:
		// The probe side first and the Hash of the build side second, as
		// PostgreSQL shows them.
		hash := &Node{Op: OpHash, Children: []*Node{small}, Schema: small.Schema,
			EstRows: small.EstRows, EstCost: hashCost(small.EstRows, small.EstCost)}
		j.Children = []*Node{large, hash}
	case OpMergeJoin:
		j.Children = []*Node{orderedInput(left, keys, true), orderedInput(right, keys, false)}
		j.sorted = keyOrder(keys, true)
	default:
		j.Children = []*Node{small, large}
	}
	j.Schema = concatSchema(j.Children[0].Schema, j.Children[1].Schema)
	return j
}

// orderedInput is n as one side of a merge join: n itself when its
// ordering leads with that side's key columns, a Sort over it otherwise.
func orderedInput(n *Node, keys []joinKey, left bool) *Node {
	if orderedOn(n.sorted, keys, left) {
		return n
	}
	want := keyOrder(keys, left)
	return &Node{
		Op: OpSort, Children: []*Node{n},
		SortKeys: want,
		Schema:   n.Schema,
		EstRows:  n.EstRows,
		EstCost:  n.EstCost + sortCost(n.EstRows),
		sorted:   want,
	}
}

func concatSchema(a, b []colRef) []colRef {
	return append(append(make([]colRef, 0, len(a)+len(b)), a...), b...)
}

// leftJoinRows is a LEFT JOIN's containment estimate, before the preserved
// side's floor: every column comparison in conds divides the inputs'
// product.
func (p *planner) leftJoinRows(left, right *Node, conds []sqlparser.Expr) float64 {
	rows := left.EstRows * right.EstRows
	for _, c := range conds {
		be, ok := c.(*sqlparser.BinaryExpr)
		if !ok {
			continue
		}
		lc, _ := be.Left.(*sqlparser.ColumnRef)
		rc, _ := be.Right.(*sqlparser.ColumnRef)
		if lc == nil || rc == nil {
			continue
		}
		rows = rows / p.keyDivisor(lc, rc)
	}
	if len(conds) == 0 {
		return rows
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func keysToSort(keys []sqlparser.Expr) []sortKey {
	out := make([]sortKey, len(keys))
	for i, k := range keys {
		out[i] = sortKey{Expr: k}
	}
	return out
}

// sortSatisfies reports whether ordering `have` subsumes `want` (prefix
// match on formatted expression text and direction).
func sortSatisfies(have, want []sortKey) bool {
	if len(want) == 0 {
		return true
	}
	if len(have) < len(want) {
		return false
	}
	for i, w := range want {
		if have[i].Desc != w.Desc {
			return false
		}
		if !sortExprEqual(have[i].Expr, w.Expr) {
			return false
		}
	}
	return true
}

// sortExprEqual compares ordering expressions, tolerating a missing table
// qualifier on one side (an unqualified ORDER BY key matches the
// alias-qualified ordering an index scan provides, as long as the column
// name is unambiguous — the binder has already rejected ambiguous names).
func sortExprEqual(a, b sqlparser.Expr) bool {
	// Column references — the overwhelmingly common ordering key — compare
	// by field without formatting (FormatExpr allocates on every call).
	ac, aok := a.(*sqlparser.ColumnRef)
	bc, bok := b.(*sqlparser.ColumnRef)
	if aok && bok {
		if ac.Name != bc.Name {
			return false
		}
		return ac.Table == bc.Table || ac.Table == "" || bc.Table == ""
	}
	return sqlparser.FormatExpr(a) == sqlparser.FormatExpr(b)
}

// applyResidual attaches the predicates no scan or join consumed
// (multi-table conditions other than column equalities, subquery
// conditions) as a filter on the join root. Each equi-join predicate
// crosses exactly one join of the tree, whose condition carries it.
func (p *planner) applyResidual(root *Node) *Node {
	var rest []sqlparser.Expr
	for _, pr := range p.preds {
		if pr.eqLeft == nil {
			rest = append(rest, pr.expr)
		}
	}
	if len(rest) == 0 {
		return root
	}
	sel := p.est.conjunction(rest...)
	root.Filter = sqlparser.JoinConjuncts(append(sqlparser.SplitConjuncts(root.Filter), rest...))
	root.EstRows = maxf(1, root.EstRows*sel)
	return root
}

// --- Syntactic planning (outer joins) --------------------------------------

// planSyntactic plans the FROM clause exactly as written, choosing only the
// physical join algorithm. WHERE predicates are applied after all joins to
// preserve outer-join semantics.
func (p *planner) planSyntactic() (*Node, error) {
	var build func(ref sqlparser.TableRef) (*Node, error)
	build = func(ref sqlparser.TableRef) (*Node, error) {
		switch r := ref.(type) {
		case *sqlparser.BaseTable:
			return p.syntacticScan(r, nil)
		case *sqlparser.JoinRef:
			left, err := build(r.Left)
			if err != nil {
				return nil, err
			}
			// The grammar puts a base table on the right of every JOIN.
			table, ok := r.Right.(*sqlparser.BaseTable)
			if !ok {
				return nil, fmt.Errorf("engine: unsupported join operand %T", r.Right)
			}
			if r.Type == sqlparser.LeftJoin {
				return p.buildLeftJoin(left, table, r.On)
			}
			return p.buildInnerJoin(left, table, r.On)
		}
		return nil, fmt.Errorf("engine: unsupported FROM element %T", ref)
	}
	var root *Node
	for _, ref := range p.sel.From {
		n, err := build(ref)
		if err != nil {
			return nil, err
		}
		if root == nil {
			root = n
		} else {
			root = p.buildJoin(root, n, nil)
		}
	}
	// WHERE applies after the joins (outer-join safe).
	if p.sel.Where != nil {
		sel := p.est.selectivity(p.sel.Where)
		root.Filter = sqlparser.JoinConjuncts(append(sqlparser.SplitConjuncts(root.Filter), sqlparser.SplitConjuncts(p.sel.Where)...))
		root.EstRows = maxf(1, root.EstRows*sel)
	}
	return root, nil
}

// syntacticScan plans a FROM-clause table of an outer-join query as a
// sequential scan with the given filter conjuncts.
func (p *planner) syntacticScan(table *sqlparser.BaseTable, filters []sqlparser.Expr) (*Node, error) {
	rel := baseRelation(table)
	t, rows, err := p.tableRows(rel)
	if err != nil {
		return nil, err
	}
	return p.seqScanNode(rel, t, rows, filters), nil
}

// crossKey reports whether e is a column equality between one of left's
// tables and alias, a join key between the two inputs, and returns the
// key oriented left to right.
func (p *planner) crossKey(e sqlparser.Expr, left *Node, alias string) (joinKey, bool) {
	lc, rc, ok := columnEquality(e)
	if !ok {
		return joinKey{}, false
	}
	lt, rt := p.ownerOf(lc), p.ownerOf(rc)
	inLeft := func(t string) bool {
		for _, c := range left.Schema {
			if c.Qual == t {
				return true
			}
		}
		return false
	}
	k := joinKey{expr: e, l: lc, r: rc}
	switch {
	case rt == alias && inLeft(lt):
	case lt == alias && inLeft(rt):
		k = k.flip()
	default:
		return joinKey{}, false
	}
	k.div = p.keyDivisor(lc, rc)
	return k, true
}

// buildInnerJoin plans `left JOIN table ON on` inside an outer-join query.
// The ON clause splits like a LEFT JOIN's: column equalities between the
// two inputs are the join keys buildJoin chooses an algorithm over, and
// every other conjunct becomes the join's filter, its selectivity applied
// to the row estimate. Without a key the join is a filtered cross join.
func (p *planner) buildInnerJoin(left *Node, table *sqlparser.BaseTable, on sqlparser.Expr) (*Node, error) {
	right, err := p.syntacticScan(table, nil)
	if err != nil {
		return nil, err
	}
	alias := baseRelation(table).alias
	var keys []joinKey
	var rest []sqlparser.Expr
	for _, c := range sqlparser.SplitConjuncts(on) {
		if _, err := p.tablesOf(c); err != nil {
			return nil, err
		}
		if k, ok := p.crossKey(c, left, alias); ok {
			keys = append(keys, k)
		} else {
			rest = append(rest, c)
		}
	}
	j := p.buildJoin(left, right, keys)
	if len(rest) > 0 {
		sel := p.est.conjunction(rest...)
		j.Filter = sqlparser.JoinConjuncts(rest)
		j.EstRows = maxf(1, j.EstRows*sel)
	}
	return j, nil
}

// buildLeftJoin plans `left LEFT JOIN table ON on` without commuting its
// operands (see "Outer-join planning" in doc.go). Column equalities
// between the two inputs are the hash keys; conjuncts on the nullable
// table alone become its scan filter, since a row they reject could never
// match; everything else stays in the join condition, including
// conjuncts on the preserved side alone, which decide whether a row pair
// matches, not whether the preserved row is kept. With a key and hash
// joins enabled it plans a Hash Left Join, otherwise a Nested Loop Left
// Join.
func (p *planner) buildLeftJoin(left *Node, table *sqlparser.BaseTable, on sqlparser.Expr) (*Node, error) {
	alias := baseRelation(table).alias
	var cond, pushed []sqlparser.Expr
	hasKey := false
	for _, c := range sqlparser.SplitConjuncts(on) {
		tables, err := p.tablesOf(c)
		if err != nil {
			return nil, err
		}
		_, isKey := p.crossKey(c, left, alias)
		switch {
		case isKey:
			hasKey = true
			cond = append(cond, c)
		case len(tables) == 1 && tables[alias]:
			pushed = append(pushed, c)
		default:
			cond = append(cond, c)
		}
	}
	right, err := p.syntacticScan(table, pushed)
	if err != nil {
		return nil, err
	}
	schema := concatSchema(left.Schema, right.Schema)
	joinCond := sqlparser.JoinConjuncts(cond)
	outRows := maxf(left.EstRows, p.leftJoinRows(left, right, cond))
	if hasKey && p.eng.Cfg.EnableHashJoin {
		hash := &Node{Op: OpHash, Children: []*Node{right}, Schema: right.Schema,
			EstRows: right.EstRows, EstCost: hashCost(right.EstRows, right.EstCost)}
		return &Node{
			Op: OpHashJoin, Children: []*Node{left, hash},
			JoinType: sqlparser.LeftJoin, JoinCond: joinCond,
			Schema: schema, EstRows: outRows,
			EstCost: left.EstCost + hash.EstCost + hashJoinCost(right.EstRows, left.EstRows, outRows),
		}, nil
	}
	return &Node{
		Op: OpNestedLoop, Children: []*Node{left, right},
		JoinType: sqlparser.LeftJoin, JoinCond: joinCond,
		Schema: schema, EstRows: outRows,
		EstCost: left.EstCost + right.EstCost + nestedLoopCost(left.EstRows, right.EstRows, outRows),
	}, nil
}

// --- Aggregation, distinct, order, limit -----------------------------------

// finishPlan layers aggregation, DISTINCT, ORDER BY and LIMIT over the join
// tree and validates the final projection.
func (p *planner) finishPlan(root *Node) (*Node, error) {
	aggs := p.collectAggregates()
	// HAVING without GROUP BY or an aggregate makes the whole input one
	// group, as in PostgreSQL: a plain Aggregate with HAVING as its filter.
	grouped := len(p.sel.GroupBy) > 0 || len(aggs) > 0 || p.sel.Having != nil

	if grouped {
		if len(p.sel.GroupBy) == 0 {
			if err := ungroupedStar(p.sel.Items, root.Schema); err != nil {
				return nil, err
			}
		}
		var err error
		root, err = p.planAggregate(root, aggs)
		if err != nil {
			return nil, err
		}
	}

	if p.sel.Distinct {
		root = p.planDistinct(root)
	}

	if len(p.sel.OrderBy) > 0 {
		want := make([]sortKey, len(p.sel.OrderBy))
		for i, o := range p.sel.OrderBy {
			want[i] = sortKey{Expr: o.Expr, Desc: o.Desc}
		}
		if !sortSatisfies(root.sorted, want) {
			root = &Node{
				Op: OpSort, Children: []*Node{root},
				SortKeys: want, Schema: root.Schema,
				EstRows: root.EstRows,
				EstCost: root.EstCost + sortCost(root.EstRows),
				sorted:  want,
			}
		}
	}

	if p.sel.Limit >= 0 || p.sel.Offset > 0 {
		rows := root.EstRows
		if p.sel.Limit >= 0 {
			rows = minf(rows, float64(p.sel.Limit))
			// A Sort feeding a Limit only ever surfaces the first
			// limit+offset rows of the ordering: mark it so the streaming
			// executor can keep a bounded top-K heap.
			if root.Op == OpSort {
				root.SortLimit = p.sel.Limit + p.sel.Offset
			}
		}
		root = &Node{
			Op: OpLimit, Children: []*Node{root},
			Limit: p.sel.Limit, Offset: p.sel.Offset, Schema: root.Schema,
			EstRows: rows, EstCost: root.EstCost + rows*cpuTupleCost,
			sorted: root.sorted,
		}
	}
	return root, nil
}

// ungroupedStar rejects a * or t.* over input that aggregates into one
// group: the columns it names are neither grouped nor aggregated.
func ungroupedStar(items []sqlparser.SelectItem, input []colRef) error {
	for _, it := range items {
		for _, c := range input {
			if it.Star || it.TableStar != "" && c.Qual == it.TableStar {
				return fmt.Errorf("engine: column \"%s.%s\" must appear in the GROUP BY clause or be used in an aggregate function", c.Qual, c.Name)
			}
		}
	}
	return nil
}

// checkBindings rejects at plan time what execution rejects when it binds
// the plan's expressions: first the select list against the plan's
// output, then, bottom-up, each operator's filters and join conditions,
// GROUP BY keys, aggregate arguments, HAVING, and DISTINCT or ORDER BY
// keys against the schema that operator binds them to. That is the batch
// executor's order, so a query fails EXPLAIN with the error it fails
// execution with.
func (p *planner) checkBindings(root *Node) error {
	for _, it := range p.sel.Items {
		switch {
		case it.Star:
		case it.TableStar != "":
			if !slices.ContainsFunc(root.Schema, func(c colRef) bool { return c.Qual == it.TableStar }) {
				return fmt.Errorf("engine: relation %q not found for %s.*", it.TableStar, it.TableStar)
			}
		default:
			if err := checkBind(it.Expr, root.Schema); err != nil {
				return err
			}
		}
	}
	return checkOperatorBindings(root)
}

func checkOperatorBindings(n *Node) error {
	for _, c := range n.Children {
		if err := checkOperatorBindings(c); err != nil {
			return err
		}
	}
	switch n.Op {
	case OpSort, OpUnique:
		for _, k := range n.SortKeys {
			if err := checkBind(k.Expr, n.Children[0].Schema); err != nil {
				return err
			}
		}
	case OpAggregate, OpHashAggregate, OpGroupAggregate:
		in := n.Children[0].Schema
		if err := checkBinds(in, n.GroupKeys...); err != nil {
			return err
		}
		for _, a := range n.Aggs {
			if len(a.Call.Args) > 0 && !a.Call.Star {
				if err := checkBind(a.Call.Args[0], in); err != nil {
					return err
				}
			}
		}
		return checkBind(n.HavingFilter, n.Schema)
	}
	// A scan binds its conditions against its own columns, a join against
	// its inputs' columns side by side: either way, its output schema.
	return checkBinds(n.Schema, n.IndexCond, n.JoinCond, n.Filter)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// collectAggregates gathers every aggregate call in the select items,
// HAVING and ORDER BY, deduplicated by formatted text.
func (p *planner) collectAggregates() []aggSpec {
	seen := make(map[string]bool)
	var out []aggSpec
	add := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
			if f, ok := x.(*sqlparser.FuncCall); ok && sqlparser.IsAggregateName(f.Name) {
				name := sqlparser.FormatExpr(f)
				if !seen[name] {
					seen[name] = true
					out = append(out, aggSpec{Call: f, Name: name})
				}
			}
		})
	}
	for _, it := range p.sel.Items {
		if it.Expr != nil {
			add(it.Expr)
		}
	}
	add(p.sel.Having)
	for _, o := range p.sel.OrderBy {
		add(o.Expr)
	}
	return out
}

// planAggregate adds the aggregation node (plain, hash, or sorted-group).
func (p *planner) planAggregate(input *Node, aggs []aggSpec) (*Node, error) {
	keys := p.sel.GroupBy
	schema := make([]colRef, 0, len(keys)+len(aggs))
	for _, k := range keys {
		if c, ok := k.(*sqlparser.ColumnRef); ok {
			owner := p.ownerOf(c)
			schema = append(schema, colRef{Qual: owner, Name: c.Name})
		} else {
			schema = append(schema, colRef{Name: sqlparser.FormatExpr(k)})
		}
	}
	for _, a := range aggs {
		schema = append(schema, colRef{Name: a.Name})
	}

	if len(keys) == 0 {
		return &Node{
			Op: OpAggregate, Children: []*Node{input},
			Aggs: aggs, HavingFilter: p.sel.Having,
			Schema: schema, EstRows: 1,
			EstCost: input.EstCost + groupAggCost(input.EstRows),
		}, nil
	}

	groups := estimateGroups(p.est, keys, input.EstRows)
	keySort := keysToSort(keys)

	hashCost := input.EstCost + hashAggCost(input.EstRows, groups)
	sortedInput := input
	if !sortSatisfies(input.sorted, keySort) {
		sortedInput = &Node{
			Op: OpSort, Children: []*Node{input},
			SortKeys: keySort, Schema: input.Schema,
			EstRows: input.EstRows,
			EstCost: input.EstCost + sortCost(input.EstRows),
			sorted:  keySort,
		}
	}
	groupCost := sortedInput.EstCost + groupAggCost(input.EstRows)

	useHash := p.eng.Cfg.EnableHashAgg && hashCost <= groupCost
	if useHash {
		return &Node{
			Op: OpHashAggregate, Children: []*Node{input},
			GroupKeys: keys, Aggs: aggs, HavingFilter: p.sel.Having,
			Schema: schema, EstRows: groups, EstCost: hashCost,
		}, nil
	}
	return &Node{
		Op: OpGroupAggregate, Children: []*Node{sortedInput},
		GroupKeys: keys, Aggs: aggs, HavingFilter: p.sel.Having,
		Schema: schema, EstRows: groups, EstCost: groupCost,
		sorted: keySort,
	}, nil
}

// planDistinct adds Sort+Unique (or just Unique over sorted input) on the
// final select-item expressions.
func (p *planner) planDistinct(input *Node) *Node {
	var keys []sortKey
	for _, it := range p.sel.Items {
		if it.Star || it.TableStar != "" {
			for _, c := range input.Schema {
				keys = append(keys, sortKey{Expr: &sqlparser.ColumnRef{Table: c.Qual, Name: c.Name}})
			}
			continue
		}
		keys = append(keys, sortKey{Expr: it.Expr})
	}
	src := input
	if !sortSatisfies(input.sorted, keys) {
		src = &Node{
			Op: OpSort, Children: []*Node{input},
			SortKeys: keys, Schema: input.Schema,
			EstRows: input.EstRows,
			EstCost: input.EstCost + sortCost(input.EstRows),
			sorted:  keys,
		}
	}
	return &Node{
		Op: OpUnique, Children: []*Node{src},
		SortKeys: keys, Schema: src.Schema,
		EstRows: maxf(1, src.EstRows/2),
		EstCost: src.EstCost + src.EstRows*cpuTupleCost,
		sorted:  src.sorted,
	}
}
