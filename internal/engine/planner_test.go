package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"lantern/internal/sqlparser"
)

// statsEngine builds a table with controlled value distributions for
// selectivity tests: ids 1..1000 (unique), grp 0..9 (10 distinct),
// val uniform 0..99.
func statsEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewDefault()
	if _, err := e.ExecScript(`CREATE TABLE s (id INTEGER, grp INTEGER, val FLOAT);
		CREATE INDEX s_id ON s (id);`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		if _, err := e.Exec(fmt.Sprintf("INSERT INTO s VALUES (%d, %d, %d.0)", i, i%10, i%100)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// estRowsOf plans a query and returns the root's row estimate.
func estRowsOf(t *testing.T, e *Engine, q string) float64 {
	t.Helper()
	p, err := e.PlanSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	return p.EstRows
}

func TestEqualitySelectivityUsesNDV(t *testing.T) {
	e := statsEngine(t)
	// grp = 3 has NDV 10 -> ~100 rows expected.
	got := estRowsOf(t, e, "SELECT * FROM s WHERE grp = 3")
	if got < 50 || got > 200 {
		t.Errorf("grp=3 estimate = %.0f, want ~100", got)
	}
	// id = 3 has NDV 1000 -> ~1 row expected.
	got = estRowsOf(t, e, "SELECT * FROM s WHERE id = 3")
	if got > 5 {
		t.Errorf("id=3 estimate = %.0f, want ~1", got)
	}
}

func TestRangeSelectivityInterpolates(t *testing.T) {
	e := statsEngine(t)
	// id < 250 covers ~25% of [1,1000].
	got := estRowsOf(t, e, "SELECT * FROM s WHERE id < 250")
	if got < 150 || got > 400 {
		t.Errorf("id<250 estimate = %.0f, want ~250", got)
	}
	// Flipped literal side must estimate the same way.
	flipped := estRowsOf(t, e, "SELECT * FROM s WHERE 250 > id")
	if flipped < 150 || flipped > 400 {
		t.Errorf("250>id estimate = %.0f, want ~250", flipped)
	}
}

func TestConjunctionMultipliesSelectivity(t *testing.T) {
	e := statsEngine(t)
	single := estRowsOf(t, e, "SELECT * FROM s WHERE grp = 3")
	double := estRowsOf(t, e, "SELECT * FROM s WHERE grp = 3 AND id < 500")
	if double >= single {
		t.Errorf("adding a conjunct should reduce the estimate: %.0f -> %.0f", single, double)
	}
}

func TestJoinCardinalityContainment(t *testing.T) {
	e := statsEngine(t)
	if _, err := e.ExecScript("CREATE TABLE d (k INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.Exec(fmt.Sprintf("INSERT INTO d VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	// s(1000) join d(10) on grp=k with NDVs 10/10: |s|*|d|/10 = 1000.
	got := estRowsOf(t, e, "SELECT * FROM s, d WHERE s.grp = d.k")
	if got < 400 || got > 2500 {
		t.Errorf("join estimate = %.0f, want ~1000", got)
	}
}

func TestDPPrefersSelectiveBuildSide(t *testing.T) {
	e := statsEngine(t)
	if _, err := e.ExecScript("CREATE TABLE big (k INTEGER, pad VARCHAR(10))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := e.Exec(fmt.Sprintf("INSERT INTO big VALUES (%d, 'x')", i%10)); err != nil {
			t.Fatal(err)
		}
	}
	// The filtered small side should be the hash build input (the Hash
	// node's child), not the 2000-row side.
	p, err := e.PlanSQL("SELECT * FROM s, big WHERE s.grp = big.k AND s.id = 7")
	if err != nil {
		t.Fatal(err)
	}
	var hashBuildRel string
	p.Walk(func(n *Node) {
		if n.Op == OpHash && len(n.Children) == 1 {
			n.Children[0].Walk(func(c *Node) {
				if c.Relation != "" {
					hashBuildRel = c.Relation
				}
			})
		}
	})
	if hashBuildRel == "big" {
		t.Errorf("hash build side is the large unfiltered relation:\n%s", ExplainText(p))
	}
}

func TestIndexScanOnlyWhenSelective(t *testing.T) {
	e := statsEngine(t)
	// Highly selective: index scan.
	p, err := e.PlanSQL("SELECT * FROM s WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	if p.Op != OpIndexScan {
		t.Errorf("id=7 should use the index:\n%s", ExplainText(p))
	}
	// Unselective range: sequential scan wins.
	p, err = e.PlanSQL("SELECT * FROM s WHERE id > 5")
	if err != nil {
		t.Fatal(err)
	}
	usesIndex := false
	p.Walk(func(n *Node) {
		if n.Op == OpIndexScan {
			usesIndex = true
		}
	})
	if usesIndex {
		t.Errorf("id>5 (99.5%% of rows) should not use the index:\n%s", ExplainText(p))
	}
}

func TestIndexProvidesSortOrder(t *testing.T) {
	e := statsEngine(t)
	// ORDER BY on the indexed column with a selective range: if the
	// planner picks the index scan, no Sort node is needed.
	p, err := e.PlanSQL("SELECT id FROM s WHERE id < 20 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	hasIndexScan, hasSort := false, false
	p.Walk(func(n *Node) {
		if n.Op == OpIndexScan {
			hasIndexScan = true
		}
		if n.Op == OpSort {
			hasSort = true
		}
	})
	if hasIndexScan && hasSort {
		t.Errorf("redundant sort over index order:\n%s", ExplainText(p))
	}
}

func TestGroupAggregateReusesSortOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableHashAgg = false
	e := New(cfg)
	if _, err := e.ExecScript(`CREATE TABLE g (a INTEGER, b INTEGER);
		INSERT INTO g VALUES (1, 1), (1, 2), (2, 3), (2, 4);`); err != nil {
		t.Fatal(err)
	}
	// GROUP BY a ORDER BY a: the aggregate's sort satisfies the ORDER BY,
	// so exactly one Sort node should appear.
	p, err := e.PlanSQL("SELECT a, COUNT(*) FROM g GROUP BY a ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	sorts := 0
	p.Walk(func(n *Node) {
		if n.Op == OpSort {
			sorts++
		}
	})
	if sorts != 1 {
		t.Errorf("expected exactly 1 sort, got %d:\n%s", sorts, ExplainText(p))
	}
}

func TestPlanCostsMonotone(t *testing.T) {
	e := statsEngine(t)
	p, err := e.PlanSQL("SELECT grp, COUNT(*) FROM s WHERE val > 10 GROUP BY grp ORDER BY grp")
	if err != nil {
		t.Fatal(err)
	}
	// A parent's total cost includes its children's.
	p.Walk(func(n *Node) {
		for _, c := range n.Children {
			if c.EstCost > n.EstCost+1e-9 {
				t.Errorf("child cost %.2f exceeds parent %.2f (%s under %s)",
					c.EstCost, n.EstCost, c.Op.Name(), n.Op.Name())
			}
		}
	})
}

func TestEstimatesPositive(t *testing.T) {
	e := statsEngine(t)
	for _, q := range []string{
		"SELECT * FROM s",
		"SELECT * FROM s WHERE id = -5",
		"SELECT grp, COUNT(*) FROM s GROUP BY grp HAVING COUNT(*) > 1000000",
		"SELECT * FROM s WHERE val > 1000000",
	} {
		p, err := e.PlanSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		p.Walk(func(n *Node) {
			if n.EstRows < 0 || n.EstCost < 0 {
				t.Errorf("%s: negative estimate on %s (%f rows, %f cost)",
					q, n.Op.Name(), n.EstRows, n.EstCost)
			}
		})
	}
}

func TestSyntacticPlanningPreservesLeftJoinOrder(t *testing.T) {
	e := statsEngine(t)
	if _, err := e.ExecScript(`CREATE TABLE r (k INTEGER); INSERT INTO r VALUES (1);`); err != nil {
		t.Fatal(err)
	}
	p, err := e.PlanSQL("SELECT * FROM s LEFT JOIN r ON s.grp = r.k")
	if err != nil {
		t.Fatal(err)
	}
	// Root must be a left-join node with s on the outer side.
	if p.JoinType != sqlparser.LeftJoin {
		t.Fatalf("root is not a left join:\n%s", ExplainText(p))
	}
	outerRel := ""
	p.Children[0].Walk(func(n *Node) {
		if n.Relation != "" && outerRel == "" {
			outerRel = n.Relation
		}
	})
	if outerRel != "s" {
		t.Errorf("outer side = %q, want s:\n%s", outerRel, ExplainText(p))
	}
}

func TestItemNameAndHeadline(t *testing.T) {
	e := statsEngine(t)
	p, err := e.PlanSQL("SELECT * FROM s WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	h := headline(p)
	if !strings.Contains(h, "on s") {
		t.Errorf("headline = %q", h)
	}
}

// TestSingleBoundEstimatesUnchanged pins single range bounds to the
// interpolation they had before conjunctions folded bounds into
// intervals: a bound alone estimates as its share of [min, max], with
// the literal on either side, and multiplies into a conjunction with
// other conjuncts exactly as before.
func TestSingleBoundEstimatesUnchanged(t *testing.T) {
	e := statsEngine(t)
	for q, want := range map[string]float64{
		"SELECT * FROM s WHERE id < 250":             249.24924924924923,
		"SELECT * FROM s WHERE 250 > id":             249.24924924924923,
		"SELECT * FROM s WHERE val >= 42.5":          570.7070707070707,
		"SELECT * FROM s WHERE grp = 3 AND id < 500": 49.94994994994995,
		"SELECT * FROM s WHERE id > 990":             10.010010010010006,
		"SELECT * FROM s WHERE id <= 1":              1,
	} {
		if got := estRowsOf(t, e, q); got != want {
			t.Errorf("%s: EstRows = %v, want %v", q, got, want)
		}
	}
}

// TestBoundsFoldIntoOneInterval: the bounds on one column estimate as one
// interval, whichever way they are written, and a reversed interval
// estimates at the selectivity floor.
func TestBoundsFoldIntoOneInterval(t *testing.T) {
	e := statsEngine(t)
	between := estRowsOf(t, e, "SELECT * FROM s WHERE id BETWEEN 100 AND 349")
	for _, q := range []string{
		"SELECT * FROM s WHERE id >= 100 AND id <= 349",
		"SELECT * FROM s WHERE 349 >= id AND 100 <= id",
		"SELECT * FROM s WHERE id > 100 AND id < 349",
		"SELECT * FROM s WHERE id BETWEEN 0 AND 349 AND id >= 100",
		"SELECT * FROM s WHERE s.id >= 100 AND id <= 349",
	} {
		if got := estRowsOf(t, e, q); got != between {
			t.Errorf("%s: EstRows = %v, want the BETWEEN's %v", q, got, between)
		}
	}
	if between < 200 || between > 300 {
		t.Errorf("id BETWEEN 100 AND 349 estimate = %v, want ~250", between)
	}
	// Other conjuncts still multiply in: grp = 3 keeps a tenth.
	if got := estRowsOf(t, e, "SELECT * FROM s WHERE id >= 100 AND grp = 3 AND id <= 349"); math.Abs(got-between/10) > 1e-9 {
		t.Errorf("interval with grp = 3: EstRows = %v, want %v", got, between/10)
	}
	// Reversed bounds: an empty interval hits the selectivity floor, so
	// the estimate is the one-row minimum.
	for _, q := range []string{
		"SELECT * FROM s WHERE id BETWEEN 500 AND 100",
		"SELECT * FROM s WHERE id > 500 AND id < 100",
	} {
		if got := estRowsOf(t, e, q); got != 1 {
			t.Errorf("%s: EstRows = %v, want 1", q, got)
		}
	}
}

// TestClusteredWindowEstimate: a 2,500-key window over a clustered key
// estimates within 2x of the rows it returns, written either way. Before
// bounds folded, BETWEEN estimated a flat 4/9 of the table (3.6x here)
// and the >= AND <= pair the product of two half-open ranges (2.5x).
func TestClusteredWindowEstimate(t *testing.T) {
	e := NewDefault()
	mustExec(t, e, "CREATE TABLE w (k INTEGER, v INTEGER)")
	var sb strings.Builder
	for base := 1; base <= 20000; base += 1000 {
		sb.Reset()
		for i := base; i < base+1000; i++ {
			if i > base {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i%7)
		}
		mustExec(t, e, "INSERT INTO w VALUES "+sb.String())
	}
	for _, cond := range []string{"k BETWEEN 7001 AND 9500", "k >= 7001 AND k <= 9500"} {
		q := "SELECT * FROM w WHERE " + cond
		actual := float64(len(mustExec(t, e, q).Rows))
		if actual != 2500 {
			t.Fatalf("%s returned %v rows, want 2500", cond, actual)
		}
		if est := estRowsOf(t, e, q); est < actual/2 || est > actual*2 {
			t.Errorf("%s: EstRows = %v for %v actual rows, want within 2x", cond, est, actual)
		}
	}
}

// TestUnfoldableBoundsKeepEstimates: bounds that cannot fold (string
// columns, NOT BETWEEN, non-literal bounds) keep their default estimates
// and plan without recursing: an unfoldable BETWEEN must not route back
// through selectivity into the conjunction estimator.
func TestUnfoldableBoundsKeepEstimates(t *testing.T) {
	e := statsEngine(t)
	mustExec(t, e, "CREATE TABLE str (name TEXT, n INTEGER)")
	for i := 0; i < 90; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO str VALUES ('n%02d', %d)", i, i))
	}
	for q, sel := range map[string]float64{
		"SELECT * FROM str WHERE name BETWEEN 'n10' AND 'n40'":                     betweenSel,
		"SELECT * FROM str WHERE name NOT BETWEEN 'n10' AND 'n40'":                 betweenSel,
		"SELECT * FROM str WHERE n NOT BETWEEN 10 AND 40":                          betweenSel,
		"SELECT * FROM str WHERE name >= 'n10' AND name <= 'n40'":                  defaultSel * defaultSel,
		"SELECT * FROM str WHERE n BETWEEN n AND 40":                               betweenSel,
		"SELECT * FROM str WHERE name NOT BETWEEN 'a' AND 'b' AND name LIKE 'n1%'": betweenSel * likeSel,
		"SELECT * FROM str WHERE NOT (name BETWEEN 'a' AND 'b') OR n < n":          (1 - betweenSel) + defaultSel - (1-betweenSel)*defaultSel,
	} {
		if got, want := estRowsOf(t, e, q), 90*sel; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: EstRows = %v, want %v", q, got, want)
		}
	}
}

// TestAmbiguousColumnInPredicate: an unqualified column in WHERE or an ON
// clause whose name two FROM tables share is an error in every executor,
// as it is in the select list, instead of binding to one of the tables
// (or failing as a column that does not exist).
func TestAmbiguousColumnInPredicate(t *testing.T) {
	queries := []string{
		"SELECT a.id, b.id FROM a JOIN b ON id = w",
		"SELECT a.id, b.id FROM a, b WHERE a.id = b.id AND id < v",
		"SELECT a.id, b.id FROM a, b, c WHERE a.id = b.id AND id = c.aid",
		"SELECT a.id, b.id FROM a JOIN b ON a.id = b.id LEFT JOIN c ON id = aid",
		"SELECT a.id, b.id FROM c JOIN a ON aid = id LEFT JOIN b ON a.id = b.id",
	}
	for name, cfg := range diffConfigs() {
		for _, ref := range []bool{false, true} {
			cfg.ReferenceExec = ref
			e := New(cfg)
			if _, err := e.ExecScript(`CREATE TABLE a (id INTEGER, v INTEGER);
				CREATE TABLE b (id INTEGER, w INTEGER);
				CREATE TABLE c (aid INTEGER);
				INSERT INTO a VALUES (1, 2), (2, 1);
				INSERT INTO b VALUES (1, 2), (2, 1);
				INSERT INTO c VALUES (1), (2);`); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				_, err := e.Exec(q)
				if err == nil || !strings.Contains(err.Error(), `column reference "id" is ambiguous`) {
					t.Errorf("%s (reference %v): %q: err = %v, want ambiguous column reference", name, ref, q, err)
				}
			}
		}
	}
}

// TestExplainRejectsWhatExecutionRejects: a column reference that
// execution cannot bind, in the select list, WHERE, ON, GROUP BY, HAVING
// or ORDER BY, fails EXPLAIN with execution's error, under every planner
// configuration, while a select-list alias in ORDER BY still plans.
func TestExplainRejectsWhatExecutionRejects(t *testing.T) {
	bad := []string{
		"SELECT c_name, COUNT(*) FROM customer a, customer b WHERE a.c_custkey = b.c_custkey GROUP BY c_name",
		"SELECT c_name FROM customer a, customer b WHERE a.c_custkey = b.c_custkey",
		"SELECT a.c_name FROM customer a, customer b WHERE a.c_custkey = b.c_custkey ORDER BY c_acctbal",
		"SELECT nope FROM customer",
		"SELECT c_name, COUNT(*) FROM customer GROUP BY c_mktsegment",
		"SELECT o_status, COUNT(*) FROM orders GROUP BY o_status HAVING SUM(nope) > 1",
		"SELECT o_status FROM orders GROUP BY o_status HAVING o_totalprice > 1",
		"SELECT o_status, SUM(nope) FROM orders GROUP BY o_status",
		"SELECT DISTINCT c_name FROM customer a, customer b WHERE a.c_custkey = b.c_custkey",
		"SELECT z.* FROM customer c",
		"SELECT nope + 1",
		"SELECT c_name FROM customer WHERE nope = 1",
		"SELECT c.c_name FROM customer c WHERE customer.c_acctbal > 5",
		"SELECT c.c_name FROM customer c, orders o WHERE c.nope = o.o_custkey",
		"SELECT c.c_name FROM customer c LEFT JOIN orders o ON c.c_custkey = o.nope",
		"SELECT c.c_name FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey WHERE nope IS NULL",
	}
	good := []string{
		"SELECT a.c_name AS c_name FROM customer a, customer b WHERE a.c_custkey = b.c_custkey ORDER BY c_name",
		"SELECT o_status AS s, COUNT(*) AS n FROM orders GROUP BY s ORDER BY n DESC, s",
		"SELECT c.* FROM customer c, orders o WHERE c.c_custkey = o.o_custkey",
	}
	for name, cfg := range diffConfigs() {
		e := testDB(t, cfg)
		for _, q := range bad {
			_, execErr := e.Exec(q)
			if execErr == nil {
				t.Fatalf("%s: %q executes; the case needs a query execution rejects", name, q)
			}
			if _, err := e.Exec("EXPLAIN " + q); err == nil || err.Error() != execErr.Error() {
				t.Errorf("%s: EXPLAIN %q: err = %v, want %v", name, q, err, execErr)
			}
		}
		for _, q := range good {
			mustExec(t, e, "EXPLAIN "+q)
			mustExec(t, e, q)
		}
	}
}

// TestUnqualifiedGroupKeyPlansDeterministically: two tables share a
// column name but not its distinct count, so an estimate resolving the
// unqualified name in map order gave two plans for one query. The name is
// ambiguous, and planning now fails the same way every time.
func TestUnqualifiedGroupKeyPlansDeterministically(t *testing.T) {
	e := NewDefault()
	if _, err := e.ExecScript(`CREATE TABLE t1 (id INTEGER, a INTEGER);
		CREATE TABLE t2 (id INTEGER, b INTEGER);`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t1 VALUES (%d, %d)", i%3, i))
		mustExec(t, e, fmt.Sprintf("INSERT INTO t2 VALUES (%d, %d)", i, i))
	}
	for i := 0; i < 50; i++ {
		_, err := e.PlanSQL("SELECT id, COUNT(*) FROM t1, t2 WHERE t1.a = t2.b GROUP BY id")
		if err == nil || err.Error() != `engine: column reference "id" is ambiguous` {
			t.Fatalf("run %d: err = %v, want the ambiguous column reference", i, err)
		}
	}
}

// TestCheckBindAgreesWithBind: checkBind reports exactly the error
// bindExpr returns, over schemas with and without computed columns.
func TestCheckBindAgreesWithBind(t *testing.T) {
	schemas := map[string][]colRef{
		"scan":  {{Qual: "c", Name: "c_custkey"}, {Qual: "c", Name: "c_name"}},
		"join":  {{Qual: "a", Name: "k"}, {Qual: "a", Name: "v"}, {Qual: "b", Name: "k"}},
		"agg":   {{Qual: "c", Name: "c_name"}, {Name: "COUNT(*)"}, {Name: "SUM(c.c_custkey)"}, {Name: "c_custkey % 3"}},
		"const": nil,
	}
	exprs := []string{
		"c_name", "c.c_name", "k", "a.k", "b.v", "nope", "x.k",
		"c_custkey + 1", "COUNT(*)", "SUM(c.c_custkey) / COUNT(*)", "SUM(nope)", "c_custkey % 3", "(c_custkey % 3) + k",
		"UPPER(c_name)", "LOWER(nope)", "c_name LIKE 'a%'", "k BETWEEN 1 AND v", "k IN (1, nope)",
		"k IN (SELECT 1)", "nope IN (SELECT 1)", "k IS NULL", "CASE WHEN k > 1 THEN v ELSE nope END",
		"EXISTS (SELECT nope)", "(SELECT nope)", "-k", "NOT v", "1",
	}
	for name, schema := range schemas {
		for _, text := range exprs {
			sel, err := sqlparser.ParseSelect("SELECT " + text)
			if err != nil {
				t.Fatal(err)
			}
			e := sel.Items[0].Expr
			_, bindErr := bindExpr(e, schema, nil)
			if err := checkBind(e, schema); fmt.Sprint(err) != fmt.Sprint(bindErr) {
				t.Errorf("%s: %q: checkBind = %v, bind = %v", name, text, err, bindErr)
			}
		}
	}
}

// TestGreedyOrdersAnyNumberOfRelations: greedy ordering tracks each
// relation's piece in a slice, not in a 64-bit subset mask, so a join of
// more than 64 relations plans, with one join per relation after the
// first and every equi-join predicate applied by exactly one of them.
func TestGreedyOrdersAnyNumberOfRelations(t *testing.T) {
	e := NewDefault()
	mustExec(t, e, "CREATE TABLE r (k INTEGER, v INTEGER)")
	mustExec(t, e, "INSERT INTO r VALUES (1, 1), (2, 2), (3, 3)")
	const n = 70
	var from, where []string
	for i := 0; i < n; i++ {
		from = append(from, fmt.Sprintf("r r%d", i))
		if i > 0 {
			where = append(where, fmt.Sprintf("r%d.v = r%d.k", i-1, i))
		}
	}
	plan, err := e.PlanSQL("SELECT r0.k FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND "))
	if err != nil {
		t.Fatal(err)
	}
	joins, conds := 0, 0
	plan.Walk(func(node *Node) {
		switch node.Op {
		case OpHashJoin, OpMergeJoin, OpNestedLoop:
			joins++
			conds += len(sqlparser.SplitConjuncts(node.JoinCond))
		}
	})
	if joins != n-1 || conds != n-1 {
		t.Fatalf("%d joins applying %d conditions, want %d of each", joins, conds, n-1)
	}
}
