package engine

// LEFT JOIN planning: the ON clause splits into hash keys (column
// equalities across the two inputs), the nullable table's scan filter
// (conjuncts on that table alone) and the residual join condition
// (everything else). These tests pin the plan shapes, the join-key split
// the executors share, and — as an oracle — every LEFT JOIN of the
// differential corpus and the seeded generator against the plan shape the
// planner built before the split: a Nested Loop Left Join over an
// unfiltered scan with the whole ON clause as its condition.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lantern/internal/sqlparser"
)

// leftJoinDB holds customer and orders under the TPC-H column names the
// queries below use. Some customers equal their own nation key, some
// orders their own customer key, some orders reference no customer, two
// customers have no orders, and both sides carry a NULL key.
func leftJoinDB(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	if _, err := e.ExecScript(`CREATE TABLE customer (c_custkey INTEGER, c_nationkey INTEGER, c_name VARCHAR(25), c_acctbal FLOAT);
		CREATE TABLE orders (o_orderkey INTEGER, o_custkey INTEGER, o_totalprice FLOAT);`); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 17} {
		mustExec(t, e, fmt.Sprintf("INSERT INTO customer VALUES (%d, %d, 'cust%d', %d.5)", k, k%5, k, k*1000))
	}
	mustExec(t, e, "INSERT INTO customer VALUES (NULL, 3, 'custNULL', NULL)")
	for i := 1; i <= 45; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d.0)", i, i%15, i*1000))
	}
	mustExec(t, e, "INSERT INTO orders VALUES (46, NULL, 7000.0)")
	return e
}

// leftJoinNode returns the plan's only LEFT JOIN node.
func leftJoinNode(t *testing.T, plan *Node) *Node {
	t.Helper()
	var found []*Node
	plan.Walk(func(n *Node) {
		if n.JoinType == sqlparser.LeftJoin {
			found = append(found, n)
		}
	})
	if len(found) != 1 {
		t.Fatalf("plan has %d LEFT JOIN nodes, want 1:\n%s", len(found), ExplainText(plan))
	}
	return found[0]
}

// condStrings renders a condition's conjuncts.
func condStrings(e sqlparser.Expr) []string { return exprStrings(sqlparser.SplitConjuncts(e)) }

func exprStrings(es []sqlparser.Expr) []string {
	var out []string
	for _, e := range es {
		out = append(out, sqlparser.FormatExpr(e))
	}
	return out
}

func TestLeftJoinQ13PlansHashJoinWithPushedFilter(t *testing.T) {
	e := leftJoinDB(t, DefaultConfig())
	q := `SELECT c.c_custkey, COUNT(*) AS c_count
		FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_totalprice > 20000
		GROUP BY c.c_custkey ORDER BY c_count DESC LIMIT 50`
	plan, err := e.PlanSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	j := leftJoinNode(t, plan)
	if j.Op != OpHashJoin {
		t.Fatalf("Q13 join is %s, want a Hash Left Join:\n%s", j.Op.Name(), ExplainText(plan))
	}
	if got := condStrings(j.JoinCond); len(got) != 1 || got[0] != "c.c_custkey = o.o_custkey" {
		t.Errorf("hash join condition = %q, want only the key c.c_custkey = o.o_custkey", got)
	}
	probe, hash := j.Children[0], j.Children[1]
	if probe.Op != OpSeqScan || probe.Relation != "customer" || probe.Filter != nil {
		t.Errorf("probe side = %s on %q filter %v, want an unfiltered customer scan", probe.Op.Name(), probe.Relation, condStrings(probe.Filter))
	}
	if hash.Op != OpHash || hash.Children[0].Op != OpSeqScan || hash.Children[0].Relation != "orders" {
		t.Fatalf("build side is not Hash over a Seq Scan on orders:\n%s", ExplainText(plan))
	}
	build := hash.Children[0]
	if got := condStrings(build.Filter); len(got) != 1 || got[0] != "o.o_totalprice > 20000" {
		t.Errorf("orders scan filter = %q, want o.o_totalprice > 20000", got)
	}
	// The pushed filter drives the build side's estimate.
	if build.EstRows >= 46 {
		t.Errorf("filtered orders scan estimates %.0f rows, want fewer than the table's 46", build.EstRows)
	}
	assertLeftJoinMatchesPrePushdown(t, e, q)
}

func TestLeftJoinPreservedSideConjunctStaysInJoin(t *testing.T) {
	e := leftJoinDB(t, DefaultConfig())
	q := `SELECT c.c_custkey, o.o_orderkey FROM customer c
		LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND c.c_acctbal > 5000`
	plan, err := e.PlanSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	j := leftJoinNode(t, plan)
	if j.Op != OpHashJoin {
		t.Fatalf("join is %s, want a Hash Left Join:\n%s", j.Op.Name(), ExplainText(plan))
	}
	if got := strings.Join(condStrings(j.JoinCond), " AND "); got != "c.c_custkey = o.o_custkey AND c.c_acctbal > 5000" {
		t.Errorf("join condition = %q, want the key and the preserved-side conjunct", got)
	}
	plan.Walk(func(n *Node) {
		if n.Relation == "customer" && n.Filter != nil {
			t.Errorf("customer scan filtered by %q: a preserved-side ON conjunct must not drop rows", condStrings(n.Filter))
		}
	})
	// Every customer survives; those failing the conjunct null-extend.
	res := mustExec(t, e, q)
	seen := make(map[string]bool)
	for _, r := range res.Rows {
		seen[r[0].String()] = true
		if r[0].IsNull() || r[0].Int() < 5 {
			if !r[1].IsNull() {
				t.Errorf("customer %s (c_acctbal <= 5000) matched order %s, want a null-extended row", r[0], r[1])
			}
		}
	}
	if len(seen) != 15 {
		t.Errorf("result covers %d customers, want all 15", len(seen))
	}
	assertLeftJoinMatchesPrePushdown(t, e, q)
}

func TestLeftJoinWithoutCrossKeyPlansNestedLoop(t *testing.T) {
	e := leftJoinDB(t, DefaultConfig())
	q := `SELECT c.c_custkey, o.o_orderkey FROM customer c
		LEFT JOIN orders o ON c.c_acctbal > o.o_totalprice - 30000 AND o.o_totalprice > 40000`
	plan, err := e.PlanSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	j := leftJoinNode(t, plan)
	if j.Op != OpNestedLoop {
		t.Fatalf("join is %s, want a Nested Loop Left Join:\n%s", j.Op.Name(), ExplainText(plan))
	}
	if got := condStrings(j.JoinCond); len(got) != 1 || got[0] != "c.c_acctbal > o.o_totalprice - 30000" {
		t.Errorf("join filter = %q, want c.c_acctbal > o.o_totalprice - 30000", got)
	}
	if inner := j.Children[1]; inner.Relation != "orders" || len(condStrings(inner.Filter)) != 1 {
		t.Errorf("inner side = %s on %q filter %q, want orders filtered by o.o_totalprice > 40000",
			inner.Op.Name(), inner.Relation, condStrings(inner.Filter))
	}
	// Customers 1..10 and the NULL one match no order; 11, 12, 16 and 17
	// match 1, 2, 5 and 5 orders.
	res := mustExec(t, e, q)
	nullExtended := 0
	for _, r := range res.Rows {
		if r[1].IsNull() {
			nullExtended++
		}
	}
	if nullExtended != 11 || len(res.Rows) != 24 {
		t.Errorf("%d of %d rows null-extended, want 11 of 24", nullExtended, len(res.Rows))
	}
	assertLeftJoinMatchesPrePushdown(t, e, q)
}

// joinKeyRegressionQueries are ON clauses every executor failed on while
// joinKeyPairs took `a = b` as a key whenever a was on the probe side,
// without checking that b was on the build side.
var joinKeyRegressionQueries = []string{
	"SELECT c.c_custkey, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = c.c_nationkey",
	"SELECT c.c_custkey, o.o_orderkey FROM customer c LEFT JOIN orders o ON o.o_custkey = o.o_orderkey",
	"SELECT c.c_custkey, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND c.c_nationkey = c.c_custkey",
}

func TestJoinKeyPairsRequireOppositeInputs(t *testing.T) {
	customer := []colRef{{Qual: "c", Name: "c_custkey"}, {Qual: "c", Name: "c_nationkey"}}
	orders := []colRef{{Qual: "o", Name: "o_orderkey"}, {Qual: "o", Name: "o_custkey"}}
	cases := []struct {
		on             string
		lhs, rhs, rest []string
	}{
		{"c.c_custkey = c.c_nationkey", nil, nil, []string{"c.c_custkey = c.c_nationkey"}},
		{"o.o_custkey = o.o_orderkey", nil, nil, []string{"o.o_custkey = o.o_orderkey"}},
		{"c.c_custkey = o.o_custkey AND c.c_nationkey = c.c_custkey",
			[]string{"c.c_custkey"}, []string{"o.o_custkey"}, []string{"c.c_nationkey = c.c_custkey"}},
		{"o.o_custkey = c.c_custkey", []string{"c.c_custkey"}, []string{"o.o_custkey"}, nil},
	}
	for _, c := range cases {
		sel, err := sqlparser.ParseSelect("SELECT 1 FROM customer c LEFT JOIN orders o ON " + c.on)
		if err != nil {
			t.Fatal(err)
		}
		lhs, rhs, rest := joinKeyPairs(sel.From[0].(*sqlparser.JoinRef).On, customer, orders)
		for _, got := range []struct {
			name      string
			got, want []string
		}{{"probe keys", exprStrings(lhs), c.lhs}, {"build keys", exprStrings(rhs), c.rhs}, {"residual", exprStrings(rest), c.rest}} {
			if strings.Join(got.got, ", ") != strings.Join(got.want, ", ") {
				t.Errorf("ON %s: %s = %q, want %q", c.on, got.name, got.got, got.want)
			}
		}
	}
}

// TestLeftJoinKeyRegressions runs the queries above under every planner
// configuration through every executor, and pins the results to the
// pre-pushdown Nested Loop Left Join's.
func TestLeftJoinKeyRegressions(t *testing.T) {
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := leftJoinDB(t, cfg)
			for _, q := range joinKeyRegressionQueries {
				assertSameResults(t, e, q)
				assertLeftJoinMatchesPrePushdown(t, e, q)
			}
		})
	}
}

// prePushdownPlan rewrites every LEFT JOIN of plan into the shape the
// planner built before it split ON clauses: a Nested Loop Left Join over
// an unfiltered scan of the nullable table, with the whole ON clause as
// its condition. on maps each nullable table's alias to its ON clause.
// WHERE placement is left as planned.
func prePushdownPlan(n *Node, on map[string]sqlparser.Expr) *Node {
	for i, c := range n.Children {
		n.Children[i] = prePushdownPlan(c, on)
	}
	if n.JoinType != sqlparser.LeftJoin {
		return n
	}
	scan := n.Children[1]
	if scan.Op == OpHash {
		scan = scan.Children[0]
	}
	bare := *scan
	bare.Filter = nil
	return &Node{
		Op: OpNestedLoop, JoinType: sqlparser.LeftJoin,
		Children: []*Node{n.Children[0], &bare},
		JoinCond: on[bare.Alias], Filter: n.Filter, Schema: n.Schema,
	}
}

// assertLeftJoinMatchesPrePushdown runs sql's plan on e's configured
// executor and the pre-pushdown shape of the same plan on the reference
// executor, comparing ordered sequences under ORDER BY, multisets
// otherwise.
func assertLeftJoinMatchesPrePushdown(t *testing.T, e *Engine, sql string) {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	on := make(map[string]sqlparser.Expr)
	var walk func(ref sqlparser.TableRef)
	walk = func(ref sqlparser.TableRef) {
		if j, ok := ref.(*sqlparser.JoinRef); ok {
			if j.Type == sqlparser.LeftJoin {
				on[baseRelation(j.Right.(*sqlparser.BaseTable)).alias] = j.On
			}
			walk(j.Left)
		}
	}
	for _, ref := range sel.From {
		walk(ref)
	}
	if len(on) == 0 {
		t.Fatalf("%s: no LEFT JOIN", sql)
	}
	plan, err := e.planSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	old := prePushdownPlan(plan, on)
	rows, err := e.execNode(old)
	if err != nil {
		t.Fatalf("%s: pre-pushdown plan: %v\n%s", sql, err, ExplainText(old))
	}
	want, err := e.project(sel, old, rows)
	if err != nil {
		t.Fatal(err)
	}
	got := mustExec(t, e, sql)
	g, w := sortedRowStrings(got.Rows), sortedRowStrings(want.Rows)
	if len(sel.OrderBy) > 0 {
		g, w = rowStrings(got.Rows), rowStrings(want.Rows)
	}
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Fatalf("%s:\nplanned       %q\npre-pushdown  %q\n%s", sql, g, w, ExplainText(old))
	}
}

// TestLeftJoinOraclePrePushdown checks every LEFT JOIN of the differential
// corpora and the seeded generator against the pre-pushdown plan shape,
// with and without NULL join keys, under the configurations that plan
// LEFT JOINs differently: hash joins on (default), and off with merge or
// nested-loop joins below them.
func TestLeftJoinOraclePrePushdown(t *testing.T) {
	var fixed []string
	for _, q := range slices.Concat(diffCorpus, nullKeyCorpus, inSubqueryCorpus, outerJoinCorpus) {
		if strings.Contains(q, "LEFT JOIN") {
			fixed = append(fixed, q)
		}
	}
	if len(fixed) < len(outerJoinCorpus) {
		t.Fatalf("differential corpora hold %d LEFT JOIN queries, want at least %d", len(fixed), len(outerJoinCorpus))
	}
	generated := func(seed int64, n int) []string {
		g := &queryGen{rng: rand.New(rand.NewSource(seed))}
		var out []string
		for i := 0; i < n; i++ {
			if q := g.genQuery(); strings.Contains(q, "LEFT JOIN") {
				out = append(out, q)
			}
		}
		return out
	}
	plain, nulls := generated(0x1a57e12, 120), generated(0x9e3779b9, 80)
	if len(plain) == 0 || len(nulls) == 0 {
		t.Fatal("generator produced no LEFT JOIN queries")
	}
	for _, name := range []string{"default", "merge-only", "nl-only"} {
		cfg := diffConfigs()[name]
		t.Run(name, func(t *testing.T) {
			for _, run := range []struct {
				db      func(*testing.T, Config) *Engine
				queries []string
			}{{testDB, slices.Concat(fixed, plain)}, {nullDB, slices.Concat(fixed, nulls)}} {
				e := run.db(t, cfg)
				for _, q := range run.queries {
					assertLeftJoinMatchesPrePushdown(t, e, q)
					e.Cfg.ReferenceExec = true
					assertLeftJoinMatchesPrePushdown(t, e, q)
					e.Cfg.ReferenceExec = false
				}
			}
		})
	}
}

// innerOnDB holds c (100 rows), o (1,000 rows, ten per c row) and n
// (25 rows). c.nk runs to 29, so some c rows find no n row and
// null-extend.
func innerOnDB(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	if _, err := e.ExecScript(`CREATE TABLE c (ck INTEGER, nk INTEGER, bal FLOAT);
		CREATE TABLE o (ok INTEGER, ck INTEGER, price FLOAT);
		CREATE TABLE n (nk INTEGER, name VARCHAR(10));`); err != nil {
		t.Fatal(err)
	}
	insert := func(table string, rows int, row func(i int) string) {
		var sb strings.Builder
		for i := 0; i < rows; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(row(i))
		}
		mustExec(t, e, "INSERT INTO "+table+" VALUES "+sb.String())
	}
	insert("c", 100, func(i int) string { return fmt.Sprintf("(%d, %d, %d.5)", i, i%30, (i*37)%500) })
	insert("o", 1000, func(i int) string { return fmt.Sprintf("(%d, %d, %d.0)", i, i%100, (i*7919)%500) })
	insert("n", 25, func(i int) string { return fmt.Sprintf("(%d, 'nation%d')", i, i) })
	return e
}

// innerJoinOnCases are inner JOIN ... ON clauses inside an outer-join
// query, each with its join keys alone and the non-key conjuncts it moves
// to WHERE. The later LEFT JOIN preserves both inner-join tables, so the
// query with the conjuncts in WHERE is equivalent.
var innerJoinOnCases = []struct{ items, on, keys, moved string }{
	// No key at all: every executor failed with "merge join without
	// equi-condition" while each ON conjunct went to buildJoin.
	{"COUNT(*)", "o.price > 400", "TRUE", "o.price > 400"},
	{"COUNT(*), SUM(o.price)", "c.bal < o.price AND o.price > 450", "TRUE", "c.bal < o.price AND o.price > 450"},
	// A key plus conjuncts on one input, the other, or both.
	{"c.ck, o.ok, n.name", "c.ck = o.ck AND o.price > 100", "c.ck = o.ck", "o.price > 100"},
	{"c.ck, o.ok, n.name", "c.ck = o.ck AND c.bal < o.price", "c.ck = o.ck", "c.bal < o.price"},
	{"o.ok, n.name", "o.ck = c.ck AND c.nk = 3 AND o.ok = o.ck", "o.ck = c.ck", "c.nk = 3 AND o.ok = o.ck"},
}

const innerOnQuery = "SELECT %s FROM c JOIN o ON %s LEFT JOIN n ON c.nk = n.nk%s"

// TestInnerJoinOnInOuterJoinQuery requires every case to run, under every
// planner configuration, on every executor, with the same result as the
// query whose non-key ON conjuncts sit in WHERE.
func TestInnerJoinOnInOuterJoinQuery(t *testing.T) {
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := innerOnDB(t, cfg)
			for _, c := range innerJoinOnCases {
				q := fmt.Sprintf(innerOnQuery, c.items, c.on, "")
				moved := fmt.Sprintf(innerOnQuery, c.items, c.keys, " WHERE "+c.moved)
				got, want := sortedRowStrings(mustExec(t, e, q).Rows), sortedRowStrings(mustExec(t, e, moved).Rows)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %d rows, but %d with the non-key conjuncts in WHERE", q, len(got), len(want))
				}
				assertSameResults(t, e, q)
			}
		})
	}
}

// TestInnerJoinOnSplitsKeysFromFilter pins the plan: the cross-input
// equality is the inner join's condition, the other conjunct its filter,
// and the filter's selectivity lowers the join's row estimate.
func TestInnerJoinOnSplitsKeysFromFilter(t *testing.T) {
	e := innerOnDB(t, DefaultConfig())
	innerJoin := func(on string) *Node {
		t.Helper()
		plan, err := e.PlanSQL(fmt.Sprintf(innerOnQuery, "COUNT(*)", on, ""))
		if err != nil {
			t.Fatal(err)
		}
		var j *Node
		plan.Walk(func(n *Node) {
			if n.JoinType == sqlparser.InnerJoin && len(n.Children) == 2 && n.Op != OpHash {
				j = n
			}
		})
		if j == nil {
			t.Fatalf("ON %s: no inner join in\n%s", on, ExplainText(plan))
		}
		return j
	}
	j := innerJoin("c.ck = o.ck AND o.price > 100")
	if got := condStrings(j.JoinCond); len(got) != 1 || got[0] != "c.ck = o.ck" {
		t.Errorf("join condition = %q, want only the key c.ck = o.ck", got)
	}
	if got := condStrings(j.Filter); len(got) != 1 || got[0] != "o.price > 100" {
		t.Errorf("join filter = %q, want o.price > 100", got)
	}
	if keyOnly := innerJoin("c.ck = o.ck"); j.EstRows >= keyOnly.EstRows {
		t.Errorf("filtered join estimates %.0f rows, the key-only join %.0f: the filter is not costed", j.EstRows, keyOnly.EstRows)
	}
}
