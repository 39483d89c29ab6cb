package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"lantern/internal/storage"
)

// testDB builds a small database patterned on the paper's running examples:
// a dblp-like pair of tables plus an orders/customer pair.
func testDB(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	seedTestDB(t, e, 0)
	return e
}

// seedTestDB loads the standard test schema and rows into e. A non-zero
// segCap shrinks every table's segment capacity first, so the small test
// tables seal (and, on a disk-backed catalog, spill) multiple segments.
func seedTestDB(t *testing.T, e *Engine, segCap int) {
	t.Helper()
	script := `
CREATE TABLE inproceedings (proceeding_key INTEGER, author VARCHAR(30));
CREATE TABLE publication (pub_key INTEGER, title VARCHAR(60));
CREATE TABLE customer (c_custkey INTEGER, c_name VARCHAR(25), c_mktsegment VARCHAR(10), c_acctbal FLOAT);
CREATE TABLE orders (o_orderkey INTEGER, o_custkey INTEGER, o_totalprice FLOAT, o_status VARCHAR(1));
CREATE TABLE measures (m_id INTEGER, m_grp VARCHAR(2), m_i INTEGER, m_f FLOAT, m_mixed FLOAT);
CREATE INDEX customer_pk ON customer (c_custkey);
`
	if _, err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if segCap > 0 {
		for _, name := range e.Cat.TableNames() {
			tbl, err := e.Cat.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.SetSegmentCapacity(segCap); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 1; i <= 40; i++ {
		title := "Proc"
		if i%4 == 0 {
			title = "July Proceedings"
		}
		mustExec(t, e, fmt.Sprintf("INSERT INTO inproceedings VALUES (%d, 'auth%d')", i%10, i))
		mustExec(t, e, fmt.Sprintf("INSERT INTO publication VALUES (%d, '%s %d')", i%10, title, i))
	}
	for i := 1; i <= 20; i++ {
		seg := "BUILDING"
		if i%3 == 0 {
			seg = "AUTO"
		}
		mustExec(t, e, fmt.Sprintf("INSERT INTO customer VALUES (%d, 'cust%d', '%s', %d.5)", i, i, seg, i*10))
	}
	for i := 1; i <= 60; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d.0, '%s')", i, i%20+1, i*7, string(rune('A'+i%3))))
	}
	seedMeasures(t, e)
}

// seedMeasures fills measures, the aggregation table: 27 rows, so 8-row
// segments leave a 3-row tail. m_grp cycles through 'a', 'b', 'c', NULL
// and 'n', whose m_i and m_f are all NULL, and every seventh row's are
// NULL too. Group 'b' holds two int64 maxima, so its integer sum wraps;
// m_f mixes signs, inexact fractions and one 1e16, so float sums depend
// on the order of their additions, and row 3's m_f is -0.0. The UPDATE
// stores integers into rows 1 to 5 of the FLOAT column m_mixed, which
// leaves it mixed kinds without a typed vector.
func seedMeasures(t *testing.T, e *Engine) {
	t.Helper()
	for i := 1; i <= 27; i++ {
		grp := []string{"'a'", "'b'", "'c'", "NULL", "'n'"}[i%5]
		mi, mf := fmt.Sprint(i*i-50), fmt.Sprintf("%d.%d", i-13, i%10)
		switch {
		case grp == "'n'" || i%7 == 0:
			mi, mf = "NULL", "NULL"
		case i == 6 || i == 11:
			mi = "9223372036854775807"
		case i == 20:
			mf = "10000000000000000.0"
		}
		mustExec(t, e, fmt.Sprintf("INSERT INTO measures VALUES (%d, %s, %s, %s, %d.25)", i, grp, mi, mf, i))
	}
	mustExec(t, e, "UPDATE measures SET m_f = 0.0 * -1 WHERE m_id = 3")
	mustExec(t, e, "UPDATE measures SET m_mixed = m_id * 1000 WHERE m_id < 6")
}

func mustExec(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	r, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return r
}

func rowStrings(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func sortedRowStrings(rows []storage.Row) []string {
	out := rowStrings(rows)
	sort.Strings(out)
	return out
}

func TestSelectProjection(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT c_name, c_acctbal * 2 AS double_bal FROM customer WHERE c_custkey = 3")
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(r.Rows))
	}
	if r.Columns[0] != "c_name" || r.Columns[1] != "double_bal" {
		t.Errorf("columns = %v", r.Columns)
	}
	if r.Rows[0][0].Str() != "cust3" || r.Rows[0][1].Float() != 61 {
		t.Errorf("row = %v", r.Rows[0])
	}
}

func TestSelectStarExec(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT * FROM customer")
	if len(r.Rows) != 20 || len(r.Columns) != 4 {
		t.Fatalf("rows=%d cols=%d", len(r.Rows), len(r.Columns))
	}
}

func TestWhereFiltering(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT c_custkey FROM customer WHERE c_mktsegment = 'AUTO'")
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(r.Rows))
	}
	r = mustExec(t, e, "SELECT c_custkey FROM customer WHERE c_acctbal BETWEEN 50 AND 100")
	if len(r.Rows) != 5 { // 50.5 .. 95.5 for keys 5..9
		t.Fatalf("between rows = %d, want 5", len(r.Rows))
	}
	r = mustExec(t, e, "SELECT c_custkey FROM customer WHERE c_name LIKE 'cust1%'")
	if len(r.Rows) != 11 { // cust1, cust10..cust19
		t.Fatalf("like rows = %d, want 11", len(r.Rows))
	}
}

func TestOrderByAndLimit(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT c_custkey FROM customer ORDER BY c_acctbal DESC LIMIT 3")
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	want := []int64{20, 19, 18}
	for i, w := range want {
		if r.Rows[i][0].Int() != w {
			t.Errorf("row %d = %v, want %d", i, r.Rows[i][0], w)
		}
	}
}

func TestDistinct(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT DISTINCT c_mktsegment FROM customer")
	if len(r.Rows) != 2 {
		t.Fatalf("distinct rows = %d, want 2", len(r.Rows))
	}
}

func TestAggregatesNoGroup(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT COUNT(*), SUM(c_acctbal), MIN(c_custkey), MAX(c_custkey), AVG(c_custkey) FROM customer")
	row := r.Rows[0]
	if row[0].Int() != 20 {
		t.Errorf("count = %v", row[0])
	}
	if row[1].Float() != 2110 { // sum of 10.5..200.5 = 10*(1..20)+0.5*20
		t.Errorf("sum = %v", row[1])
	}
	if row[2].Int() != 1 || row[3].Int() != 20 {
		t.Errorf("min/max = %v %v", row[2], row[3])
	}
	if row[4].Float() != 10.5 {
		t.Errorf("avg = %v", row[4])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_custkey > 1000")
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(r.Rows))
	}
	if r.Rows[0][0].Int() != 0 || !r.Rows[0][1].IsNull() {
		t.Errorf("row = %v", r.Rows[0])
	}
}

func TestGroupByHaving(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment HAVING COUNT(*) > 10")
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(r.Rows))
	}
	if r.Rows[0][0].Str() != "BUILDING" || r.Rows[0][1].Int() != 14 {
		t.Errorf("row = %v", r.Rows[0])
	}
}

func TestGroupByGroupedEmptyInput(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT c_mktsegment, COUNT(*) FROM customer WHERE c_custkey > 1000 GROUP BY c_mktsegment")
	if len(r.Rows) != 0 {
		t.Fatalf("rows = %d, want 0", len(r.Rows))
	}
}

func TestCountDistinct(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT COUNT(DISTINCT c_mktsegment) FROM customer")
	if r.Rows[0][0].Int() != 2 {
		t.Errorf("count distinct = %v", r.Rows[0][0])
	}
}

func TestJoinBasic(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, `SELECT c.c_name, o.o_orderkey FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 350`)
	// o_totalprice = i*7 > 350 => i >= 51 => 10 orders
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(r.Rows))
	}
}

func TestPaperQueryEndToEnd(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, `SELECT DISTINCT(I.proceeding_key)
		FROM inproceedings I, publication P
		WHERE I.proceeding_key = P.pub_key AND P.title LIKE '%July%'
		GROUP BY I.proceeding_key
		HAVING COUNT(*) > 2`)
	// Keys 0,4,8 have July titles (i%4==0 -> keys i%10 of 4,8,12,...,40).
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	// July titles appear at i in {4,8,...,40}, so pub_key = i%10 is even.
	for _, row := range r.Rows {
		k := row[0].Int()
		if k%2 != 0 {
			t.Errorf("unexpected key %d", k)
		}
	}
}

// joinConfigs exercises each join algorithm in isolation.
func joinConfigs() map[string]Config {
	base := DefaultConfig()
	hash, merge, nl := base, base, base
	hash.EnableMergeJoin, hash.EnableNestLoop = false, false
	merge.EnableHashJoin, merge.EnableNestLoop = false, false
	nl.EnableHashJoin, nl.EnableMergeJoin = false, false
	noIdx := base
	noIdx.EnableIndexScan = false
	noHashAgg := base
	noHashAgg.EnableHashAgg = false
	return map[string]Config{
		"default": base, "hash-only": hash, "merge-only": merge,
		"nl-only": nl, "no-index": noIdx, "no-hashagg": noHashAgg,
	}
}

// TestPlanInvariance: every planner configuration must return the same
// multiset of rows for the same query — the core executor-correctness
// property from DESIGN.md.
func TestPlanInvariance(t *testing.T) {
	queries := []string{
		"SELECT c.c_name, o.o_orderkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey",
		"SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 100",
		"SELECT i.proceeding_key, COUNT(*) FROM inproceedings i, publication p WHERE i.proceeding_key = p.pub_key GROUP BY i.proceeding_key",
		"SELECT DISTINCT o.o_status FROM orders o, customer c WHERE o.o_custkey = c.c_custkey AND c.c_mktsegment = 'AUTO'",
		"SELECT c_custkey FROM customer WHERE c_custkey BETWEEN 5 AND 12",
		"SELECT o.o_orderkey FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey WHERE c.c_acctbal > 100 ORDER BY o.o_orderkey",
		"SELECT c_mktsegment, SUM(c_acctbal) FROM customer GROUP BY c_mktsegment HAVING SUM(c_acctbal) > 100",
	}
	var reference map[string][]string
	for name, cfg := range joinConfigs() {
		e := testDB(t, cfg)
		results := make(map[string][]string)
		for _, q := range queries {
			r := mustExec(t, e, q)
			results[q] = sortedRowStrings(r.Rows)
		}
		if reference == nil {
			reference = results
			continue
		}
		for q, rows := range results {
			ref := reference[q]
			if len(rows) != len(ref) {
				t.Errorf("[%s] %q: %d rows, reference %d", name, q, len(rows), len(ref))
				continue
			}
			for i := range rows {
				if rows[i] != ref[i] {
					t.Errorf("[%s] %q row %d:\n  got  %s\n  want %s", name, q, i, rows[i], ref[i])
					break
				}
			}
		}
	}
}

func TestThreeWayJoin(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, `SELECT COUNT(*) FROM customer c, orders o, publication p
		WHERE c.c_custkey = o.o_custkey AND o.o_custkey = p.pub_key`)
	if r.Rows[0][0].Int() == 0 {
		t.Fatal("expected rows from 3-way join")
	}
	// Same under all configs.
	want := r.Rows[0][0].Int()
	for name, cfg := range joinConfigs() {
		e2 := testDB(t, cfg)
		r2 := mustExec(t, e2, `SELECT COUNT(*) FROM customer c, orders o, publication p
			WHERE c.c_custkey = o.o_custkey AND o.o_custkey = p.pub_key`)
		if r2.Rows[0][0].Int() != want {
			t.Errorf("[%s] count = %v, want %d", name, r2.Rows[0][0], want)
		}
	}
}

func TestLeftJoin(t *testing.T) {
	e := testDB(t, DefaultConfig())
	// customers 1..20; orders reference custkeys 2..20+1=21? o_custkey = i%20+1 covers 1..20.
	mustExec(t, e, "INSERT INTO customer VALUES (99, 'lonely', 'AUTO', 0.0)")
	r := mustExec(t, e, `SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey WHERE c.c_custkey = 99`)
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(r.Rows))
	}
	if !r.Rows[0][1].IsNull() {
		t.Errorf("expected NULL order key, got %v", r.Rows[0][1])
	}
}

func TestLeftJoinNLPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableHashJoin = false
	e := testDB(t, cfg)
	mustExec(t, e, "INSERT INTO customer VALUES (99, 'lonely', 'AUTO', 0.0)")
	r := mustExec(t, e, `SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey WHERE c.c_custkey = 99`)
	if len(r.Rows) != 1 || !r.Rows[0][1].IsNull() {
		t.Fatalf("rows = %v", rowStrings(r.Rows))
	}
}

func TestIndexScanChosenAndCorrect(t *testing.T) {
	e := testDB(t, DefaultConfig())
	plan, err := e.PlanSQL("SELECT c_name FROM customer WHERE c_custkey = 7")
	if err != nil {
		t.Fatal(err)
	}
	hasIndexScan := false
	plan.Walk(func(n *Node) {
		if n.Op == OpIndexScan {
			hasIndexScan = true
		}
	})
	if !hasIndexScan {
		t.Errorf("expected index scan in plan:\n%s", ExplainText(plan))
	}
	r := mustExec(t, e, "SELECT c_name FROM customer WHERE c_custkey = 7")
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "cust7" {
		t.Errorf("rows = %v", rowStrings(r.Rows))
	}
}

func TestIndexRangeScanCorrect(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT c_custkey FROM customer WHERE c_custkey > 17")
	if len(r.Rows) != 3 {
		t.Errorf("rows = %d, want 3: %v", len(r.Rows), rowStrings(r.Rows))
	}
}

func TestInListAndSubquery(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT c_name FROM customer WHERE c_custkey IN (1, 2, 3)")
	if len(r.Rows) != 3 {
		t.Fatalf("in-list rows = %d", len(r.Rows))
	}
	r = mustExec(t, e, "SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders WHERE o_totalprice > 400)")
	if len(r.Rows) == 0 {
		t.Fatal("in-subquery returned nothing")
	}
}

func TestScalarSubqueryExec(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT c_name FROM customer WHERE c_acctbal > (SELECT AVG(c_acctbal) FROM customer)")
	if len(r.Rows) != 10 {
		t.Errorf("rows = %d, want 10", len(r.Rows))
	}
}

func TestExistsExec(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT c_name FROM customer WHERE EXISTS (SELECT 1 FROM orders WHERE o_totalprice > 100000)")
	if len(r.Rows) != 0 {
		t.Errorf("rows = %d, want 0", len(r.Rows))
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	e := NewDefault()
	r := mustExec(t, e, "SELECT 1 + 2 AS three, 'x'")
	if r.Rows[0][0].Int() != 3 || r.Rows[0][1].Str() != "x" {
		t.Errorf("row = %v", r.Rows[0])
	}
	if r.Columns[0] != "three" {
		t.Errorf("columns = %v", r.Columns)
	}
}

// TestSelectWithoutFromClauses: a FROM-less SELECT is planned like any
// other over a one-row Result, so WHERE, aggregates, ORDER BY, LIMIT and
// OFFSET apply. Row counts are pinned in the batch, instrumented and
// reference executors, and so is the plan EXPLAIN shows. Like
// PostgreSQL, SELECT COUNT(*) counts the one row.
func TestSelectWithoutFromClauses(t *testing.T) {
	e := NewDefault()
	for _, c := range []struct {
		sql   string
		rows  int
		first string // the first row, when rows > 0
		plan  string // the text EXPLAIN, costs dropped
	}{
		{"SELECT 1 LIMIT 0", 0, "", "Limit\n->  Result"},
		{"SELECT 1 OFFSET 1", 0, "", "Limit\n->  Result"},
		{"SELECT 1 WHERE 1 = 0", 0, "", "Result\nFilter: ((1) = (0))"},
		{"SELECT 1 WHERE 1 = 1 LIMIT 1", 1, "[1]", "Limit\n->  Result\nFilter: ((1) = (1))"},
		{"SELECT 7 AS x ORDER BY x DESC", 1, "[7]", "Sort\nSort Key: 7 DESC\n->  Result"},
		{"SELECT COUNT(*)", 1, "[1]", "Aggregate\n->  Result"},
		{"SELECT COUNT(*) WHERE 1 = 0", 1, "[0]", "Aggregate\n->  Result\nFilter: ((1) = (0))"},
	} {
		for _, ref := range []bool{false, true} {
			e.Cfg.ReferenceExec = ref
			r := mustExec(t, e, c.sql)
			if len(r.Rows) != c.rows {
				t.Errorf("%q (reference %v): %d rows, want %d", c.sql, ref, len(r.Rows), c.rows)
			} else if c.rows > 0 && fmt.Sprint(r.Rows[0]) != c.first {
				t.Errorf("%q (reference %v): first row %v, want %s", c.sql, ref, r.Rows[0], c.first)
			}
		}
		e.Cfg.ReferenceExec = false
		qr, err := e.QueryInstrumented(c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		if len(qr.Result.Rows) != c.rows {
			t.Errorf("%q (instrumented): %d rows, want %d", c.sql, len(qr.Result.Rows), c.rows)
		}
		pl, err := e.PlanSQL(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		var shape []string
		for _, line := range strings.Split(strings.TrimSpace(ExplainText(pl)), "\n") {
			line = strings.TrimSpace(line)
			if i := strings.Index(line, "  (cost="); i >= 0 {
				line = line[:i]
			}
			shape = append(shape, line)
		}
		if got := strings.Join(shape, "\n"); got != c.plan {
			t.Errorf("%q plans\n%s\nwant\n%s", c.sql, got, c.plan)
		}
	}
	if _, err := e.Exec("SELECT *"); err == nil {
		t.Error("SELECT * without FROM should fail")
	}
}

// TestHavingWithoutGroupBy: HAVING without GROUP BY or an aggregate makes
// the whole input one group, as in PostgreSQL, so the query returns one
// row when HAVING holds, even over no input rows, and none when it fails.
// A column of that input, named or under a star, is neither grouped nor
// aggregated and fails. Row counts are pinned in the batch, instrumented
// and reference executors.
func TestHavingWithoutGroupBy(t *testing.T) {
	e := testDB(t, DefaultConfig())
	for _, c := range []struct {
		sql  string
		rows int
	}{
		{"SELECT 1 HAVING 1 = 1", 1},
		{"SELECT 1 HAVING 1 = 0", 0},
		{"SELECT 1 FROM customer HAVING 1 = 1", 1},
		{"SELECT 1 FROM customer HAVING 1 = 0", 0},
		{"SELECT 1 FROM customer WHERE 1 = 0 HAVING 1 = 1", 1},
	} {
		for _, ref := range []bool{false, true} {
			e.Cfg.ReferenceExec = ref
			if r := mustExec(t, e, c.sql); len(r.Rows) != c.rows {
				t.Errorf("%q (reference %v): %d rows, want %d", c.sql, ref, len(r.Rows), c.rows)
			}
		}
		e.Cfg.ReferenceExec = false
		qr, err := e.QueryInstrumented(c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		if len(qr.Result.Rows) != c.rows {
			t.Errorf("%q (instrumented): %d rows, want %d", c.sql, len(qr.Result.Rows), c.rows)
		}
	}
	for _, sql := range []string{
		"SELECT c_name FROM customer HAVING 1 = 1",
		"SELECT * FROM customer HAVING 1 = 1",
		"SELECT c.* FROM customer c HAVING 1 = 1",
		"SELECT *, COUNT(*) FROM customer",
	} {
		for _, ref := range []bool{false, true} {
			e.Cfg.ReferenceExec = ref
			if r, err := e.Exec(sql); err == nil {
				t.Errorf("%q (reference %v) returned %d rows, want an error", sql, ref, len(r.Rows))
			}
		}
		e.Cfg.ReferenceExec = false
		if _, err := e.QueryInstrumented(sql); err == nil {
			t.Errorf("%q (instrumented) succeeded, want an error", sql)
		}
	}
}

func TestUpdateDelete(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "UPDATE customer SET c_mktsegment = 'RETAIL' WHERE c_custkey <= 5")
	if r.Affected != 5 {
		t.Fatalf("updated %d, want 5", r.Affected)
	}
	r = mustExec(t, e, "SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'RETAIL'")
	if r.Rows[0][0].Int() != 5 {
		t.Errorf("count = %v", r.Rows[0][0])
	}
	r = mustExec(t, e, "DELETE FROM customer WHERE c_mktsegment = 'RETAIL'")
	if r.Affected != 5 {
		t.Fatalf("deleted %d, want 5", r.Affected)
	}
	r = mustExec(t, e, "SELECT COUNT(*) FROM customer")
	if r.Rows[0][0].Int() != 15 {
		t.Errorf("remaining = %v", r.Rows[0][0])
	}
}

func TestUpdateWithScalarSubquery(t *testing.T) {
	e := testDB(t, DefaultConfig())
	mustExec(t, e, "UPDATE customer SET c_name = (SELECT MAX(o_status) FROM orders) WHERE c_custkey = 1")
	r := mustExec(t, e, "SELECT c_name FROM customer WHERE c_custkey = 1")
	if r.Rows[0][0].Str() != "C" {
		t.Errorf("name = %v", r.Rows[0][0])
	}
}

func TestErrorCases(t *testing.T) {
	e := testDB(t, DefaultConfig())
	for _, q := range []string{
		"SELECT nope FROM customer",
		"SELECT * FROM ghost",
		"SELECT c_custkey FROM customer, orders WHERE c_custkey = o_orderkey AND ghost = 1",
		"SELECT c_custkey FROM customer HAVING COUNT(*) > 1 AND c_custkey = 1",
		"INSERT INTO customer (ghost) VALUES (1)",
		"INSERT INTO customer VALUES (1)",
		"UPDATE customer SET ghost = 1",
		"SELECT proceeding_key FROM inproceedings, publication WHERE pub_key = pub_key AND proceeding_key = proceeding_key", // fine actually? ambiguous names resolve uniquely
	} {
		if _, err := e.Exec(q); err == nil && !strings.Contains(q, "pub_key = pub_key") {
			t.Errorf("Exec(%q): expected error", q)
		}
	}
	// Duplicate alias.
	if _, err := e.Exec("SELECT * FROM customer c, orders c"); err == nil {
		t.Error("duplicate alias should fail")
	}
}

func TestExplainTextOutput(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "EXPLAIN SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey")
	if !strings.Contains(r.Plan, "Hash Join") && !strings.Contains(r.Plan, "Merge Join") && !strings.Contains(r.Plan, "Nested Loop") {
		t.Errorf("no join in plan:\n%s", r.Plan)
	}
	if !strings.Contains(r.Plan, "Seq Scan on orders") && !strings.Contains(r.Plan, "Index Scan") {
		t.Errorf("no scan in plan:\n%s", r.Plan)
	}
}

func TestExplainJSONOutput(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "EXPLAIN (FORMAT JSON) SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey")
	if !strings.Contains(r.Plan, `"Node Type"`) || !strings.Contains(r.Plan, `"Plan"`) {
		t.Errorf("bad JSON plan:\n%s", r.Plan)
	}
}

func TestExplainXMLOutput(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "EXPLAIN (FORMAT XML) SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey")
	if !strings.Contains(r.Plan, "ShowPlanXML") || !strings.Contains(r.Plan, "PhysicalOp") {
		t.Errorf("bad XML plan:\n%s", r.Plan)
	}
	// Hash build nodes must be inlined in the SQL-Server-style form.
	if strings.Contains(r.Plan, `PhysicalOp="Hash"`) && !strings.Contains(r.Plan, "Hash Match") {
		t.Errorf("hash node leaked into XML plan:\n%s", r.Plan)
	}
}

func TestPaperPlanShape(t *testing.T) {
	// The plan for the paper's Example 3.1 should include a join, an
	// aggregate and a Unique, as in Figure 4.
	cfg := DefaultConfig()
	cfg.EnableHashAgg = false // match the paper's GroupAggregate plan
	e := testDB(t, cfg)
	plan, err := e.PlanSQL(`SELECT DISTINCT(I.proceeding_key)
		FROM inproceedings I, publication P
		WHERE I.proceeding_key = P.pub_key AND P.title LIKE '%July%'
		GROUP BY I.proceeding_key
		HAVING COUNT(*) > 200`)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	plan.Walk(func(n *Node) { ops = append(ops, n.Op.Name()) })
	text := strings.Join(ops, ",")
	for _, want := range []string{"Unique", "Aggregate", "Seq Scan"} {
		if !strings.Contains(text, want) {
			t.Errorf("plan lacks %s: %s\n%s", want, text, ExplainText(plan))
		}
	}
	if !strings.Contains(text, "Join") && !strings.Contains(text, "Nested Loop") {
		t.Errorf("plan lacks a join: %s", text)
	}
}

func TestOrderByAliasAndAggregate(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, `SELECT c_mktsegment, SUM(c_acctbal) AS revenue FROM customer
		GROUP BY c_mktsegment ORDER BY revenue DESC`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][1].Float() < r.Rows[1][1].Float() {
		t.Error("not sorted by revenue desc")
	}
}

func TestCrossJoinNoPredicate(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, "SELECT COUNT(*) FROM customer, publication")
	if r.Rows[0][0].Int() != 20*40 {
		t.Errorf("cross join count = %v, want 800", r.Rows[0][0])
	}
}

func TestGreedyJoinManyTables(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DPThreshold = 2 // force greedy
	e := testDB(t, cfg)
	r := mustExec(t, e, `SELECT COUNT(*) FROM customer c, orders o, publication p
		WHERE c.c_custkey = o.o_custkey AND o.o_custkey = p.pub_key`)
	e2 := testDB(t, DefaultConfig())
	r2 := mustExec(t, e2, `SELECT COUNT(*) FROM customer c, orders o, publication p
		WHERE c.c_custkey = o.o_custkey AND o.o_custkey = p.pub_key`)
	if r.Rows[0][0].Int() != r2.Rows[0][0].Int() {
		t.Errorf("greedy = %v, dp = %v", r.Rows[0][0], r2.Rows[0][0])
	}
}

func TestCaseExpression(t *testing.T) {
	e := testDB(t, DefaultConfig())
	r := mustExec(t, e, `SELECT CASE WHEN c_acctbal > 100 THEN 'rich' ELSE 'poor' END AS class, COUNT(*)
		FROM customer GROUP BY CASE WHEN c_acctbal > 100 THEN 'rich' ELSE 'poor' END`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
}

func TestNullHandlingInJoin(t *testing.T) {
	e := NewDefault()
	_, _ = e.ExecScript(`CREATE TABLE a (x INTEGER); CREATE TABLE b (y INTEGER);
		INSERT INTO a VALUES (1), (NULL); INSERT INTO b VALUES (1), (NULL);`)
	for name, cfg := range joinConfigs() {
		e2 := New(cfg)
		_, _ = e2.ExecScript(`CREATE TABLE a (x INTEGER); CREATE TABLE b (y INTEGER);
			INSERT INTO a VALUES (1), (NULL); INSERT INTO b VALUES (1), (NULL);`)
		r := mustExec(t, e2, "SELECT COUNT(*) FROM a, b WHERE a.x = b.y")
		if r.Rows[0][0].Int() != 1 {
			t.Errorf("[%s] NULL join count = %v, want 1", name, r.Rows[0][0])
		}
	}
}

func TestPlanCountNodes(t *testing.T) {
	e := testDB(t, DefaultConfig())
	plan, err := e.PlanSQL("SELECT c_custkey FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	if plan.CountNodes() < 1 {
		t.Error("CountNodes < 1")
	}
}
