package engine

// Differential tests: every query runs through the vectorized batch
// executor (the default), its instrumented run (QueryInstrumented, the
// path /v2/query serves), the morsel-parallel executor and the
// materializing reference executor (Config.ReferenceExec), asserting all
// produce identical results — as ordered sequences under ORDER BY (which
// also pins tie order, i.e. sort stability), as row multisets otherwise.
// A fixed-seed randomized query generator widens the corpus beyond the
// hand-written cases, and every query is repeated under planner
// configurations that force each join algorithm and access path, so all
// operators are exercised.

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lantern/internal/sqlparser"
)

// diffConfigs are the planner configurations each differential query runs
// under, forcing distinct plan shapes over the same SQL. no-hash-agg runs
// every grouped query as Sort → GroupAggregate.
func diffConfigs() map[string]Config {
	def := DefaultConfig()
	hashOnly := def
	hashOnly.EnableMergeJoin, hashOnly.EnableNestLoop = false, false
	mergeOnly := def
	mergeOnly.EnableHashJoin, mergeOnly.EnableNestLoop = false, false
	nlOnly := def
	nlOnly.EnableHashJoin, nlOnly.EnableMergeJoin = false, false
	noIndex := def
	noIndex.EnableIndexScan = false
	greedy := def
	greedy.DPThreshold = 1
	noHashAgg := def
	noHashAgg.EnableHashAgg = false
	return map[string]Config{
		"default": def, "hash-only": hashOnly, "merge-only": mergeOnly,
		"nl-only": nlOnly, "no-index": noIndex, "greedy": greedy,
		"no-hash-agg": noHashAgg,
	}
}

// assertSameResults runs sql through four executions on e — vectorized
// (default), instrumented vectorized, the materializing reference, and the
// morsel-parallel executor with forced-up DOP — compares each against
// the reference, and returns the reference's result (nil when all four
// failed).
func assertSameResults(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	e.Cfg.ReferenceExec = false
	vec, vErr := e.Exec(sql)
	var instr *Result
	qr, iErr := e.QueryInstrumented(sql)
	if iErr == nil {
		instr = qr.Result
	}
	e.Cfg.ReferenceExec = true
	ref, rErr := e.Exec(sql)
	e.Cfg.ReferenceExec = false
	// Parallel leg: a session over the same catalog with the DOP policy
	// forced up so even the tiny test tables split into per-row morsels
	// across 4 workers (the container may have GOMAXPROCS=1, so the cap
	// deliberately oversubscribes).
	par := e.Session()
	par.Cfg.ReferenceExec = false
	par.Cfg.MaxQueryParallelism = 4
	par.Cfg.ParallelRowsPerWorker = 1
	parRes, pErr := par.Exec(sql)
	if (vErr != nil) != (rErr != nil) || (iErr != nil) != (rErr != nil) || (pErr != nil) != (rErr != nil) {
		t.Fatalf("query %q: vectorized err = %v, instrumented err = %v, parallel err = %v, reference err = %v", sql, vErr, iErr, pErr, rErr)
	}
	if rErr != nil {
		return nil // all failed: acceptable as long as they agree
	}
	ordered := false
	if sel, err := sqlparser.ParseSelect(sql); err == nil {
		ordered = len(sel.OrderBy) > 0
	}
	compare := func(label string, res *Result) {
		t.Helper()
		var got, want []string
		if ordered {
			got, want = rowStrings(res.Rows), rowStrings(ref.Rows)
		} else {
			got, want = sortedRowStrings(res.Rows), sortedRowStrings(ref.Rows)
		}
		if len(got) != len(want) {
			t.Fatalf("query %q: %s returned %d rows, reference %d", sql, label, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %q: row %d differs:\n%s: %s\nreference: %s", sql, i, label, got[i], want[i])
			}
		}
	}
	compare("vectorized", vec)
	compare("instrumented", instr)
	compare("parallel", parRes)
	return ref
}

// diffCorpus is the hand-written query corpus, covering every operator and
// expression form the executors implement.
var diffCorpus = []string{
	// Scans, filters, expressions.
	"SELECT * FROM customer",
	"SELECT c_name, c_acctbal * 2 FROM customer WHERE c_acctbal > 50",
	"SELECT c_custkey FROM customer WHERE c_custkey = 7",
	"SELECT c_custkey FROM customer WHERE c_custkey BETWEEN 5 AND 12",
	"SELECT c_name FROM customer WHERE c_name LIKE 'cust1%'",
	"SELECT c_name FROM customer WHERE c_mktsegment IN ('AUTO', 'MACHINERY')",
	"SELECT c_name FROM customer WHERE c_acctbal IS NOT NULL AND NOT c_mktsegment = 'AUTO'",
	// BETWEEN and IN lists compile to typed, zone-pruned predicates when
	// the operand is a column and every bound or item a literal; the
	// NOT, subquery and non-literal forms stay on the bound closure.
	"SELECT c_custkey FROM customer WHERE c_custkey BETWEEN 12 AND 5",
	"SELECT c_custkey FROM customer WHERE c_custkey BETWEEN NULL AND 12",
	"SELECT c_custkey FROM customer WHERE c_custkey BETWEEN 4.5 AND 9.5",
	"SELECT c_custkey FROM customer WHERE c_custkey BETWEEN 16 AND 24",
	"SELECT c_name FROM customer WHERE c_name BETWEEN 'cust1' AND 'cust3'",
	"SELECT o_orderkey FROM orders WHERE o_totalprice BETWEEN 100 AND 200.5",
	"SELECT o_orderkey FROM orders WHERE o_orderkey BETWEEN 8 AND 33 AND o_status IN ('A', 'C')",
	"SELECT c.c_name, o.o_orderkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND o.o_orderkey BETWEEN 10 AND 20",
	"SELECT c_name FROM customer WHERE c_mktsegment IN ('AUTO', NULL)",
	"SELECT c_name FROM customer WHERE c_custkey IN (NULL)",
	"SELECT c_name FROM customer WHERE c_custkey IN (NULL, NULL)",
	"SELECT c_name FROM customer WHERE c_custkey IN (100, 200)",
	"SELECT c_name FROM customer WHERE c_custkey IN (3, 4.0, 5.5)",
	"SELECT c_name FROM customer WHERE c_acctbal IN (30.5, 40.5, 50)",
	"SELECT o_orderkey FROM orders WHERE o_custkey IN (1, 9, 17, 40)",
	"SELECT c_custkey FROM customer WHERE c_custkey NOT BETWEEN 5 AND 12",
	"SELECT c_custkey FROM customer WHERE c_custkey NOT BETWEEN NULL AND 5",
	"SELECT c_custkey FROM customer WHERE c_custkey NOT IN (1, 2, 3)",
	"SELECT c_custkey FROM customer WHERE c_custkey NOT IN (1, NULL)",
	"SELECT o_orderkey FROM orders WHERE o_orderkey IN (o_custkey, 7)",
	"SELECT o_orderkey FROM orders WHERE o_orderkey BETWEEN o_custkey AND 30",
	"SELECT UPPER(c_name), LENGTH(c_mktsegment), ABS(0 - c_custkey) FROM customer",
	"SELECT SUBSTRING(c_name, 1, 4), REPLACE(c_mktsegment, 'AUTO', 'CAR') FROM customer",
	"SELECT COALESCE(NULL, c_name), c_name || '!' FROM customer WHERE c_custkey < 5",
	"SELECT CASE WHEN c_acctbal > 100 THEN 'rich' ELSE 'poor' END FROM customer",
	// Joins.
	"SELECT c.c_name, o.o_totalprice FROM customer c, orders o WHERE c.c_custkey = o.o_custkey",
	"SELECT c.c_name, o.o_totalprice FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 100",
	"SELECT c.c_name, o.o_orderkey FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_status = 'A'",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_totalprice > 300",
	// LEFT JOIN with WHERE filters: matched is decided by the ON condition
	// alone, and the filter applies after null-extension.
	"SELECT c.c_name FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_totalprice > 300 WHERE o.o_orderkey IS NULL",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey WHERE o.o_totalprice > 200",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_status = 'A' WHERE o.o_orderkey IS NOT NULL AND c.c_acctbal > 50",
	"SELECT i.author, p.title FROM inproceedings i, publication p WHERE i.proceeding_key = p.pub_key",
	"SELECT c.c_name, o.o_orderkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND c.c_acctbal < o.o_totalprice",
	"SELECT COUNT(*) FROM customer c, orders o, publication p WHERE c.c_custkey = o.o_custkey AND p.pub_key = o.o_custkey",
	// Cross join (no equi-condition).
	"SELECT COUNT(*) FROM publication p, customer c WHERE p.pub_key < c.c_custkey",
	// Aggregation.
	"SELECT COUNT(*) FROM orders",
	"SELECT SUM(o_totalprice), AVG(o_totalprice), MIN(o_totalprice), MAX(o_totalprice) FROM orders",
	"SELECT o_status, COUNT(*) FROM orders GROUP BY o_status",
	"SELECT o_status, SUM(o_totalprice) FROM orders GROUP BY o_status HAVING COUNT(*) > 15",
	"SELECT c_mktsegment, COUNT(DISTINCT c_custkey) FROM customer GROUP BY c_mktsegment",
	"SELECT COUNT(*) FROM customer WHERE c_acctbal > 10000",
	// DISTINCT.
	"SELECT DISTINCT o_status FROM orders",
	"SELECT DISTINCT c_mktsegment, c_acctbal > 100 FROM customer",
	"SELECT DISTINCT c.* FROM customer c, orders o WHERE c.c_custkey = o.o_custkey",
	// One key equality in every hashing operator: an integer key equals
	// the float of its value, -0.0 equals 0.0, NULL keys group together
	// but never join or match IN, and keys of mixed kinds (integers,
	// floats equal to some of them, strings, NULL) deduplicate as
	// datum.Compare orders them.
	"SELECT m.m_id, o.o_orderkey FROM measures m, orders o WHERE m.m_i = o.o_totalprice",
	"SELECT o_orderkey FROM orders WHERE o_totalprice IN (SELECT m_i FROM measures)",
	"SELECT o_orderkey FROM orders WHERE o_totalprice NOT IN (SELECT m_i FROM measures)",
	"SELECT m_id FROM measures WHERE m_f IN (SELECT m_f FROM measures WHERE m_id < 10)",
	"SELECT DISTINCT m_grp FROM measures",
	"SELECT DISTINCT m_f * 0, m_grp FROM measures",
	"SELECT m_f * 0, COUNT(*), COUNT(DISTINCT m_grp) FROM measures GROUP BY m_f * 0",
	"SELECT DISTINCT CASE WHEN m_id < 6 THEN m_mixed * 1000 WHEN m_id < 11 THEN (m_id - 5) * 1000000.0 ELSE m_grp END FROM measures",
	"SELECT COUNT(DISTINCT CASE WHEN m_id < 6 THEN m_mixed * 1000 WHEN m_id < 11 THEN (m_id - 5) * 1000000.0 ELSE m_grp END) FROM measures",
	// ORDER BY, LIMIT, OFFSET.
	"SELECT c_name FROM customer ORDER BY c_acctbal DESC",
	"SELECT o_orderkey FROM orders ORDER BY o_status, o_totalprice DESC",
	"SELECT o_orderkey, o_status FROM orders ORDER BY o_status LIMIT 7",
	"SELECT o_orderkey FROM orders ORDER BY o_totalprice LIMIT 5 OFFSET 3",
	"SELECT o_orderkey FROM orders LIMIT 4",
	"SELECT o_orderkey FROM orders LIMIT 0",
	"SELECT o_orderkey FROM orders LIMIT 1000",
	"SELECT o_orderkey FROM orders OFFSET 55",
	"SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey ORDER BY o.o_totalprice LIMIT 3",
	// LIMIT/OFFSET boundary semantics (orders has 60 rows): OFFSET beyond
	// the result set, LIMIT 0 with OFFSET, OFFSET-only (unbounded limit)
	// straddling and past the end, and Sort-under-Limit where the top-K
	// heap must retain offset+limit rows rather than limit.
	"SELECT o_orderkey FROM orders ORDER BY o_totalprice LIMIT 5 OFFSET 100",
	"SELECT o_orderkey FROM orders LIMIT 5 OFFSET 100",
	"SELECT o_orderkey FROM orders ORDER BY o_totalprice LIMIT 0 OFFSET 3",
	"SELECT o_orderkey FROM orders ORDER BY o_totalprice OFFSET 55",
	"SELECT o_orderkey FROM orders ORDER BY o_totalprice OFFSET 70",
	"SELECT o_orderkey FROM orders ORDER BY o_totalprice LIMIT 10 OFFSET 55",
	// Duplicate sort keys crossing the limit/offset boundary: ordered
	// comparison pins top-K tie handling to the reference's stable sort.
	"SELECT o_orderkey, o_status FROM orders ORDER BY o_status LIMIT 10 OFFSET 5",
	// Subqueries.
	"SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders WHERE o_totalprice > 350)",
	"SELECT c_name FROM customer WHERE EXISTS (SELECT o_orderkey FROM orders WHERE o_totalprice > 400)",
	"SELECT c_name FROM customer WHERE c_acctbal > (SELECT AVG(c_acctbal) FROM customer)",
	// A TEXT column against an integer literal: datum.Compare orders every
	// string after every number, so each non-NULL row passes >, <> and the
	// flipped <, and none passes =.
	"SELECT c_custkey FROM customer WHERE c_name > 5",
	"SELECT c_custkey FROM customer WHERE c_name <> 5",
	"SELECT c_custkey FROM customer WHERE 5 < c_name",
	"SELECT c_custkey FROM customer WHERE c_name = 5",
	// Column pairs of every typed kind pairing, and conjunctions mixing
	// typed conjuncts with closure ones.
	"SELECT c_custkey FROM customer WHERE c_name > c_mktsegment AND c_acctbal > c_custkey",
	"SELECT m_id FROM measures WHERE m_i < m_f OR m_f > m_i",
	"SELECT m_id FROM measures WHERE m_i > m_f AND m_id <> m_i AND m_mixed > m_f",
	"SELECT m_id FROM measures WHERE m_i > 0 AND m_grp <> 'b' AND m_f * 2 > m_i AND m_id BETWEEN 2 AND 26 AND m_grp LIKE '%'",
	// Typed aggregation over INTEGER and FLOAT columns: NULLs, the all-NULL
	// group 'n', a NULL group key, an int64 sum that wraps (group 'b'),
	// float sums whose value depends on the order of their additions (also
	// across segments and the tail), -0.0 (row 3), and m_mixed, a FLOAT
	// column holding integers, which has no typed vector.
	"SELECT m_grp, SUM(m_i), AVG(m_i), MIN(m_i), MAX(m_i), COUNT(m_i), COUNT(*) FROM measures GROUP BY m_grp",
	"SELECT m_grp, SUM(m_f), AVG(m_f), MIN(m_f), MAX(m_f), COUNT(m_f) FROM measures GROUP BY m_grp",
	"SELECT SUM(m_i), SUM(m_f), AVG(m_f), SUM(m_mixed), AVG(m_mixed), MIN(m_mixed), MAX(m_mixed) FROM measures",
	"SELECT m_grp, SUM(m_mixed), COUNT(m_mixed) FROM measures GROUP BY m_grp",
	"SELECT SUM(m_f), AVG(m_f), MIN(m_f), MAX(m_f) FROM measures WHERE m_id = 3",
	"SELECT m_grp, SUM(1 - m_f), SUM(m_i * m_id), SUM(m_i - 2.5), SUM(m_f * m_f + 3), AVG(m_id * 2 - m_f) FROM measures GROUP BY m_grp",
	"SELECT SUM(m_grp), COUNT(m_grp), MIN(m_grp), MAX(m_grp) FROM measures",
	"SELECT m_grp, SUM(DISTINCT m_i), COUNT(DISTINCT m_f), AVG(DISTINCT m_mixed) FROM measures GROUP BY m_grp",
	"SELECT m_id % 3, SUM(m_f), SUM(m_i), COUNT(*) FROM measures GROUP BY m_id % 3",
	"SELECT SUM(m_f), SUM(m_i), COUNT(*), MAX(m_i) FROM measures WHERE m_id > 1000",
	"SELECT m_grp, SUM(m_f + m_i) FROM measures WHERE m_f > -10 AND m_i < 600 GROUP BY m_grp HAVING COUNT(*) > 1",
	"SELECT o_status, SUM(o_totalprice * 2 - o_custkey), AVG(o_totalprice) FROM orders WHERE o_orderkey > 3 AND o_custkey < 18 GROUP BY o_status",
	// Constant result: the one row a FROM-less SELECT reads goes through
	// WHERE, aggregation, ORDER BY, LIMIT and OFFSET like any other.
	"SELECT 1 + 2, 'x' || 'y'",
	"SELECT 1 LIMIT 0",
	"SELECT 1 OFFSET 1",
	"SELECT 1 WHERE 1 = 0",
	"SELECT 1 AS x WHERE 1 = 1 ORDER BY x DESC LIMIT 5",
	"SELECT COUNT(*), SUM(2)",
	"SELECT COUNT(*) WHERE 1 = 0",
	"SELECT DISTINCT 1",
	// HAVING without GROUP BY makes the input one group.
	"SELECT 1 HAVING 1 = 1",
	"SELECT 1 FROM customer HAVING 1 = 1",
	"SELECT 1 FROM customer HAVING 1 = 0",
	"SELECT 1 FROM customer WHERE 1 = 0 HAVING 1 = 1",
	// Grouped join with ORDER BY over aggregate.
	"SELECT o_status, COUNT(*) FROM customer c, orders o WHERE c.c_custkey = o.o_custkey GROUP BY o_status ORDER BY COUNT(*) DESC",
	// Each kind of column reference a join's output keeps for its
	// consumers, and nothing else: HAVING and ORDER BY on columns the
	// select list does not read, stars, LEFT JOIN residuals and an IS NULL
	// over the null-extended side, a zero-width join under COUNT(*), a
	// self-join, join keys nothing above reads, and subqueries in the
	// WHERE conditions a join applies.
	"SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey GROUP BY c.c_name, c.c_acctbal HAVING c.c_acctbal > 100",
	"SELECT c.c_name, COUNT(*) FROM customer c, orders o WHERE c.c_custkey = o.o_custkey GROUP BY c.c_name HAVING SUM(o.o_totalprice) > 500",
	"SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey ORDER BY o.o_status, o.o_orderkey",
	"SELECT DISTINCT c.c_mktsegment FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 200",
	"SELECT * FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 300",
	"SELECT c.* FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND o.o_status = 'A'",
	"SELECT o.*, c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey ORDER BY o.o_orderkey",
	"SELECT c.c_name FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_totalprice > c.c_acctbal",
	"SELECT c.c_name FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_totalprice > 400 WHERE o.o_orderkey IS NULL",
	"SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = o.o_custkey",
	"SELECT COUNT(*) FROM customer c, orders o, publication p WHERE c.c_custkey = o.o_custkey AND o.o_custkey = p.pub_key",
	"SELECT a.c_name, b.c_name FROM customer a, customer b WHERE a.c_mktsegment = b.c_mktsegment AND a.c_custkey < b.c_custkey",
	"SELECT c.c_name, p.title FROM customer c, orders o, publication p WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = p.pub_key",
	"SELECT o.o_status, SUM(c.c_acctbal), MAX(p.title) FROM customer c, orders o, publication p WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = p.pub_key GROUP BY o.o_status",
	"SELECT c.c_name, o.o_orderkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND EXISTS (SELECT pub_key FROM publication WHERE pub_key = 3)",
	"SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND c.c_acctbal + o.o_totalprice > (SELECT AVG(o_totalprice) FROM orders)",
	"SELECT c.c_name FROM customer c, orders o, publication p WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = p.pub_key AND c.c_acctbal + o.o_totalprice > p.pub_key * 40",
	"SELECT c.c_name, p.title FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey LEFT JOIN publication p ON p.pub_key = o.o_orderkey WHERE o.o_totalprice > 100 OR o.o_status IS NULL",
}

// TestKeyEquality pins the one key equality of every hashing operator
// over a FLOAT column holding 0.0, -0.0, 1e6 and the integer 1000000
// (which an UPDATE stores as it is): GROUP BY, DISTINCT and
// COUNT(DISTINCT) see two values, as PostgreSQL does, just as a join and
// IN against {0.0, 1e6} match all four rows, in every executor.
func TestKeyEquality(t *testing.T) {
	e := keyEqualityDB(t, DefaultConfig())
	for _, c := range []struct {
		sql  string
		want []string // sorted rows
	}{
		{"SELECT v, COUNT(*) FROM kf GROUP BY v", []string{"0|2", "1e+06|2"}},
		{"SELECT DISTINCT v FROM kf", []string{"0", "1e+06"}},
		{"SELECT COUNT(DISTINCT v), SUM(DISTINCT v) FROM kf", []string{"2|1e+06"}},
		{"SELECT kf.id FROM kf, kp WHERE kf.v = kp.w", []string{"1", "2", "3", "4"}},
		{"SELECT id FROM kf WHERE v IN (SELECT w FROM kp)", []string{"1", "2", "3", "4"}},
	} {
		ref := assertSameResults(t, e, c.sql)
		if got := sortedRowStrings(ref.Rows); !slices.Equal(got, c.want) {
			t.Errorf("%q: rows %v, want %v", c.sql, got, c.want)
		}
	}
}

// keyEqualityDB holds kf, whose FLOAT column v holds, in row order, 0.0,
// -0.0, 1e6 and the integer 1000000, and kp, whose w holds 0.0 and 1e6.
func keyEqualityDB(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	mustExec(t, e, "CREATE TABLE kf (id INTEGER, v FLOAT)")
	mustExec(t, e, "INSERT INTO kf VALUES (1, 0.0), (2, 0.0), (3, 1000000.0), (4, 1000000.0)")
	mustExec(t, e, "UPDATE kf SET v = 0.0 * -1 WHERE id = 2")
	mustExec(t, e, "UPDATE kf SET v = 1000 * 1000 WHERE id = 4")
	mustExec(t, e, "CREATE TABLE kp (w FLOAT)")
	mustExec(t, e, "INSERT INTO kp VALUES (0.0), (1000000.0)")
	return e
}

// aggErrorCorpus holds aggregates every executor must reject: arithmetic
// on a string argument, and division by zero.
var aggErrorCorpus = []string{
	"SELECT SUM(m_grp + 1) FROM measures",
	"SELECT m_grp, SUM(m_f / 0) FROM measures GROUP BY m_grp",
	"SELECT COUNT(*), SUM(m_i * m_grp) FROM measures WHERE m_id > 2",
	// The string operand fails before the NULL one can make the product NULL.
	"SELECT SUM((m_grp + 1) * m_i) FROM measures WHERE m_i IS NULL AND m_grp IS NOT NULL",
}

// TestDifferentialAggregateErrors runs aggErrorCorpus under every planner
// configuration, on 8-row segments and on disk-backed segments: each
// query fails in all four executions.
func TestDifferentialAggregateErrors(t *testing.T) {
	dbs := make(map[string]*Engine)
	for name, cfg := range diffConfigs() {
		dbs[name] = testDB(t, cfg)
	}
	seg := New(DefaultConfig())
	seedTestDB(t, seg, 8)
	dbs["segmented"] = seg
	dbs["disk"] = diskDB(t, DefaultConfig(), 1)
	for name, e := range dbs {
		for _, q := range aggErrorCorpus {
			if _, err := e.Exec(q); err == nil {
				t.Fatalf("%s: query %q succeeded, want an error", name, q)
			}
			assertSameResults(t, e, q)
		}
	}
}

func TestDifferentialCorpus(t *testing.T) {
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := testDB(t, cfg)
			for _, q := range diffCorpus {
				mustExec(t, e, q) // corpus queries are valid: agreeing on failure is not enough
				assertSameResults(t, e, q)
			}
		})
	}
}

// TestJoinStarColumns: a star over a join reads every column it expands
// to, so the join keeps them all. Every executor expands a star over the
// same narrowed plan, so the differential corpus alone would not notice a
// star that read too few.
func TestJoinStarColumns(t *testing.T) {
	for name, cfg := range diffConfigs() {
		e := testDB(t, cfg)
		for _, c := range []struct {
			sql  string
			cols int
		}{
			{"SELECT * FROM customer c, orders o WHERE c.c_custkey = o.o_custkey", 8},
			{"SELECT c.* FROM customer c, orders o WHERE c.c_custkey = o.o_custkey", 4},
			{"SELECT o.*, c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey", 5},
			{"SELECT DISTINCT c.* FROM customer c, orders o WHERE c.c_custkey = o.o_custkey", 4},
			{"SELECT * FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_totalprice > 400", 8},
			{"SELECT p.*, c.* FROM customer c, orders o, publication p WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = p.pub_key", 6},
		} {
			res := mustExec(t, e, c.sql)
			if len(res.Columns) != c.cols || len(res.Rows) == 0 || len(res.Rows[0]) != c.cols {
				t.Fatalf("%s: %q gives columns %q over %d rows, want %d columns", name, c.sql, res.Columns, len(res.Rows), c.cols)
			}
		}
	}
}

// nullDB is testDB plus NULL join keys on both sides: a customer with a
// NULL c_custkey (and NULL c_acctbal) and two orders with NULL o_custkey.
// The base tables' row counts are asserted by other tests, so NULL-keyed
// rows live here rather than in testDB.
func nullDB(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := testDB(t, cfg)
	mustExec(t, e, "INSERT INTO customer VALUES (NULL, 'custNULL', 'AUTO', NULL)")
	mustExec(t, e, "INSERT INTO orders VALUES (61, NULL, 100.0, 'A')")
	mustExec(t, e, "INSERT INTO orders VALUES (62, NULL, 500.0, 'B')")
	return e
}

// nullKeyCorpus pins NULL join-key semantics: NULL keys never match on
// either side, LEFT JOIN null-extends rows whose keys are NULL (they can
// never satisfy the ON condition), and a multi-column key with one NULL
// component behaves like a wholly NULL key.
var nullKeyCorpus = []string{
	"SELECT c.c_name, o.o_orderkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_totalprice > 300",
	"SELECT c.c_name FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey WHERE o.o_orderkey IS NULL",
	"SELECT c.c_name FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey WHERE o.o_totalprice > 200",
	"SELECT c.c_name, o.o_orderkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND c.c_acctbal = o.o_totalprice",
	"SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = o.o_custkey",
	"SELECT c_name FROM customer WHERE c_custkey IS NULL",
	"SELECT o_orderkey FROM orders WHERE o_custkey IS NOT NULL ORDER BY o_orderkey",
}

// inSubqueryCorpus pins `x [NOT] IN (subquery)` — a hash-set probe in the
// batch, row and parallel executors, a linear scan in the reference one —
// over nullDB's NULLs on both sides: a NULL probe gives NULL, and so does
// a miss against a subquery result holding a NULL. Int/float widening
// matches 7 with 7.0 in both directions, and -0.0 with 0. The predicates
// sit in WHERE and ON clauses, which the reference executor evaluates
// itself (every executor shares the bound select-list projection), and
// IS NULL tells a NULL verdict from a false one.
var inSubqueryCorpus = []string{
	"SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders)",
	"SELECT c_name FROM customer WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)",
	"SELECT c_name FROM customer WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_custkey IS NOT NULL AND o_totalprice > 300)",
	"SELECT c_name FROM customer WHERE (c_custkey IN (SELECT o_custkey FROM orders WHERE o_totalprice > 300)) IS NULL",
	"SELECT c_name FROM customer WHERE (c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_totalprice > 300)) IS NULL",
	"SELECT c_name FROM customer WHERE (c_custkey IN (SELECT o_custkey FROM orders WHERE o_totalprice < 0)) IS NULL",
	"SELECT o_orderkey FROM orders WHERE (o_totalprice IN (SELECT c_custkey FROM customer)) IS NULL",
	"SELECT o_orderkey FROM orders WHERE o_totalprice IN (SELECT c_custkey FROM customer)",
	"SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_totalprice FROM orders)",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND (c.c_custkey IN (SELECT o_custkey FROM orders WHERE o_totalprice > 300)) IS NULL",
	"SELECT c_name FROM customer WHERE (0 - c_acctbal) * 0.0 IN (SELECT c_custkey - c_custkey FROM customer)",
	"SELECT c.c_name, o.o_orderkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND o.o_custkey NOT IN (SELECT c_custkey FROM customer WHERE c_acctbal > 100)",
	"SELECT o_status, COUNT(*) FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = 'AUTO') GROUP BY o_status",
}

// outerJoinCorpus covers the ON clause shapes the split distinguishes,
// over the testDB schema: keys in either orientation, pushed conjuncts
// (comparisons, same-table equalities, IN subqueries), preserved-side and
// cross-side residuals, constants, OR, unqualified columns, chained LEFT
// JOINs, an inner join below a LEFT JOIN, and WHERE and GROUP BY above.
var outerJoinCorpus = []string{
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND c.c_acctbal > 100",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey AND o.o_status = 'A' AND o.o_totalprice < 200",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND c.c_acctbal < o.o_totalprice",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey OR o.o_status = 'B'",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_orderkey = o.o_custkey",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON o.o_totalprice > 400",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND 1 = 2",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = 'AUTO')",
	"SELECT c_name, o_orderkey FROM customer LEFT JOIN orders ON c_custkey = o_custkey AND o_totalprice > 300",
	"SELECT c.c_name, o.o_orderkey, p.title FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_totalprice > 200 LEFT JOIN publication p ON p.pub_key = o.o_custkey AND p.title LIKE 'July%'",
	"SELECT c.c_name, o.o_orderkey, p.title FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey LEFT JOIN publication p ON c.c_custkey = p.pub_key AND c.c_acctbal > 50",
	"SELECT c.c_name, o.o_orderkey, p.title FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey LEFT JOIN publication p ON p.pub_key = o.o_orderkey",
	"SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_status = 'C' WHERE c.c_acctbal > 50 ORDER BY c.c_name, o.o_orderkey",
	"SELECT c.c_custkey, COUNT(o.o_orderkey) FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_totalprice > 150 GROUP BY c.c_custkey ORDER BY COUNT(o.o_orderkey) DESC, c.c_custkey LIMIT 7",
}

// TestDifferentialNullJoinKeys runs the three corpora above over nullDB,
// where NULLs sit on both sides of every join and IN.
func TestDifferentialNullJoinKeys(t *testing.T) {
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := nullDB(t, cfg)
			for _, q := range slices.Concat(nullKeyCorpus, inSubqueryCorpus, outerJoinCorpus) {
				mustExec(t, e, q)
				assertSameResults(t, e, q)
			}
		})
	}
}

// TestDifferentialTopKStability pins the bounded top-K heap against the
// reference executor's stable full sort when duplicate sort keys cross the
// limit (and offset+limit) boundary: with k = i%3, every boundary falls
// inside a run of ties, and the ordered comparison demands the exact same
// tie-breaking on all three executors.
func TestDifferentialTopKStability(t *testing.T) {
	e := testDB(t, DefaultConfig())
	mustExec(t, e, "CREATE TABLE dup (k INTEGER, v INTEGER)")
	for i := 0; i < 30; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO dup VALUES (%d, %d)", i%3, i))
	}
	queries := []string{
		"SELECT v FROM dup ORDER BY k LIMIT 7",
		"SELECT v FROM dup ORDER BY k LIMIT 7 OFFSET 4",
		"SELECT v FROM dup ORDER BY k DESC LIMIT 12 OFFSET 2",
		"SELECT v FROM dup ORDER BY k LIMIT 10 OFFSET 10",
		"SELECT k, v FROM dup ORDER BY k LIMIT 29",
		"SELECT k, v FROM dup ORDER BY k LIMIT 5 OFFSET 25",
	}
	for _, q := range queries {
		mustExec(t, e, q)
		assertSameResults(t, e, q)
	}
}

// TestDifferentialBatchBoundary exercises the batch executor across batch
// edges under every planner configuration: the test tables elsewhere hold
// at most 60 rows, so filters, joins, sorts, limits, aggregates and
// Unique that straddle the 1024-row batch size would otherwise never run
// against a multi-batch input or fill a multi-batch output.
func TestDifferentialBatchBoundary(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*) FROM big",
		"SELECT id FROM big WHERE val > 500",
		"SELECT id FROM big LIMIT 1024",
		"SELECT id FROM big LIMIT 1025",
		"SELECT id FROM big LIMIT 1000 OFFSET 1024",
		"SELECT id FROM big OFFSET 2999",
		"SELECT id FROM big ORDER BY val, id LIMIT 1030",
		"SELECT id FROM big ORDER BY val DESC, id LIMIT 5 OFFSET 1024",
		"SELECT grp, COUNT(*), SUM(val) FROM big GROUP BY grp",
		"SELECT b.id, c.c_name FROM big b, customer c WHERE b.grp = c.c_custkey AND b.val < 100",
		"SELECT DISTINCT grp FROM big",
		// 17,144 rows: output batches fill inside one key group (a Merge
		// Join under merge-only, a Nested Loop under nl-only), with and
		// without a residual.
		"SELECT a.id, b.id FROM big a, big b WHERE a.grp = b.grp AND a.id < 40",
		"SELECT a.id, b.id FROM big a, big b WHERE a.grp = b.grp AND a.id < 40 AND b.val > a.val",
		// Unique emitting 1,500 rows, and 3,000 groups over three output
		// batches.
		"SELECT DISTINCT id % 1500 FROM big",
		"SELECT grp, val, COUNT(*) FROM big GROUP BY grp, val",
		// Duplicates span morsels, so the parallel leg merges DISTINCT
		// states across workers.
		"SELECT COUNT(DISTINCT grp), SUM(DISTINCT val) FROM big",
	}
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := testDB(t, cfg)
			bigTable(t, e, 0)
			for _, q := range queries {
				mustExec(t, e, q)
				assertSameResults(t, e, q)
			}
		})
	}
}

// TestDifferentialIndexScanResidual runs an index scan's residual filter
// over every predicate shape. Index-scan candidates are rows in no
// segment, so each shape decides them in its row loop, while the no-index
// configuration runs the same filters as typed loops over segments and the
// tail. ix has 2,000 rows in 256-row segments (a 208-row tail); NULLs sit
// in n on every third row and in f on every eleventh, and every query
// plans an Index Scan on k wherever index scans are enabled.
func TestDifferentialIndexScanResidual(t *testing.T) {
	queries := []string{
		"SELECT k, i FROM ix WHERE k BETWEEN 100 AND 300 AND i > 40",
		"SELECT k, f FROM ix WHERE k BETWEEN 100 AND 300 AND f <= 20.5",
		"SELECT k, i FROM ix WHERE k BETWEEN 100 AND 300 AND i > 20.5",
		"SELECT k, s FROM ix WHERE k BETWEEN 100 AND 300 AND s >= 's3'",
		"SELECT k, i, f FROM ix WHERE k BETWEEN 100 AND 300 AND i < f",
		"SELECT k, i, n FROM ix WHERE k BETWEEN 100 AND 300 AND i <> n",
		"SELECT k FROM ix WHERE k BETWEEN 100 AND 300 AND n IS NULL",
		"SELECT k, n FROM ix WHERE k BETWEEN 100 AND 300 AND n IS NOT NULL",
		"SELECT k, i FROM ix WHERE k BETWEEN 100 AND 300 AND i BETWEEN 10 AND 50",
		"SELECT k, i FROM ix WHERE k BETWEEN 100 AND 300 AND i IN (3, NULL, 17, 41)",
		"SELECT k, s FROM ix WHERE k BETWEEN 100 AND 300 AND s IN ('s1', NULL, 's5')",
		"SELECT k, i FROM ix WHERE k BETWEEN 100 AND 300 AND i NOT IN (3, 17, 41)",
		"SELECT k, f FROM ix WHERE k BETWEEN 1000 AND 1200 AND f NOT BETWEEN 0 AND 20",
		"SELECT k, i FROM ix WHERE k BETWEEN 500 AND 650 AND i >= 30 AND s <> 's2' AND n IS NOT NULL",
		"SELECT k, s FROM ix WHERE k = 150 AND s = 's3'",
		"SELECT k, s FROM ix WHERE k = 1950 AND s = 's4'", // a tail row
	}
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := New(cfg)
			mustExec(t, e, "CREATE TABLE ix (k INTEGER, i INTEGER, f FLOAT, s VARCHAR(4), n INTEGER)")
			mustExec(t, e, "CREATE INDEX ix_k ON ix (k)")
			tbl, err := e.Cat.Table("ix")
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.SetSegmentCapacity(256); err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for k := 0; k < 2000; k++ {
				if sb.Len() == 0 {
					sb.WriteString("INSERT INTO ix VALUES ")
				} else {
					sb.WriteString(", ")
				}
				f, n := fmt.Sprintf("%d.5", k%50-10), fmt.Sprint(k%90)
				if k%11 == 0 {
					f = "NULL"
				}
				if k%3 == 0 {
					n = "NULL"
				}
				fmt.Fprintf(&sb, "(%d, %d, %s, 's%d', %s)", k, (k*37)%100, f, k%7, n)
				if (k+1)%250 == 0 {
					mustExec(t, e, sb.String())
					sb.Reset()
				}
			}
			for _, q := range queries {
				if cfg.EnableIndexScan {
					pl, err := e.PlanSQL(q)
					if err != nil {
						t.Fatal(err)
					}
					indexed := false
					pl.Walk(func(n *Node) { indexed = indexed || n.Op == OpIndexScan })
					if !indexed {
						t.Errorf("%q plans no Index Scan:\n%s", q, ExplainText(pl))
					}
				}
				if len(mustExec(t, e, q).Rows) == 0 {
					t.Errorf("%q selects no row", q)
				}
				assertSameResults(t, e, q)
			}
		})
	}
}

// TestDistinctAggregateFoldOrder pins that a DISTINCT aggregate folds each
// value at its first arrival, as the reference executor does: over 1e16,
// -1e16, 1, 1 that sum is 1, while folding the distinct values in sorted
// order would cancel the 1 against 1e16 and give 0. Float SUM/AVG are not
// mergeable, so the forced-parallel leg runs them serially over a gather
// and must agree too.
func TestDistinctAggregateFoldOrder(t *testing.T) {
	e := New(DefaultConfig())
	mustExec(t, e, "CREATE TABLE fl (f FLOAT)")
	for _, v := range []string{"10000000000000000.0", "-10000000000000000.0", "1.0", "1.0"} {
		mustExec(t, e, "INSERT INTO fl VALUES ("+v+")")
	}
	const q = "SELECT SUM(DISTINCT f), AVG(DISTINCT f) FROM fl"
	assertSameResults(t, e, q)
	for _, cfg := range []Config{DefaultConfig(), parTestConfig()} {
		se := e.Session()
		se.Cfg = cfg
		rows := mustExec(t, se, q).Rows
		if got := rowStrings(rows); len(got) != 1 || got[0] != "1|0.3333333333333333" {
			t.Fatalf("%s = %v, want [1|0.3333333333333333]", q, got)
		}
	}
}

// TestAggregateLiteralResults pins aggregate values computed here, not by
// the reference executor, which shares aggState with the batch executor:
// a lone -0.0 sums to -0, two int64 maxima wrap, a sum of integers stays
// an integer (so dividing it by 7 truncates) until a float widens it, and
// a float sum adds its values in row order, the 1e16 among them rounding
// every later addition. Every execution must return them, on 8-row
// segments and on the tail.
func TestAggregateLiteralResults(t *testing.T) {
	seg := New(DefaultConfig())
	seedTestDB(t, seg, 8)
	var fold float64
	n := 0
	for _, r := range mustExec(t, seg, "SELECT m_f FROM measures ORDER BY m_id").Rows {
		if !r[0].IsNull() {
			if n == 0 {
				fold = r[0].Float()
			} else {
				fold += r[0].Float()
			}
			n++
		}
	}
	cases := map[string]string{
		"SELECT SUM(m_f), COUNT(m_f) FROM measures":                              fmt.Sprintf("%s|%d", strconv.FormatFloat(fold, 'g', -1, 64), n),
		"SELECT SUM(m_f), MIN(m_f), MAX(m_f) FROM measures WHERE m_id = 3":       "-0|-0|-0",
		"SELECT SUM(m_i), MAX(m_i) FROM measures WHERE m_grp = 'b'":              "781|9223372036854775807",
		"SELECT SUM(m_mixed) / 7, SUM(m_mixed * 2) FROM measures WHERE m_id < 6": "2142|30000",
		"SELECT SUM(m_mixed) / 7 FROM measures WHERE m_id < 8":                   "2144.785714285714",
		"SELECT SUM(m_grp), COUNT(m_grp) FROM measures":                          "NULL|22",
	}
	for name, e := range map[string]*Engine{"tail": testDB(t, DefaultConfig()), "segmented": seg} {
		for q, want := range cases {
			for _, cfg := range []Config{DefaultConfig(), parTestConfig()} {
				for _, ref := range []bool{false, true} {
					se := e.Session()
					se.Cfg = cfg
					se.Cfg.ReferenceExec = ref
					if got := rowStrings(mustExec(t, se, q).Rows); len(got) != 1 || got[0] != want {
						t.Errorf("%s, %d workers, reference %v: %s = %v, want [%s]", name, cfg.MaxQueryParallelism, ref, q, got, want)
					}
				}
			}
		}
	}
}

// --- Randomized query generation -------------------------------------------

type queryGen struct{ rng *rand.Rand }

func (g *queryGen) pick(opts []string) string { return opts[g.rng.Intn(len(opts))] }

// genQuery produces one random but always-valid query over the testDB
// catalog (customer/orders/publication).
func (g *queryGen) genQuery() string {
	var sb strings.Builder
	tables := g.rng.Intn(3) + 1 // 1..3

	var from, where []string
	switch tables {
	case 1:
		if g.rng.Intn(2) == 0 {
			from = []string{"customer c"}
		} else {
			from = []string{"orders o"}
		}
	case 2:
		if g.rng.Intn(3) == 0 {
			// LEFT JOIN with an ON condition, sometimes narrowed by an
			// extra ON conjunct; WHERE filters over the nullable side are
			// drawn from the shared filter pool below.
			on := "c.c_custkey = o.o_custkey"
			if g.rng.Intn(2) == 0 {
				on += fmt.Sprintf(" AND o.o_totalprice > %d", g.rng.Intn(400))
			}
			from = []string{"customer c LEFT JOIN orders o ON " + on}
		} else {
			from = []string{"customer c", "orders o"}
			where = append(where, "c.c_custkey = o.o_custkey")
		}
	case 3:
		from = []string{"customer c", "orders o", "publication p"}
		where = append(where, "c.c_custkey = o.o_custkey")
		if g.rng.Intn(2) == 0 {
			where = append(where, "p.pub_key = o.o_custkey % 10")
		} else {
			where = append(where, "p.pub_key < c.c_custkey")
		}
	}
	hasCustomer := tables != 1 || from[0] == "customer c"
	hasOrders := tables >= 2 || from[0] == "orders o"

	var filters []string
	if hasCustomer {
		filters = append(filters,
			fmt.Sprintf("c.c_acctbal > %d", g.rng.Intn(200)),
			"c.c_mktsegment = 'BUILDING'",
			fmt.Sprintf("c.c_custkey < %d", g.rng.Intn(25)),
			"c.c_name LIKE 'cust1%'",
			fmt.Sprintf("c.c_custkey BETWEEN %d AND %d", g.rng.Intn(5), 5+g.rng.Intn(15)),
		)
	}
	if hasOrders {
		filters = append(filters,
			fmt.Sprintf("o.o_totalprice BETWEEN %d AND %d", g.rng.Intn(100), 100+g.rng.Intn(300)),
			"o.o_status IN ('A', 'B')",
			"o.o_custkey IS NOT NULL",
			"o.o_orderkey IS NULL", // anti-join shape under LEFT JOIN
		)
	}
	for n := g.rng.Intn(3); n > 0 && len(filters) > 0; n-- {
		where = append(where, filters[g.rng.Intn(len(filters))])
	}

	grouped := g.rng.Intn(3) == 0
	var items, orderKeys []string
	if grouped {
		var keys []string
		if hasOrders && g.rng.Intn(2) == 0 {
			keys = append(keys, "o.o_status")
		}
		if hasCustomer && (len(keys) == 0 || g.rng.Intn(2) == 0) {
			keys = append(keys, "c.c_mktsegment")
		}
		if len(keys) == 0 {
			keys = append(keys, "o.o_status")
		}
		items = append(items, keys...)
		agg := "COUNT(*)"
		if hasOrders && g.rng.Intn(2) == 0 {
			agg = g.pick([]string{"SUM(o.o_totalprice)", "AVG(o.o_totalprice)", "MIN(o.o_totalprice)", "MAX(o.o_totalprice)"})
		}
		items = append(items, agg)
		sb.WriteString("SELECT ")
		sb.WriteString(strings.Join(items, ", "))
		sb.WriteString(" FROM ")
		sb.WriteString(strings.Join(from, ", "))
		if len(where) > 0 {
			sb.WriteString(" WHERE ")
			sb.WriteString(strings.Join(where, " AND "))
		}
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(keys, ", "))
		if g.rng.Intn(3) == 0 {
			sb.WriteString(fmt.Sprintf(" HAVING COUNT(*) > %d", g.rng.Intn(5)))
		}
		orderKeys = items
	} else {
		var pool []string
		if hasCustomer {
			pool = append(pool, "c.c_custkey", "c.c_name", "c.c_mktsegment", "c.c_acctbal * 2")
		}
		if hasOrders {
			pool = append(pool, "o.o_orderkey", "o.o_status", "o.o_totalprice")
		}
		if tables == 3 {
			pool = append(pool, "p.title")
		}
		n := 1 + g.rng.Intn(3)
		for i := 0; i < n; i++ {
			items = append(items, pool[g.rng.Intn(len(pool))])
		}
		sb.WriteString("SELECT ")
		if g.rng.Intn(5) == 0 {
			sb.WriteString("DISTINCT ")
		}
		sb.WriteString(strings.Join(items, ", "))
		sb.WriteString(" FROM ")
		sb.WriteString(strings.Join(from, ", "))
		if len(where) > 0 {
			sb.WriteString(" WHERE ")
			sb.WriteString(strings.Join(where, " AND "))
		}
		orderKeys = items
	}

	if g.rng.Intn(2) == 0 && len(orderKeys) > 0 {
		sb.WriteString(" ORDER BY ")
		sb.WriteString(orderKeys[g.rng.Intn(len(orderKeys))])
		if g.rng.Intn(2) == 0 {
			sb.WriteString(" DESC")
		}
	}
	switch g.rng.Intn(3) {
	case 0:
		sb.WriteString(fmt.Sprintf(" LIMIT %d", g.pickLimit()))
	case 1:
		sb.WriteString(fmt.Sprintf(" LIMIT %d OFFSET %d", g.pickLimit(), g.rng.Intn(20)))
	}
	return sb.String()
}

func (g *queryGen) pickLimit() int {
	return []int{0, 1, 3, 7, 10, 50, 1000}[g.rng.Intn(7)]
}

func TestDifferentialRandomized(t *testing.T) {
	const queriesPerConfig = 120
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := testDB(t, cfg)
			g := &queryGen{rng: rand.New(rand.NewSource(0x1a57e12))}
			for i := 0; i < queriesPerConfig; i++ {
				q := g.genQuery()
				assertSameResults(t, e, q)
			}
		})
	}
}

// TestDifferentialRandomizedNullKeys reruns the generator over nullDB, so
// every generated join/filter/limit shape also executes against NULL join
// keys on both sides (the generator's IS NULL / IS NOT NULL / LEFT JOIN
// shapes become non-vacuous there).
func TestDifferentialRandomizedNullKeys(t *testing.T) {
	const queriesPerConfig = 80
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := nullDB(t, cfg)
			g := &queryGen{rng: rand.New(rand.NewSource(0x9e3779b9))}
			for i := 0; i < queriesPerConfig; i++ {
				q := g.genQuery()
				assertSameResults(t, e, q)
			}
		})
	}
}
