package engine

// Tests for the native engine↔plan bridge: ToPlanNode must be structurally
// indistinguishable from round-tripping the plan through the PostgreSQL
// JSON serialization (the path the bridge replaces), the native
// serialization must invert exactly, and the opt-in instrumentation must
// report actuals consistent with what execution really produced.

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"testing"

	"lantern/internal/plan"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// canonicalIgnoringSource renders a tree's canonical bytes with the Source
// field neutralized, so trees bridged directly (Source "native") compare
// against trees parsed from pg JSON (Source "pg").
func canonicalIgnoringSource(t *plan.Node) string {
	clone := *t
	var neutralize func(n *plan.Node) *plan.Node
	neutralize = func(n *plan.Node) *plan.Node {
		c := *n
		c.Source = "-"
		c.Children = nil
		for _, ch := range n.Children {
			c.Children = append(c.Children, neutralize(ch))
		}
		return &c
	}
	var buf bytes.Buffer
	neutralize(&clone).WriteCanonical(&buf)
	return buf.String()
}

// TestBridgeDifferential pins the bridge against the existing round-trip:
// for the whole differential corpus under every planner configuration,
// ToPlanNode (without actuals) must be structurally equal — same shape,
// operator names, attributes, row estimates and costs — to parsing the
// engine's own EXPLAIN (FORMAT JSON) output.
func TestBridgeDifferential(t *testing.T) {
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := testDB(t, cfg)
			for _, q := range diffCorpus {
				pl, err := e.PlanSQL(q)
				if err != nil {
					t.Fatalf("plan %q: %v", q, err)
				}
				direct := ToPlanNode(pl)
				doc, err := ExplainJSON(pl)
				if err != nil {
					t.Fatalf("explain %q: %v", q, err)
				}
				parsed, err := plan.ParsePostgresJSON(doc)
				if err != nil {
					t.Fatalf("parse %q: %v", q, err)
				}
				if got, want := canonicalIgnoringSource(direct), canonicalIgnoringSource(parsed); got != want {
					t.Errorf("query %q: bridge and pg round-trip disagree\nbridge:     %s\nround-trip: %s", q, got, want)
					continue
				}
				var cmp func(a, b *plan.Node) error
				cmp = func(a, b *plan.Node) error {
					if a.Rows != b.Rows || a.Cost != b.Cost {
						return fmt.Errorf("node %q: bridge rows=%g cost=%g, round-trip rows=%g cost=%g",
							a.Name, a.Rows, a.Cost, b.Rows, b.Cost)
					}
					for i := range a.Children {
						if err := cmp(a.Children[i], b.Children[i]); err != nil {
							return err
						}
					}
					return nil
				}
				if err := cmp(direct, parsed); err != nil {
					t.Errorf("query %q: %v", q, err)
				}
			}
		})
	}
}

// TestBridgeSource: bridged trees carry the native dialect on every node.
func TestBridgeSource(t *testing.T) {
	e := testDB(t, DefaultConfig())
	pl, err := e.PlanSQL("SELECT c.c_name, o.o_totalprice FROM customer c, orders o WHERE c.c_custkey = o.o_custkey")
	if err != nil {
		t.Fatal(err)
	}
	ToPlanNode(pl).Walk(func(n *plan.Node) {
		if n.Source != "native" {
			t.Errorf("node %q has Source %q, want native", n.Name, n.Source)
		}
	})
}

// TestNativeRoundTrip: ExplainNative must invert exactly through
// ParseNativeJSON — same canonical bytes, estimates, and actuals,
// with and without instrumentation.
func TestNativeRoundTrip(t *testing.T) {
	e := testDB(t, DefaultConfig())
	for _, q := range diffCorpus {
		pl, err := e.PlanSQL(q)
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		_, st, err := e.ExecPlanInstrumented(pl)
		if err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
		for name, stats := range map[string]ExecStats{"plain": nil, "actuals": st} {
			doc, err := ExplainNative(pl, stats)
			if err != nil {
				t.Fatalf("%s %q: %v", name, q, err)
			}
			parsed, err := plan.ParseNativeJSON(doc)
			if err != nil {
				t.Fatalf("%s %q: parse: %v", name, q, err)
			}
			direct := ToPlanNodeStats(pl, stats)
			var a, b bytes.Buffer
			direct.WriteCanonical(&a)
			parsed.WriteCanonical(&b)
			if a.String() != b.String() {
				t.Errorf("%s %q: native round-trip changed the canonical tree", name, q)
			}
		}
	}
}

// TestExecPlanInstrumented checks the collected actuals against ground
// truth: the root's actual rows equal the result cardinality, every
// operator reports one loop, and the instrumented result,
// projected, is identical to the uninstrumented batch Exec's.
func TestExecPlanInstrumented(t *testing.T) {
	e := testDB(t, DefaultConfig())
	for _, q := range diffCorpus {
		sel, err := sqlparser.ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		pl, err := e.Plan(sel)
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		plain, err := e.Exec(q)
		if err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
		rows, st, err := e.ExecPlanInstrumented(pl)
		if err != nil {
			t.Fatalf("instrumented exec %q: %v", q, err)
		}
		projected, err := e.project(sel, pl, rows)
		if err != nil {
			t.Fatalf("project %q: %v", q, err)
		}
		if got, want := rowStrings(projected.Rows), rowStrings(plain.Rows); !slices.Equal(got, want) {
			t.Errorf("query %q: instrumented run returned\n%v\nuninstrumented Exec\n%v", q, got, want)
		}
		root := st[pl]
		if root == nil {
			t.Fatalf("query %q: no stats for the root operator", q)
		}
		if root.Rows != int64(len(rows)) {
			t.Errorf("query %q: root actual rows = %d, result has %d", q, root.Rows, len(rows))
		}
		pl.Walk(func(n *Node) {
			os := st[n]
			if os == nil {
				t.Errorf("query %q: operator %s has no stats entry", q, n.Op.Name())
				return
			}
		})
		ToPlanNodeStats(pl, st).Walk(func(n *plan.Node) {
			if loops := n.Attr(plan.AttrLoops); loops != "1" {
				t.Errorf("query %q: operator %s reports %q loops, want 1", q, n.Name, loops)
			}
		})
	}
}

// TestQueryStreamMatchesQueryInstrumented: the unary and the streaming
// instrumented APIs run the same batch pipeline, so over the differential
// corpus a drained stream returns the same rows, in the same order, with
// the same canonical actuals-annotated plan as QueryInstrumented — for
// serial plans and, with the DOP policy forced up, for parallel ones.
func TestQueryStreamMatchesQueryInstrumented(t *testing.T) {
	serial := testDB(t, DefaultConfig())
	par := serial.Session()
	par.Cfg.MaxQueryParallelism = 4
	par.Cfg.ParallelRowsPerWorker = 1
	canonical := func(pl *Node, st ExecStats) string {
		var b bytes.Buffer
		ToPlanNodeStats(pl, st).WriteCanonical(&b)
		return b.String()
	}
	parallelPlans := 0
	for name, e := range map[string]*Engine{"serial": serial, "parallel": par} {
		for _, q := range diffCorpus {
			qr, err := e.QueryInstrumented(q)
			if err != nil {
				t.Fatalf("%s %q: %v", name, q, err)
			}
			s, err := e.QueryStreamInstrumented(q)
			if err != nil {
				t.Fatalf("%s %q: stream: %v", name, q, err)
			}
			var rows []storage.Row
			for {
				r, ok, err := s.Next()
				if err != nil {
					t.Fatalf("%s %q: stream: %v", name, q, err)
				}
				if !ok {
					break
				}
				rows = append(rows, r)
			}
			s.Close()
			if got, want := rowStrings(rows), rowStrings(qr.Result.Rows); !slices.Equal(got, want) {
				t.Errorf("%s %q: stream rows\n%v\nQueryInstrumented rows\n%v", name, q, got, want)
			}
			pl, st := s.Finish()
			if got, want := canonical(pl, st), canonical(qr.Plan, qr.Stats); got != want {
				t.Errorf("%s %q: stream actuals\n%s\nQueryInstrumented actuals\n%s", name, q, got, want)
			}
			if e.activeParShape(pl) != nil {
				parallelPlans++
			}
		}
	}
	if parallelPlans == 0 {
		t.Fatal("no corpus query planned parallel under the forced DOP policy")
	}
}

// TestToPlanNodeStatsAttrs: actual-stats attrs land on the bridged tree
// under the standardized keys, and the estimate stays alongside them.
func TestToPlanNodeStatsAttrs(t *testing.T) {
	e := testDB(t, DefaultConfig())
	pl, err := e.PlanSQL("SELECT c_name FROM customer WHERE c_acctbal > 50")
	if err != nil {
		t.Fatal(err)
	}
	rows, st, err := e.ExecPlanInstrumented(pl)
	if err != nil {
		t.Fatal(err)
	}
	tree := ToPlanNodeStats(pl, st)
	got := tree.Attr(plan.AttrActualRows)
	if got != strconv.Itoa(len(rows)) {
		t.Errorf("root %s = %q, want %d", plan.AttrActualRows, got, len(rows))
	}
	if tree.Attr(plan.AttrLoops) != "1" {
		t.Errorf("root %s = %q, want 1", plan.AttrLoops, tree.Attr(plan.AttrLoops))
	}
	if tree.Attr(plan.AttrTimeMs) == "" {
		t.Errorf("root %s missing", plan.AttrTimeMs)
	}
	if tree.Rows == 0 {
		t.Error("estimated rows lost in bridging")
	}
}

// TestExplainAnalyze: the statement-level surface. ANALYZE executes the
// query and annotates the plan; the native document parses back with
// actuals, the JSON document carries PostgreSQL's Actual fields through
// the pg frontend, and the unsupported formats report a clear error.
func TestExplainAnalyze(t *testing.T) {
	e := testDB(t, DefaultConfig())
	q := "SELECT c_name FROM customer WHERE c_acctbal > 50"

	want, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := strconv.Itoa(len(want.Rows))

	r, err := e.Exec("EXPLAIN (ANALYZE, FORMAT NATIVE) " + q)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := plan.ParseNativeJSON(r.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Attr(plan.AttrActualRows); got != wantRows {
		t.Errorf("native ANALYZE root actual rows = %q, want %s", got, wantRows)
	}

	r, err = e.Exec("EXPLAIN (ANALYZE, FORMAT JSON) " + q)
	if err != nil {
		t.Fatal(err)
	}
	pgTree, err := plan.ParsePostgresJSON(r.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := pgTree.Attr(plan.AttrActualRows); got != wantRows {
		t.Errorf("pg ANALYZE root actual rows = %q, want %s", got, wantRows)
	}
	if pgTree.Attr(plan.AttrTimeMs) == "" {
		t.Error("pg ANALYZE lost the actual time attr")
	}

	r, err = e.Exec("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatal(err)
	}
	if want := "actual time="; !bytes.Contains([]byte(r.Plan), []byte(want)) {
		t.Errorf("text ANALYZE output lacks %q:\n%s", want, r.Plan)
	}

	if _, err := e.Exec("EXPLAIN (ANALYZE, FORMAT XML) " + q); err == nil {
		t.Error("EXPLAIN (ANALYZE, FORMAT XML) should be rejected")
	}
}

// TestQueryInstrumented: the one-call serving API returns the same
// projected result as plain execution, plus a fully-annotated plan.
func TestQueryInstrumented(t *testing.T) {
	e := testDB(t, DefaultConfig())
	q := "SELECT c.c_name, o.o_totalprice FROM customer c, orders o WHERE c.c_custkey = o.o_custkey ORDER BY o.o_totalprice LIMIT 5"
	want, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := e.QueryInstrumented(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Result.Rows) != len(want.Rows) {
		t.Fatalf("QueryInstrumented returned %d rows, Exec %d", len(qr.Result.Rows), len(want.Rows))
	}
	if len(qr.Result.Columns) != len(want.Columns) {
		t.Fatalf("column mismatch: %v vs %v", qr.Result.Columns, want.Columns)
	}
	if qr.Stats[qr.Plan] == nil {
		t.Fatal("no stats for the root operator")
	}
	if qr.Elapsed <= 0 {
		t.Error("elapsed time not recorded")
	}
}
