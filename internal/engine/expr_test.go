package engine

import (
	"strings"
	"testing"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// evalOn evaluates an expression against a one-row, two-column context.
func evalOn(t *testing.T, exprSQL string, a, b datum.D) (datum.D, error) {
	t.Helper()
	sel, err := sqlparser.ParseSelect("SELECT " + exprSQL)
	if err != nil {
		t.Fatalf("parse %q: %v", exprSQL, err)
	}
	ctx := &evalCtx{
		schema: []colRef{{Qual: "t", Name: "a"}, {Qual: "t", Name: "b"}},
		row:    storage.Row{a, b},
	}
	return eval(ctx, sel.Items[0].Expr)
}

func mustEval(t *testing.T, exprSQL string, a, b datum.D) datum.D {
	t.Helper()
	v, err := evalOn(t, exprSQL, a, b)
	if err != nil {
		t.Fatalf("eval %q: %v", exprSQL, err)
	}
	return v
}

func TestThreeValuedLogic(t *testing.T) {
	null, tru, fls := datum.Null, datum.NewBool(true), datum.NewBool(false)
	cases := []struct {
		expr string
		a, b datum.D
		want datum.D
	}{
		// AND truth table with NULL.
		{"a AND b", tru, tru, tru},
		{"a AND b", tru, fls, fls},
		{"a AND b", fls, null, fls},  // false AND unknown = false
		{"a AND b", tru, null, null}, // true AND unknown = unknown
		{"a AND b", null, null, null},
		// OR truth table with NULL.
		{"a OR b", fls, fls, fls},
		{"a OR b", tru, null, tru}, // true OR unknown = true
		{"a OR b", fls, null, null},
		// NOT.
		{"NOT a", tru, null, fls},
		{"NOT a", null, null, null},
		// Comparisons with NULL are unknown.
		{"a = b", datum.NewInt(1), null, null},
		{"a < b", null, datum.NewInt(1), null},
	}
	for _, c := range cases {
		got := mustEval(t, c.expr, c.a, c.b)
		if got.Kind() != c.want.Kind() || (got.Kind() == datum.KBool && got.Bool() != c.want.Bool()) {
			t.Errorf("%s [a=%v b=%v] = %v, want %v", c.expr, c.a, c.b, got, c.want)
		}
	}
}

func TestNullPropagationInOperators(t *testing.T) {
	null := datum.Null
	one := datum.NewInt(1)
	for _, expr := range []string{
		"a + b", "a - b", "a * b", "a / b",
		"a LIKE 'x%'", "a BETWEEN 1 AND 2", "a || b",
	} {
		got := mustEval(t, expr, null, one)
		if !got.IsNull() {
			t.Errorf("%s with NULL = %v, want NULL", expr, got)
		}
	}
}

func TestInWithNullSemantics(t *testing.T) {
	// 1 IN (2, NULL) is unknown; 1 IN (1, NULL) is true;
	// 1 NOT IN (2, NULL) is unknown.
	got := mustEval(t, "a IN (2, NULL)", datum.NewInt(1), datum.Null)
	if !got.IsNull() {
		t.Errorf("1 IN (2, NULL) = %v, want NULL", got)
	}
	got = mustEval(t, "a IN (1, NULL)", datum.NewInt(1), datum.Null)
	if got.IsNull() || !got.Bool() {
		t.Errorf("1 IN (1, NULL) = %v, want true", got)
	}
	got = mustEval(t, "a NOT IN (2, NULL)", datum.NewInt(1), datum.Null)
	if !got.IsNull() {
		t.Errorf("1 NOT IN (2, NULL) = %v, want NULL", got)
	}
}

func TestScalarFunctions(t *testing.T) {
	cases := []struct {
		expr string
		a    datum.D
		want string
	}{
		{"LOWER(a)", datum.NewString("ABC"), "abc"},
		{"UPPER(a)", datum.NewString("abc"), "ABC"},
		{"REPLACE(a, 'b', 'x')", datum.NewString("abc"), "axc"},
		{"SUBSTRING(a, 2, 2)", datum.NewString("abcd"), "bc"},
		{"SUBSTR(a, 3)", datum.NewString("abcd"), "cd"},
	}
	for _, c := range cases {
		got := mustEval(t, c.expr, c.a, datum.Null)
		if got.Str() != c.want {
			t.Errorf("%s = %v, want %q", c.expr, got, c.want)
		}
	}
	if got := mustEval(t, "LENGTH(a)", datum.NewString("abc"), datum.Null); got.Int() != 3 {
		t.Errorf("LENGTH = %v", got)
	}
	if got := mustEval(t, "ABS(a)", datum.NewInt(-5), datum.Null); got.Int() != 5 {
		t.Errorf("ABS = %v", got)
	}
	if got := mustEval(t, "ABS(a)", datum.NewFloat(-2.5), datum.Null); got.Float() != 2.5 {
		t.Errorf("ABS float = %v", got)
	}
	if got := mustEval(t, "COALESCE(a, b)", datum.Null, datum.NewInt(7)); got.Int() != 7 {
		t.Errorf("COALESCE = %v", got)
	}
}

func TestScalarFunctionErrors(t *testing.T) {
	for _, expr := range []string{
		"LOWER(a, b)",
		"NOSUCHFUNC(a)",
		"SUM(a)", // aggregate outside aggregation
	} {
		if _, err := evalOn(t, expr, datum.NewString("x"), datum.NewString("y")); err == nil {
			t.Errorf("%s: expected error", expr)
		}
	}
}

func TestSubstringBounds(t *testing.T) {
	cases := []struct {
		expr, want string
	}{
		{"SUBSTRING(a, 0, 2)", "ab"}, // clamped start
		{"SUBSTRING(a, 10, 2)", ""},  // past end
		{"SUBSTRING(a, 2, 100)", "bcd"},
	}
	for _, c := range cases {
		got := mustEval(t, c.expr, datum.NewString("abcd"), datum.Null)
		if got.Str() != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got.Str(), c.want)
		}
	}
}

func TestCaseEvaluation(t *testing.T) {
	got := mustEval(t, "CASE WHEN a > 5 THEN 'big' WHEN a > 2 THEN 'mid' ELSE 'small' END",
		datum.NewInt(3), datum.Null)
	if got.Str() != "mid" {
		t.Errorf("case = %v", got)
	}
	// No ELSE, no match -> NULL.
	got = mustEval(t, "CASE WHEN a > 5 THEN 'big' END", datum.NewInt(1), datum.Null)
	if !got.IsNull() {
		t.Errorf("case without match = %v, want NULL", got)
	}
}

func TestConcatOperator(t *testing.T) {
	got := mustEval(t, "a || b", datum.NewString("ab"), datum.NewString("cd"))
	if got.Str() != "abcd" {
		t.Errorf("concat = %v", got)
	}
	got = mustEval(t, "a || b", datum.NewString("n="), datum.NewInt(5))
	if got.Str() != "n=5" {
		t.Errorf("mixed concat = %v", got)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	ctx := &evalCtx{
		schema: []colRef{{Qual: "x", Name: "id"}, {Qual: "y", Name: "id"}},
		row:    storage.Row{datum.NewInt(1), datum.NewInt(2)},
	}
	sel, _ := sqlparser.ParseSelect("SELECT id")
	if _, err := eval(ctx, sel.Items[0].Expr); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("expected ambiguity error, got %v", err)
	}
	// Qualified access disambiguates.
	sel, _ = sqlparser.ParseSelect("SELECT y.id")
	v, err := eval(ctx, sel.Items[0].Expr)
	if err != nil || v.Int() != 2 {
		t.Errorf("qualified = %v, %v", v, err)
	}
}

func TestComputedColumnResolution(t *testing.T) {
	// An aggregate output surfaces by its formatted text, as after an
	// aggregate node.
	ctx := &evalCtx{
		schema: []colRef{{Name: "COUNT(*)"}},
		row:    storage.Row{datum.NewInt(42)},
	}
	sel, _ := sqlparser.ParseSelect("SELECT COUNT(*) + 1")
	v, err := eval(ctx, sel.Items[0].Expr)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 43 {
		t.Errorf("computed resolution = %v, want 43", v)
	}
}

func TestDivisionByZeroErrors(t *testing.T) {
	if _, err := evalOn(t, "a / b", datum.NewInt(1), datum.NewInt(0)); err == nil {
		t.Error("integer division by zero should error")
	}
}

// TestBetweenThreeValued pins BETWEEN to its expansion x >= lo AND x <= hi
// under three-valued logic, with literal expectations rather than a
// differential comparison: every executor once returned NULL for any NULL
// operand, and agreeing on that hid it. A false comparison decides the
// AND, so 5 BETWEEN NULL AND 3 is false and its NOT is true, while
// 2 BETWEEN NULL AND 3 is NULL either way. The scalar cases run the
// reference evaluator and the bound closures; the WHERE cases run the
// batch, instrumented, morsel-parallel and reference executors.
func TestBetweenThreeValued(t *testing.T) {
	null, tru, fls := datum.Null, datum.NewBool(true), datum.NewBool(false)
	five, two := datum.NewInt(5), datum.NewInt(2)
	cases := []struct {
		expr string
		a    datum.D
		want datum.D
	}{
		{"a BETWEEN NULL AND 3", five, fls},
		{"a NOT BETWEEN NULL AND 3", five, tru},
		{"a BETWEEN NULL AND 3", two, null},
		{"a NOT BETWEEN NULL AND 3", two, null},
		{"a BETWEEN 3 AND NULL", two, fls},
		{"a BETWEEN 3 AND NULL", five, null},
		{"a BETWEEN 6 AND 3", five, fls},
		{"a NOT BETWEEN 6 AND 3", five, tru},
		{"a BETWEEN 2 AND 5", five, tru},
		{"a BETWEEN 1 AND 3", null, null},
	}
	schema := []colRef{{Qual: "t", Name: "a"}, {Qual: "t", Name: "b"}}
	for _, c := range cases {
		sel, err := sqlparser.ParseSelect("SELECT " + c.expr)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := bindExpr(sel.Items[0].Expr, schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		fromBound, err := bound(&rowEnv{left: storage.Row{c.a, null}})
		if err != nil {
			t.Fatal(err)
		}
		for label, got := range map[string]datum.D{"reference": mustEval(t, c.expr, c.a, null), "bound": fromBound} {
			if got.String() != c.want.String() {
				t.Errorf("%s: %s [a=%v] = %v, want %v", label, c.expr, c.a, got, c.want)
			}
		}
	}

	e := testDB(t, DefaultConfig())
	mustExec(t, e, "CREATE TABLE nb (k INTEGER)")
	mustExec(t, e, "INSERT INTO nb VALUES (2), (5), (NULL)")
	where := []struct {
		cond string
		want string // sorted k values, comma-separated
	}{
		{"k BETWEEN NULL AND 3", ""},
		{"k NOT BETWEEN NULL AND 3", "5"},
		{"NOT (k BETWEEN NULL AND 3)", "5"},
		{"(k BETWEEN NULL AND 3) IS NULL", "2,NULL"},
		{"(k NOT BETWEEN NULL AND 3) IS NULL", "2,NULL"},
		{"k NOT BETWEEN 3 AND NULL", "2"},
		{"5 BETWEEN NULL AND k", ""},
		{"5 NOT BETWEEN NULL AND k", "2"},
		{"k NOT BETWEEN 6 AND 3", "2,5"},
	}
	par := e.Session()
	par.Cfg.MaxQueryParallelism = 4
	par.Cfg.ParallelRowsPerWorker = 1
	for _, w := range where {
		q := "SELECT k FROM nb WHERE " + w.cond
		results := map[string]*Result{}
		e.Cfg.ReferenceExec = false
		results["batch"] = mustExec(t, e, q)
		qr, err := e.QueryInstrumented(q)
		if err != nil {
			t.Fatal(err)
		}
		results["instrumented"] = qr.Result
		res, err := par.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		results["parallel"] = res
		e.Cfg.ReferenceExec = true
		results["reference"] = mustExec(t, e, q)
		e.Cfg.ReferenceExec = false
		for label, r := range results {
			if got := strings.Join(sortedRowStrings(r.Rows), ","); got != w.want {
				t.Errorf("%s: WHERE %s returned [%s], want [%s]", label, w.cond, got, w.want)
			}
		}
	}
}
