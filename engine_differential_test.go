package lantern

// Differential check of the batch executor against the
// materializing reference executor over the full TPC-H workload on the
// seed catalog — the engine-internal differential tests cover the
// operator matrix on a small schema; this covers the paper's actual
// query corpus at dataset scale. Results must match as multisets, and as
// exact sequences when the query has ORDER BY.

import (
	"sort"
	"strings"
	"testing"

	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

func diffRowStrings(rows []storage.Row) []string {
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

func TestTPCHDifferentialStreamingVsReference(t *testing.T) {
	e := engine.NewDefault()
	if err := datasets.LoadTPCH(e, 0.02, 1); err != nil {
		t.Fatal(err)
	}
	for _, w := range datasets.TPCHWorkload() {
		e.Cfg.ReferenceExec = false
		stream, sErr := e.Exec(w.SQL)
		e.Cfg.ReferenceExec = true
		ref, rErr := e.Exec(w.SQL)
		e.Cfg.ReferenceExec = false
		if (sErr != nil) != (rErr != nil) {
			t.Fatalf("%s: stream err = %v, reference err = %v", w.Name, sErr, rErr)
		}
		if sErr != nil {
			t.Errorf("%s: exec: %v", w.Name, sErr)
			continue
		}
		got, want := diffRowStrings(stream.Rows), diffRowStrings(ref.Rows)
		sel, err := sqlparser.ParseSelect(w.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.OrderBy) == 0 {
			sort.Strings(got)
			sort.Strings(want)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: stream %d rows, reference %d", w.Name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d differs\nstream:    %s\nreference: %s", w.Name, i, got[i], want[i])
			}
		}
	}
}

// TestTPCHDifferentialParallelVsSerial runs the TPC-H workload through the
// morsel-parallel executor with the DOP policy forced up (4 workers, tiny
// per-worker shares so every table splits into many morsels) and pins the
// results against the serial vectorized executor — exact sequences under
// ORDER BY, multisets otherwise.
func TestTPCHDifferentialParallelVsSerial(t *testing.T) {
	e := engine.NewDefault()
	if err := datasets.LoadTPCH(e, 0.02, 1); err != nil {
		t.Fatal(err)
	}
	par := e.Session()
	par.Cfg.MaxQueryParallelism = 4
	par.Cfg.ParallelRowsPerWorker = 64
	for _, w := range datasets.TPCHWorkload() {
		serial, sErr := e.Exec(w.SQL)
		parallel, pErr := par.Exec(w.SQL)
		if (sErr != nil) != (pErr != nil) {
			t.Fatalf("%s: serial err = %v, parallel err = %v", w.Name, sErr, pErr)
		}
		if sErr != nil {
			t.Errorf("%s: exec: %v", w.Name, sErr)
			continue
		}
		got, want := diffRowStrings(parallel.Rows), diffRowStrings(serial.Rows)
		sel, err := sqlparser.ParseSelect(w.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.OrderBy) == 0 {
			sort.Strings(got)
			sort.Strings(want)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: parallel %d rows, serial %d", w.Name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d differs\nparallel: %s\nserial:   %s", w.Name, i, got[i], want[i])
			}
		}
	}
}

// starExecutors runs a query in the batch, instrumented and reference
// executors.
func starExecutors(e *engine.Engine) map[string]func(string) (*engine.Result, error) {
	return map[string]func(string) (*engine.Result, error){
		"batch": func(sql string) (*engine.Result, error) { return e.Exec(sql) },
		"instrumented": func(sql string) (*engine.Result, error) {
			qr, err := e.QueryInstrumented(sql)
			if err != nil {
				return nil, err
			}
			return qr.Result, nil
		},
		"reference": func(sql string) (*engine.Result, error) {
			ref := e.Session()
			ref.Cfg.ReferenceExec = true
			return ref.Exec(sql)
		},
	}
}

// TestDistinctTableStar pins that DISTINCT t.* keys on t's columns alone:
// over customer joined with its orders it returns each customer once, as
// many rows as DISTINCT over customer's key.
func TestDistinctTableStar(t *testing.T) {
	e := engine.NewDefault()
	if err := datasets.LoadTPCH(e, 0.01, 1); err != nil {
		t.Fatal(err)
	}
	const (
		star = "SELECT DISTINCT c.* FROM customer c, orders o WHERE c.c_custkey = o.o_custkey"
		key  = "SELECT DISTINCT c.c_custkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey"
	)
	for name, exec := range starExecutors(e) {
		keys, err := exec(key)
		if err != nil {
			t.Fatalf("%s: %q: %v", name, key, err)
		}
		r, err := exec(star)
		if err != nil {
			t.Fatalf("%s: %q: %v", name, star, err)
		}
		if len(keys.Rows) != 15 || len(r.Rows) != 15 || len(r.Columns) != 6 {
			t.Errorf("%s: %d rows of %d columns, and %d customer keys; want 15 rows of customer's 6 columns and 15 keys",
				name, len(r.Rows), len(r.Columns), len(keys.Rows))
		}
	}
}

// TestStarOverGroupBy pins what a star means over grouped input, as in
// PostgreSQL, in the batch, instrumented and reference executors: a star
// naming a column no GROUP BY key is fails at plan time, and over input
// grouped by every column a star expands to the group keys alone, so
// COUNT(*) is not repeated.
func TestStarOverGroupBy(t *testing.T) {
	e := engine.NewDefault()
	if err := datasets.LoadTPCH(e, 0.01, 1); err != nil {
		t.Fatal(err)
	}
	const (
		ungrouped = "SELECT * FROM customer GROUP BY c_name"
		grouped   = "SELECT *, COUNT(*) FROM nation GROUP BY n_nationkey, n_name, n_regionkey, n_comment"
		wantErr   = `engine: column "customer.c_custkey" must appear in the GROUP BY clause or be used in an aggregate function`
	)
	wantCols := []string{"n_nationkey", "n_name", "n_regionkey", "n_comment", "COUNT(*)"}
	for name, exec := range starExecutors(e) {
		if _, err := exec(ungrouped); err == nil || err.Error() != wantErr {
			t.Errorf("%s: %q: err = %v, want %q", name, ungrouped, err, wantErr)
		}
		r, err := exec(grouped)
		if err != nil {
			t.Fatalf("%s: %q: %v", name, grouped, err)
		}
		if strings.Join(r.Columns, ",") != strings.Join(wantCols, ",") || len(r.Rows) != 25 {
			t.Errorf("%s: %q: %d rows of columns %v, want 25 of %v", name, grouped, len(r.Rows), r.Columns, wantCols)
		}
		for _, row := range r.Rows {
			if len(row) != len(wantCols) || row[4].Int() != 1 {
				t.Fatalf("%s: %q: row %v, want five columns and a count of 1", name, grouped, row)
			}
		}
	}
	// Plan-time rejection reaches EXPLAIN, and so narrate, too.
	if _, err := e.Exec("EXPLAIN " + ungrouped); err == nil || err.Error() != wantErr {
		t.Errorf("EXPLAIN %q: err = %v, want %q", ungrouped, err, wantErr)
	}
}
