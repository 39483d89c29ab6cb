// Package plantest is the shared cross-dialect golden-corpus harness used
// by the plan, pool, and service test suites. The corpus lives in
// internal/plan/testdata/<dialect>/*.plan: one serialized EXPLAIN document
// per file, with checked-in golden expectations next to it (<name>.tree for
// the parsed canonical tree, <name>.txt for the RULE-LANTERN narration).
//
// Every future dialect lands by adding a testdata/<dialect> directory —
// the table-driven runners in the three suites pick it up automatically,
// so a new frontend ships with a conformance corpus instead of ad-hoc
// string literals. Regenerate expectations with:
//
//	go test ./internal/plan ./internal/pool ./internal/service -run Corpus -update
//
// and regenerate the corpus *inputs* from the substrate engine with:
//
//	go run ./internal/plan/testdata/gen
package plantest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"lantern/internal/plan"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing")

// Update reports whether the test run was invoked with -update.
func Update() bool { return *update }

// CorpusDir returns the absolute path of the corpus root
// (internal/plan/testdata), located relative to this source file so the
// harness works from any package's test working directory.
func CorpusDir() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		panic("plantest: cannot locate source file")
	}
	return filepath.Join(filepath.Dir(file), "..", "plan", "testdata")
}

// Entry is one corpus plan: a dialect, a short name, and the serialized
// document.
type Entry struct {
	Dialect string
	Name    string
	Path    string // absolute path of the .plan input
	Doc     string
}

// GoldenPath returns the path of this entry's golden file with the given
// extension (".tree", ".txt").
func (e Entry) GoldenPath(ext string) string {
	return strings.TrimSuffix(e.Path, ".plan") + ext
}

// Entries loads the whole corpus, sorted by dialect then name, and fails
// the test if any dialect directory holds fewer than MinPlansPerDialect
// plans — the conformance floor every dialect must meet.
func Entries(t testing.TB) []Entry {
	t.Helper()
	entries, err := LoadEntries()
	if err != nil {
		t.Fatal(err)
	}
	byDialect := make(map[string]int)
	for _, e := range entries {
		byDialect[e.Dialect]++
	}
	for d, n := range byDialect {
		if n < MinPlansPerDialect {
			t.Fatalf("plantest: dialect %q has only %d corpus plans, want >= %d", d, n, MinPlansPerDialect)
		}
	}
	return entries
}

// CorpusQueries is the conformance query set the corpus inputs are
// generated from (testdata/gen): every dialect's corpus is the same
// queries, chosen to cover scans (sequential and index), the join
// families, grouping, sorting, duplicate removal, and limits.
var CorpusQueries = []struct{ Name, SQL string }{
	{"scan_filter", "SELECT c_name FROM customer WHERE c_mktsegment = 'BUILDING'"},
	{"index_lookup", "SELECT o_totalprice FROM orders WHERE o_orderkey = 7"},
	{"join_group_sort", "SELECT c.c_name, SUM(o.o_totalprice) FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000 GROUP BY c.c_name ORDER BY c.c_name"},
	{"distinct_limit", "SELECT DISTINCT c_mktsegment FROM customer ORDER BY c_mktsegment LIMIT 3"},
	{"left_join", "SELECT c.c_name, o.o_totalprice FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey"},
	{"three_way_join", "SELECT c.c_name, l.l_quantity FROM customer c, orders o, lineitem l WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey AND c.c_mktsegment = 'AUTOMOBILE'"},
	// Both inputs arrive in join-key order from index range scans.
	{"merge_join", "SELECT o.o_orderkey, l.l_quantity FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o.o_orderkey < 200 AND l.l_orderkey < 200"},
	// Two small inputs: a Nested Loop whose equality is its join filter.
	{"nested_loop_filter", "SELECT n.n_name, r.r_name FROM nation n, region r WHERE n.n_regionkey = r.r_regionkey"},
	{"group_having", "SELECT c_nationkey, COUNT(*) FROM customer GROUP BY c_nationkey HAVING COUNT(*) > 10"},
	{"index_residual", "SELECT o_totalprice FROM orders WHERE o_orderkey = 7 AND o_totalprice > 100"},
	// Sort and group keys with ", " inside a call and inside a literal:
	// the key lists must still split into whole keys.
	{"comma_keys", "SELECT COALESCE(c_mktsegment, 'p, q'), COUNT(*) FROM customer GROUP BY COALESCE(c_mktsegment, 'p, q') ORDER BY SUBSTR(COALESCE(c_mktsegment, 'p, q'), 1, 2), COUNT(*)"},
}

// MinPlansPerDialect is the conformance floor: every dialect directory
// must carry at least this many corpus plans.
const MinPlansPerDialect = 4

// LoadEntries loads the corpus without a testing.TB, for fuzz seeding and
// tooling.
func LoadEntries() ([]Entry, error) {
	root := CorpusDir()
	dirs, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("plantest: reading corpus root: %w", err)
	}
	var entries []Entry
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(root, d.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			if !strings.HasSuffix(f.Name(), ".plan") {
				continue
			}
			path := filepath.Join(root, d.Name(), f.Name())
			doc, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			entries = append(entries, Entry{
				Dialect: d.Name(),
				Name:    strings.TrimSuffix(f.Name(), ".plan"),
				Path:    path,
				Doc:     string(doc),
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Dialect != entries[j].Dialect {
			return entries[i].Dialect < entries[j].Dialect
		}
		return entries[i].Name < entries[j].Name
	})
	return entries, nil
}

// Golden compares got against the golden file at path, or rewrites the
// file when the run carries -update. The diff failure prints both full
// texts: corpus plans are small enough that context beats excerpting.
func Golden(t testing.TB, path string, got string) {
	t.Helper()
	if Update() {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("plantest: writing golden %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("plantest: missing golden %s (run with -update to create it): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("golden mismatch for %s (run with -update to accept)\n--- want ---\n%s\n--- got ---\n%s",
			filepath.Base(path), want, got)
	}
}

// Dump renders a tree verbosely and stably for golden comparison: one
// line per node with source, operator, row/cost estimates, and sorted
// attributes, children indented beneath.
func Dump(n *plan.Node) string {
	var sb strings.Builder
	var rec func(x *plan.Node, depth int)
	rec = func(x *plan.Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&sb, "%s [%s] rows=%g cost=%g", x.Name, x.Source, x.Rows, x.Cost)
		if len(x.Attrs) > 0 {
			keys := make([]string, 0, len(x.Attrs))
			for k := range x.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, " %s=%q", k, x.Attrs[k])
			}
		}
		sb.WriteString("\n")
		for _, c := range x.Children {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return sb.String()
}
