package engine

// Tests for executor behavior that the differential tests cannot
// express: LIMIT/OFFSET edge-case semantics, proof that Limit actually
// short-circuits its subtree, top-K equivalence with a stable sort, and
// the top-K heap in isolation.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lantern/internal/datum"
	"lantern/internal/storage"
)

func queryRows(t *testing.T, e *Engine, sql string) []storage.Row {
	t.Helper()
	return mustExec(t, e, sql).Rows
}

func TestLimitEdgeCases(t *testing.T) {
	e := testDB(t, DefaultConfig())
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT o_orderkey FROM orders LIMIT 0", 0},
		{"SELECT o_orderkey FROM orders LIMIT 60", 60},
		{"SELECT o_orderkey FROM orders LIMIT 1000", 60}, // limit > input
		{"SELECT o_orderkey FROM orders LIMIT 1", 1},
		{"SELECT o_orderkey FROM orders LIMIT 10 OFFSET 55", 5},  // offset eats into limit
		{"SELECT o_orderkey FROM orders LIMIT 10 OFFSET 60", 0},  // offset == input
		{"SELECT o_orderkey FROM orders LIMIT 10 OFFSET 100", 0}, // offset > input
		{"SELECT o_orderkey FROM orders OFFSET 58", 2},           // OFFSET without LIMIT
		{"SELECT o_orderkey FROM orders LIMIT 0 OFFSET 5", 0},
		{"SELECT o_orderkey FROM orders ORDER BY o_totalprice LIMIT 0", 0},
		{"SELECT o_orderkey FROM orders ORDER BY o_totalprice LIMIT 1000", 60},
		// A huge LIMIT must not pre-allocate limit-sized buffers (top-K
		// heap memory is proportional to the input, not the LIMIT).
		{"SELECT o_orderkey FROM orders ORDER BY o_totalprice LIMIT 2000000000", 60},
		{"SELECT o_orderkey FROM orders ORDER BY o_totalprice DESC LIMIT 5 OFFSET 58", 2},
	}
	for _, c := range cases {
		if got := len(queryRows(t, e, c.sql)); got != c.want {
			t.Errorf("%s: got %d rows, want %d", c.sql, got, c.want)
		}
	}
}

// TestLimitUnderEachJoinType pins LIMIT semantics over every physical join:
// the limited result must be a prefix-sized subset of the full join result.
func TestLimitUnderEachJoinType(t *testing.T) {
	const join = "SELECT c.c_name, o.o_orderkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey"
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := testDB(t, cfg)
			full := make(map[string]bool)
			for _, s := range rowStrings(queryRows(t, e, join)) {
				full[s] = true
			}
			for _, lim := range []int{0, 1, 7, 60, 1000} {
				q := fmt.Sprintf("%s LIMIT %d", join, lim)
				rows := queryRows(t, e, q)
				want := lim
				if lim > len(full) {
					want = len(full)
				}
				if len(rows) != want {
					t.Fatalf("%s: got %d rows, want %d", q, len(rows), want)
				}
				for _, s := range rowStrings(rows) {
					if !full[s] {
						t.Fatalf("%s: row %s not in unlimited result", q, s)
					}
				}
			}
			// LEFT JOIN limit (null-extended rows included).
			leftQ := "SELECT c.c_name, o.o_orderkey FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey AND o.o_totalprice > 10000 LIMIT 5"
			if got := len(queryRows(t, e, leftQ)); got != 5 {
				t.Fatalf("%s: got %d rows, want 5", leftQ, got)
			}
		})
	}
}

// TestTopKStableWithDuplicateKeys pins the tie-breaking of the bounded
// top-K path: LIMIT over ORDER BY on a duplicate-heavy key must return
// exactly the prefix of a stable full sort — the same rows, in the same
// order, as the unlimited query.
func TestTopKStableWithDuplicateKeys(t *testing.T) {
	e := testDB(t, DefaultConfig())
	full := rowStrings(queryRows(t, e, "SELECT o_orderkey, o_status FROM orders ORDER BY o_status"))
	for _, lim := range []int{1, 7, 20, 60} {
		q := fmt.Sprintf("SELECT o_orderkey, o_status FROM orders ORDER BY o_status LIMIT %d", lim)
		got := rowStrings(queryRows(t, e, q))
		if !reflect.DeepEqual(got, full[:lim]) {
			t.Fatalf("%s: top-K result is not the stable-sort prefix\ngot:  %v\nwant: %v", q, got, full[:lim])
		}
	}
	// With OFFSET the heap keeps limit+offset rows; the window must still
	// match the stable sort.
	got := rowStrings(queryRows(t, e, "SELECT o_orderkey, o_status FROM orders ORDER BY o_status LIMIT 4 OFFSET 6"))
	if !reflect.DeepEqual(got, full[6:10]) {
		t.Fatalf("offset window differs\ngot:  %v\nwant: %v", got, full[6:10])
	}
}

// TestLimitShortCircuitsScan proves the short circuit through the
// instrumented actuals, which also pins their batch granularity under a
// LIMIT: LIMIT 3 over a 500-row scan stops the scan after its adaptive
// first chunk, so the scan reports initialChunkSize (64) actual rows, not
// the whole table, while the Limit reports 3. Under ORDER BY the Sort
// keeps a top-K heap and reports the limit itself.
func TestLimitShortCircuitsScan(t *testing.T) {
	e := New(DefaultConfig())
	mustExec(t, e, "CREATE TABLE big (id INTEGER, v INTEGER)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO big VALUES ")
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, (i*37)%500)
	}
	mustExec(t, e, sb.String())
	for _, c := range []struct {
		sql  string
		op   Op
		want int64
	}{
		{"SELECT id FROM big LIMIT 3", OpSeqScan, initialChunkSize},
		{"SELECT id FROM big ORDER BY v LIMIT 3", OpSort, 3},
	} {
		pl, err := e.PlanSQL(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Op != OpLimit {
			t.Fatalf("%s: plan root is %s, want Limit", c.sql, pl.Op.Name())
		}
		rows, st, err := e.ExecPlanInstrumented(pl)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 || st[pl].Rows != 3 {
			t.Fatalf("%s: %d rows, Limit actual rows %d; want 3 and 3", c.sql, len(rows), st[pl].Rows)
		}
		pl.Walk(func(n *Node) {
			if n.Op == c.op && st[n].Rows != c.want {
				t.Fatalf("%s: %s actual rows = %d, want %d", c.sql, n.Op.Name(), st[n].Rows, c.want)
			}
		})
	}
}

// TestSortMarkedTopKOnlyUnderLimit checks the planner annotation: Sort
// directly under Limit carries SortLimit = limit + offset; a bare Sort does
// not.
func TestSortMarkedTopKOnlyUnderLimit(t *testing.T) {
	e := testDB(t, DefaultConfig())
	plan, err := e.PlanSQL("SELECT c_name FROM customer ORDER BY c_acctbal LIMIT 5 OFFSET 2")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Op != OpLimit || plan.Children[0].Op != OpSort {
		t.Fatalf("unexpected plan shape: %s over %s", plan.Op.Name(), plan.Children[0].Op.Name())
	}
	if got := plan.Children[0].SortLimit; got != 7 {
		t.Fatalf("SortLimit = %d, want 7", got)
	}
	plan, err = e.PlanSQL("SELECT c_name FROM customer ORDER BY c_acctbal")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Op != OpSort || plan.SortLimit != 0 {
		t.Fatalf("bare Sort: op %s SortLimit %d, want Sort 0", plan.Op.Name(), plan.SortLimit)
	}
}

// --- topKHeap unit tests ----------------------------------------------------

func heapRowsToInts(rows []storage.Row) []int {
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = int(r[0].Int())
	}
	return out
}

func TestTopKHeap(t *testing.T) {
	push := func(h *topKHeap, vals ...int) {
		key := make([]datum.D, 1)
		for _, v := range vals {
			key[0] = datum.NewInt(int64(v))
			h.push(storage.Row{datum.NewInt(int64(v))}, key)
		}
	}
	t.Run("keeps k smallest in order", func(t *testing.T) {
		h := newTopKHeap(3, 1, []bool{false})
		push(h, 9, 4, 7, 1, 8, 2, 6)
		if got := heapRowsToInts(h.finish()); !reflect.DeepEqual(got, []int{1, 2, 4}) {
			t.Fatalf("got %v", got)
		}
	})
	t.Run("desc keeps k largest", func(t *testing.T) {
		h := newTopKHeap(2, 1, []bool{true})
		push(h, 3, 9, 1, 7)
		if got := heapRowsToInts(h.finish()); !reflect.DeepEqual(got, []int{9, 7}) {
			t.Fatalf("got %v", got)
		}
	})
	t.Run("k larger than input", func(t *testing.T) {
		h := newTopKHeap(10, 1, []bool{false})
		push(h, 5, 3, 4)
		if got := heapRowsToInts(h.finish()); !reflect.DeepEqual(got, []int{3, 4, 5}) {
			t.Fatalf("got %v", got)
		}
	})
	t.Run("k zero retains nothing", func(t *testing.T) {
		h := newTopKHeap(0, 1, []bool{false})
		push(h, 1, 2, 3)
		if got := h.finish(); len(got) != 0 {
			t.Fatalf("got %d rows", len(got))
		}
	})
	t.Run("duplicate keys break ties by arrival", func(t *testing.T) {
		h := newTopKHeap(3, 1, []bool{false})
		key := make([]datum.D, 1)
		// Rows (key, id): all key 1 except one key 0 late arrival.
		rows := []struct{ k, id int }{{1, 100}, {1, 101}, {1, 102}, {1, 103}, {0, 104}}
		for _, r := range rows {
			key[0] = datum.NewInt(int64(r.k))
			h.push(storage.Row{datum.NewInt(int64(r.id)), datum.NewInt(int64(r.k))}, key)
		}
		// Stable sort by key then arrival: 104 (key 0), then 100, 101.
		if got := heapRowsToInts(h.finish()); !reflect.DeepEqual(got, []int{104, 100, 101}) {
			t.Fatalf("got %v", got)
		}
	})
}
