package engine

// Differential tests for zone-map pruning edge cases. The table is built
// with a tiny segment capacity so a handful of rows spans several sealed
// segments plus an unsealed tail, and every query runs through all four
// executions (vectorized, instrumented, reference, morsel-parallel) under
// every planner configuration — the reference executor never consults
// zone maps, so any unsound prune shows up as a row-set mismatch. The
// whole corpus then repeats with DisableZonePruning set, pinning that the
// ablation knob changes performance only, never results.

import (
	"fmt"
	"testing"
)

// pruneDB builds table seg over cfg with segment capacity 4:
//
//	segment 0: k = 10..13, f = 1.5..4.5, s = 'aa'..'ad'   (zone 10..13)
//	segment 1: k/f/s all NULL                              (all-NULL zones)
//	segment 2: k = 20..23, f = 20.5..23.5, s = 'ba'..'bd'  (zone 20..23)
//	tail:      one row k = 30                              (one-row final tail)
func pruneDB(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := testDB(t, cfg)
	mustExec(t, e, "CREATE TABLE seg (k INTEGER, f FLOAT, s TEXT)")
	tbl, err := e.Cat.Table("seg")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetSegmentCapacity(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO seg VALUES (%d, %.1f, 'a%c')", 10+i, 1.5+float64(i), 'a'+i))
	}
	for i := 0; i < 4; i++ {
		mustExec(t, e, "INSERT INTO seg VALUES (NULL, NULL, NULL)")
	}
	for i := 0; i < 4; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO seg VALUES (%d, %.1f, 'b%c')", 20+i, 20.5+float64(i), 'a'+i))
	}
	mustExec(t, e, "INSERT INTO seg VALUES (30, 30.5, 'cz')")
	return e
}

// pruneCorpus hits every pruning decision boundary: literals exactly at a
// segment's zone min/max, literals in the gap between segments, predicates
// that prune every segment, predicates the all-NULL segment must and must
// not survive, NULL-literal comparisons (always prune, match nothing), and
// predicates only the one-row tail satisfies — for comparisons, BETWEEN
// and IN lists alike, plus the NOT, subquery and non-literal forms that
// never prune.
var pruneCorpus = []string{
	// Equality at and around zone boundaries.
	"SELECT k FROM seg WHERE k = 10",
	"SELECT k FROM seg WHERE k = 13",
	"SELECT k FROM seg WHERE k = 14",
	"SELECT k FROM seg WHERE k = 9",
	"SELECT k FROM seg WHERE k = 30",
	// Ranges at zone boundaries: < min, <= min, > max, >= max.
	"SELECT k FROM seg WHERE k < 10",
	"SELECT k FROM seg WHERE k <= 10",
	"SELECT k FROM seg WHERE k > 13",
	"SELECT k FROM seg WHERE k >= 13",
	"SELECT k FROM seg WHERE k > 23",
	"SELECT k FROM seg WHERE k >= 30",
	// Prune-everything predicates (no row anywhere satisfies them).
	"SELECT k FROM seg WHERE k < 5",
	"SELECT k FROM seg WHERE k > 99",
	"SELECT k FROM seg WHERE k = 15",
	// Inequality: prunable only when a segment is constant.
	"SELECT k FROM seg WHERE k <> 13",
	"SELECT k FROM seg WHERE k <> 30",
	// Conjunctions spanning the inter-segment gap.
	"SELECT k FROM seg WHERE k BETWEEN 13 AND 20",
	"SELECT k FROM seg WHERE k BETWEEN 14 AND 19",
	"SELECT k FROM seg WHERE k > 11 AND k < 22",
	// NULL semantics: the all-NULL segment survives IS NULL only, and
	// comparisons against a NULL literal match nothing anywhere.
	"SELECT s FROM seg WHERE k IS NULL",
	"SELECT k FROM seg WHERE k IS NOT NULL",
	"SELECT k FROM seg WHERE k = NULL",
	"SELECT k FROM seg WHERE k > NULL",
	// Float column and int-literal-vs-float-column widening.
	"SELECT f FROM seg WHERE f < 1.5",
	"SELECT f FROM seg WHERE f <= 1.5",
	"SELECT f FROM seg WHERE f > 23.5",
	"SELECT f FROM seg WHERE f = 20.5",
	"SELECT f FROM seg WHERE f > 4",
	"SELECT k FROM seg WHERE k < 10.5",
	"SELECT k FROM seg WHERE k = 10.0",
	// String zone maps.
	"SELECT s FROM seg WHERE s = 'aa'",
	"SELECT s FROM seg WHERE s < 'ad'",
	"SELECT s FROM seg WHERE s >= 'bd'",
	"SELECT s FROM seg WHERE s > 'cz'",
	// Aggregates over pruned scans (COUNT must see exactly the survivors).
	"SELECT COUNT(*) FROM seg WHERE k > 13",
	"SELECT COUNT(*), SUM(k) FROM seg WHERE k < 21",
	"SELECT COUNT(*) FROM seg WHERE k IS NULL",
	// BETWEEN compiles to >= AND <=: bounds at zone edges, inside the
	// inter-segment gap, past every zone, reversed, NULL, float bounds on
	// the INTEGER column, int bounds on the FLOAT column, and strings.
	"SELECT k FROM seg WHERE k BETWEEN 10 AND 13",
	"SELECT k FROM seg WHERE k BETWEEN 13 AND 13",
	"SELECT k FROM seg WHERE k BETWEEN 9 AND 10",
	"SELECT k FROM seg WHERE k BETWEEN 23 AND 30",
	"SELECT k FROM seg WHERE k BETWEEN 24 AND 29",
	"SELECT k FROM seg WHERE k BETWEEN 31 AND 99",
	"SELECT k FROM seg WHERE k BETWEEN 20 AND 10",
	"SELECT k FROM seg WHERE k BETWEEN NULL AND 13",
	"SELECT k FROM seg WHERE k BETWEEN 10 AND NULL",
	"SELECT k FROM seg WHERE k BETWEEN 9.5 AND 13.5",
	"SELECT k FROM seg WHERE k BETWEEN 12.5 AND 20.0",
	"SELECT k FROM seg WHERE k BETWEEN 13.1 AND 19.9",
	"SELECT f FROM seg WHERE f BETWEEN 4.5 AND 20.5",
	"SELECT f FROM seg WHERE f BETWEEN 2 AND 21",
	"SELECT s FROM seg WHERE s BETWEEN 'ab' AND 'bb'",
	"SELECT s FROM seg WHERE s BETWEEN 'ad' AND 'ba'",
	"SELECT s FROM seg WHERE s BETWEEN 'c' AND 'd'",
	"SELECT s FROM seg WHERE s BETWEEN 'be' AND 'cy'",
	"SELECT COUNT(*), SUM(k) FROM seg WHERE k BETWEEN 12 AND 21",
	"SELECT k FROM seg WHERE k BETWEEN 11 AND 22 AND s < 'bb'",
	// IN lists: members at zone edges, in the gap and outside every zone,
	// NULL items, only NULLs, mixed int and float literals, float and
	// string columns, and literals of another kind.
	"SELECT k FROM seg WHERE k IN (10, 23, 30)",
	"SELECT k FROM seg WHERE k IN (13, 20)",
	"SELECT k FROM seg WHERE k IN (14, 15, 19)",
	"SELECT k FROM seg WHERE k IN (5, 99)",
	"SELECT k FROM seg WHERE k IN (NULL, 11)",
	"SELECT k FROM seg WHERE k IN (NULL)",
	"SELECT k FROM seg WHERE k IN (NULL, NULL)",
	"SELECT k FROM seg WHERE k IN (11, 21.0, 22.5)",
	"SELECT k FROM seg WHERE k IN (13.0, 30)",
	"SELECT k FROM seg WHERE k IN ('aa', 10)",
	"SELECT k FROM seg WHERE k IN (0, 10)",
	"SELECT s FROM seg WHERE s IN ('', 'aa')",
	"SELECT f FROM seg WHERE f IN (1.5, 21, 30.5)",
	"SELECT s FROM seg WHERE s IN ('aa', 'bd', 'zz')",
	"SELECT s FROM seg WHERE s IN ('ab', NULL)",
	"SELECT s FROM seg WHERE s IN ('c', 'b')",
	"SELECT COUNT(*) FROM seg WHERE k IN (10, 12, 21, 30)",
	"SELECT k FROM seg WHERE k IN (10, 21) AND s IN ('aa', 'bb')",
	// A TEXT column against numeric literals, on segments and the tail:
	// every string orders after every number.
	"SELECT s FROM seg WHERE s > 5",
	"SELECT s FROM seg WHERE s <> 5",
	"SELECT s FROM seg WHERE 5 < s",
	"SELECT s FROM seg WHERE s = 5",
	"SELECT s FROM seg WHERE s <= 5",
	"SELECT k FROM seg WHERE s >= 2.5 AND k > 11",
	// Column pairs: int/float, float/int and string/string typed loops.
	"SELECT k FROM seg WHERE k < f",
	"SELECT k FROM seg WHERE f >= k AND s > 'a'",
	"SELECT k FROM seg WHERE s > s",
	// Shapes that stay on the bound closure.
	"SELECT k FROM seg WHERE k NOT BETWEEN 11 AND 21",
	"SELECT k FROM seg WHERE k NOT BETWEEN NULL AND 13",
	"SELECT k FROM seg WHERE k NOT IN (10, 20)",
	"SELECT k FROM seg WHERE k NOT IN (10, NULL)",
	"SELECT k FROM seg WHERE k IN (SELECT k FROM seg WHERE k > 20)",
	"SELECT k FROM seg WHERE k IN (f, 11)",
	"SELECT k FROM seg WHERE k BETWEEN f AND 21",
}

func TestDifferentialZonePruning(t *testing.T) {
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			e := pruneDB(t, cfg)
			for _, q := range pruneCorpus {
				mustExec(t, e, q)
				assertSameResults(t, e, q)
			}
		})
	}
}

// TestStringColumnIntLiteral pins comparisons of a TEXT column with an
// integer literal to literal row counts: the reference executor keeps the
// nine non-NULL rows for >, <> and the flipped <, and none for = or <=,
// and the other three executions must agree with it on segments and on
// the tail.
func TestStringColumnIntLiteral(t *testing.T) {
	e := pruneDB(t, DefaultConfig())
	for q, want := range map[string]int{
		"SELECT s FROM seg WHERE s > 5":  9,
		"SELECT s FROM seg WHERE s <> 5": 9,
		"SELECT s FROM seg WHERE 5 < s":  9,
		"SELECT s FROM seg WHERE s = 5":  0,
		"SELECT s FROM seg WHERE s <= 5": 0,
	} {
		assertSameResults(t, e, q)
		for _, ref := range []bool{false, true} {
			e.Cfg.ReferenceExec = ref
			if got := len(mustExec(t, e, q).Rows); got != want {
				t.Errorf("%q (reference executor: %v) returned %d rows, want %d", q, ref, got, want)
			}
		}
		e.Cfg.ReferenceExec = false
	}
}

// TestDifferentialZonePruningDisabled repeats the corpus with the pruning
// ablation knob set: disabling zone checks must not change any result.
func TestDifferentialZonePruningDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableZonePruning = true
	e := pruneDB(t, cfg)
	for _, q := range pruneCorpus {
		mustExec(t, e, q)
		assertSameResults(t, e, q)
	}
}

// TestDifferentialCorpusSegmented runs the differential corpus over the
// standard tables sealed into 8-row segments, with zone pruning on and
// off, so the corpus's BETWEEN and IN shapes meet real zone maps and
// typed vectors (testDB's tables otherwise fit in the unsealed tail).
func TestDifferentialCorpusSegmented(t *testing.T) {
	for _, disable := range []bool{false, true} {
		t.Run(fmt.Sprintf("DisableZonePruning=%v", disable), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DisableZonePruning = disable
			e := New(cfg)
			seedTestDB(t, e, 8)
			for _, q := range diffCorpus {
				mustExec(t, e, q)
				assertSameResults(t, e, q)
			}
		})
	}
}

// TestZonePruningStats pins the instrumentation: a scan over the three
// sealed segments with a predicate only segment 2 can satisfy must report
// two pruned segments, one scanned, on both the serial-instrumented (row)
// and forced-parallel (vectorized) paths.
func TestZonePruningStats(t *testing.T) {
	for _, par := range []bool{false, true} {
		e := pruneDB(t, DefaultConfig())
		if par {
			e.Cfg.MaxQueryParallelism = 4
			e.Cfg.ParallelRowsPerWorker = 1
		}
		qr, err := e.QueryInstrumented("SELECT k FROM seg WHERE k >= 20 AND k <= 23")
		if err != nil {
			t.Fatal(err)
		}
		var scanned, pruned int64
		for n, st := range qr.Stats {
			if n.Op == OpSeqScan {
				scanned += st.SegsScanned
				pruned += st.SegsPruned
			}
		}
		if scanned != 1 || pruned != 2 {
			t.Errorf("parallel=%v: got %d scanned / %d pruned segments, want 1 / 2", par, scanned, pruned)
		}
	}
}

// TestZonePruningDisabledStats: with the ablation knob set, no segment is
// ever reported pruned.
func TestZonePruningDisabledStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableZonePruning = true
	e := pruneDB(t, cfg)
	qr, err := e.QueryInstrumented("SELECT k FROM seg WHERE k >= 20 AND k <= 23")
	if err != nil {
		t.Fatal(err)
	}
	for n, st := range qr.Stats {
		if n.Op == OpSeqScan && st.SegsPruned != 0 {
			t.Errorf("pruning disabled but scan reports %d pruned segments", st.SegsPruned)
		}
	}
}
