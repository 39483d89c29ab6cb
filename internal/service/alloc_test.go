//go:build !race

package service

// Allocation guards for SQL narration: a cold narrate plans the SQL,
// bridges the plan and narrates it with no EXPLAIN document in between,
// and fingerprinting hashes one buffer. A regression back to writing and
// parsing the document costs about a hundred allocations; one back to
// streaming the canonical form through fmt costs one or more per node.
// Kept out of -race builds because the race runtime inflates allocation
// counts; CI runs this package without -race as well.

import (
	"context"
	"testing"

	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/plan"
	"lantern/internal/pool"
)

// allocJoinQuery is the root benchmarks' benchJoinQuery, the join whose
// cold narration BenchmarkServiceNarrateCold times.
const allocJoinQuery = `SELECT c.c_name, SUM(o.o_totalprice) FROM customer c, orders o
	WHERE c.c_custkey = o.o_custkey AND c.c_mktsegment = 'BUILDING'
	GROUP BY c.c_name ORDER BY c.c_name LIMIT 10`

// maxColdNarrateAllocs caps one cold narrate Do of allocJoinQuery. It
// measured 325 when set, about 10% below the cap; writing and parsing the
// EXPLAIN document and fingerprinting through fmt made it 471.
const maxColdNarrateAllocs = 360

func allocEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng := engine.NewDefault()
	if err := datasets.LoadTPCH(eng, 0.05, 1); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestColdNarrateAllocs(t *testing.T) {
	srv := NewServer(allocEngine(t), pool.NewSeededStore(), Config{CacheBytes: -1})
	t.Cleanup(srv.Close)
	req := &Request{Op: OpNarrate, SQL: allocJoinQuery}
	do := func() {
		resp, err := srv.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Narrate.Cached {
			t.Fatal("a cold narrate hit a cache")
		}
	}
	do()
	if allocs := testing.AllocsPerRun(100, do); allocs > maxColdNarrateAllocs {
		t.Errorf("a cold narrate Do allocates %.0f times, want at most %d", allocs, maxColdNarrateAllocs)
	}
}

// TestPlanFingerprintAllocs: fingerprinting allocates no more than the
// operator set it returns; hashing the canonical form allocates nothing.
func TestPlanFingerprintAllocs(t *testing.T) {
	pl, err := allocEngine(t).PlanSQL(allocJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := plan.FromEngine("pg", engine.ToPlanNode(pl))
	if err != nil {
		t.Fatal(err)
	}
	ops := testing.AllocsPerRun(100, func() { tree.OperatorSet() })
	fp := testing.AllocsPerRun(100, func() { PlanFingerprint(tree, Options{}) })
	if fp > ops {
		t.Errorf("PlanFingerprint allocates %.0f times, its OperatorSet %.0f", fp, ops)
	}
}
