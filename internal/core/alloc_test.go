//go:build !race

package core

// Allocation guard for building a LOT over the POEM store's published
// index: lookups, auxiliary edges and COMPOSE read in-memory structures and
// run no SQL, so a LOT costs a few allocations per node. A regression back
// to per-node SQL shows up as thousands of allocations. Kept out of -race
// builds because the race runtime inflates allocation counts; CI runs this
// package without -race as well.

import (
	"testing"

	"lantern/internal/pool"
)

// maxBuildLOTAllocs pins BuildLOT on the paper's 7-node Figure 4 plan. It
// measured 50 when set; when every lookup ran SQL it measured 6,061.
const maxBuildLOTAllocs = 80

func TestBuildLOTAllocs(t *testing.T) {
	tree := paperTree(t, dblpEngine(t))
	if n := tree.CountNodes(); n != 7 {
		t.Fatalf("plan has %d nodes, want the 7 of Figure 4:\n%s", n, tree.String())
	}
	rl := NewRuleLantern(pool.NewSeededStore())
	if _, err := rl.BuildLOT(tree); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := rl.BuildLOT(tree); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxBuildLOTAllocs {
		t.Errorf("BuildLOT allocates %.0f times on a 7-node plan, want at most %d", allocs, maxBuildLOTAllocs)
	}
}
