package pool_test

import (
	"strings"
	"testing"

	"lantern/internal/plan"
	"lantern/internal/plantest"
	"lantern/internal/pool"
)

// TestCorpusOperatorCoverage is the POOL leg of the cross-dialect golden
// corpus harness: every operator appearing in any corpus plan must have a
// seeded POEM object and a composable description template in its
// dialect. This is what keeps "add a dialect" honest — a new frontend
// cannot land a corpus whose vocabulary the narration store cannot speak.
func TestCorpusOperatorCoverage(t *testing.T) {
	store := pool.NewSeededStore()
	for _, e := range plantest.Entries(t) {
		tree, err := plan.Parse(e.Dialect, e.Doc)
		if err != nil {
			t.Fatalf("%s/%s: %v", e.Dialect, e.Name, err)
		}
		for _, op := range tree.OperatorSet() {
			obj, err := store.Index().Lookup(e.Dialect, op)
			if err != nil {
				t.Errorf("%s/%s: operator %q has no POEM entry: %v", e.Dialect, e.Name, op, err)
				continue
			}
			tpl, err := store.Index().ComposeTemplate(e.Dialect, []string{obj.Name}, nil)
			if err != nil {
				t.Errorf("%s/%s: COMPOSE %s failed: %v", e.Dialect, e.Name, op, err)
				continue
			}
			if strings.TrimSpace(tpl) == "" {
				t.Errorf("%s/%s: operator %q composes to an empty template", e.Dialect, e.Name, op)
			}
		}
	}
}

// TestCorpusDialectsRegistered: every corpus dialect must be a registered
// POOL source whose declared vocabulary covers the corpus operators, so
// SMEs can CREATE/UPDATE descriptions for all of them.
func TestCorpusDialectsRegistered(t *testing.T) {
	store := pool.NewSeededStore()
	sources := make(map[string]bool)
	for _, s := range store.Sources() {
		sources[s] = true
	}
	for _, e := range plantest.Entries(t) {
		if !sources[e.Dialect] {
			t.Errorf("corpus dialect %q is not a registered POOL source (have %v)", e.Dialect, store.Sources())
		}
	}
}
