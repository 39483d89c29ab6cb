package pool

import (
	"reflect"
	"sync"
	"testing"
)

func TestMutationHooksUpdate(t *testing.T) {
	s := NewSeededStore()
	var got []Mutation
	s.OnMutation(func(m Mutation) { got = append(got, m) })

	res := s.MustExec(`UPDATE pg SET desc = 'reorder the rows of $R1$' WHERE name = 'sort'`)
	if res.Affected != 2 {
		t.Fatalf("Affected = %d, want 2 (both pg sort objects)", res.Affected)
	}
	// Two objects share the name; the hook coalesces them into one event.
	want := []Mutation{{Source: "pg", Name: "sort", Kind: "update"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %+v, want %+v", got, want)
	}
}

func TestMutationHooksCreateAndDrop(t *testing.T) {
	s := NewSeededStore()
	var got []Mutation
	s.OnMutation(func(m Mutation) { got = append(got, m) })

	s.RegisterSource("pg", "gather")
	s.MustExec(`CREATE POPERATOR gather FOR pg (
		TYPE = 'unary',
		DESC = 'gather partial results from parallel workers on $R1$',
		COND = 'false')`)
	s.MustExec(`DROP POPERATOR gather FOR pg`)

	want := []Mutation{
		{Source: "pg", Name: "gather", Kind: "create"},
		{Source: "pg", Name: "gather", Kind: "drop"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %+v, want %+v", got, want)
	}
}

func TestMutationHooksNotFiredOnFailureOrRead(t *testing.T) {
	s := NewSeededStore()
	fired := 0
	s.OnMutation(func(Mutation) { fired++ })

	if _, err := s.Exec(`DROP POPERATOR nosuchop FOR pg`); err == nil {
		t.Fatal("expected drop of unknown operator to fail")
	}
	if _, err := s.Exec(`SELECT name FROM pg WHERE type = 'binary'`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`COMPOSE hash, hashjoin FROM pg`); err != nil {
		t.Fatal(err)
	}
	// An UPDATE matching zero rows mutates nothing.
	if _, err := s.Exec(`UPDATE pg SET alias = 'x' WHERE name = 'nosuchop'`); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("hooks fired %d times on non-mutations", fired)
	}
}

// TestStoreConcurrentAccess exercises the store's internal locking: readers
// (lookups, composes) race with POOL writers; run with -race.
func TestStoreConcurrentAccess(t *testing.T) {
	s := NewSeededStore()
	s.OnMutation(func(Mutation) {})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch g % 3 {
				case 0:
					if _, err := s.Index().Lookup("pg", "hashjoin"); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := s.Index().ComposeTemplate("pg", []string{"hash", "hashjoin"}, nil); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := s.Exec(`UPDATE pg SET desc = 'sort the rows of $R1$' WHERE name = 'sort'`); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
