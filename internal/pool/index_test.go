package pool

import (
	"reflect"
	"strings"
	"testing"
)

// TestReadYourWrites: once Exec returns from a write, the next Lookup,
// Objects, AuxiliaryTargets and ComposeTemplate see it — the index is
// published before Exec returns.
func TestReadYourWrites(t *testing.T) {
	s := NewStore()
	compose := func(names ...string) string {
		t.Helper()
		tpl, err := s.Index().ComposeTemplate("pg", names, nil)
		if err != nil {
			t.Fatalf("COMPOSE %v: %v", names, err)
		}
		return tpl
	}
	names := func() []string {
		var out []string
		for _, o := range s.Index().Objects("pg") {
			out = append(out, o.Name+"="+o.DisplayName()+":"+strings.Join(o.Descs, "|"))
		}
		return out
	}

	s.MustExec(`CREATE POPERATOR hashjoin FOR pg (TYPE = 'binary', DESC = 'perform hash join', COND = 'true')`)
	if o, err := s.Index().Lookup("pg", "hashjoin"); err != nil || o.Type != "binary" {
		t.Fatalf("after CREATE: Lookup = %+v, %v", o, err)
	}
	if got := compose("hashjoin"); got != "perform hash join on $R2$ and $R1$ on condition $cond$" {
		t.Errorf("after CREATE: COMPOSE = %q", got)
	}
	s.MustExec(`CREATE POPERATOR hash FOR pg (TYPE = 'unary', DESC = 'hash $R1$', TARGET = 'hashjoin')`)
	if !s.Index().AuxiliaryTargets("pg")["hash"]["hashjoin"] {
		t.Errorf("after CREATE: edges = %v", s.Index().AuxiliaryTargets("pg"))
	}
	if got := compose("hash", "hashjoin"); !strings.HasPrefix(got, "hash $R1$ and perform hash join") {
		t.Errorf("after CREATE: COMPOSE pair = %q", got)
	}

	s.MustExec(`UPDATE pg SET desc = 'join by hashing' WHERE name = 'hashjoin'`)
	if o, _ := s.Index().Lookup("pg", "hashjoin"); !reflect.DeepEqual(o.Descs, []string{"join by hashing"}) {
		t.Errorf("after UPDATE desc: Descs = %q", o.Descs)
	}
	if got := compose("hashjoin"); got != "join by hashing on $R2$ and $R1$ on condition $cond$" {
		t.Errorf("after UPDATE desc: COMPOSE = %q", got)
	}
	s.MustExec(`UPDATE pg SET alias = 'hash join' WHERE name = 'hashjoin'`)
	if o, _ := s.Index().Lookup("pg", "hashjoin"); o.DisplayName() != "hash join" {
		t.Errorf("after UPDATE alias: DisplayName = %q", o.DisplayName())
	}
	want := []string{"hashjoin=hash join:join by hashing", "hash=hash:hash $R1$"}
	if got := names(); !reflect.DeepEqual(got, want) {
		t.Errorf("after UPDATE: Objects = %q, want %q", got, want)
	}

	// Renaming the TARGET operator moves the edge: targets are stored by
	// OID and resolved to names when the index is built.
	s.MustExec(`UPDATE pg SET name = 'mergejoin' WHERE name = 'hashjoin'`)
	if _, err := s.Index().Lookup("pg", "hashjoin"); err == nil {
		t.Error("after rename: the old name still resolves")
	}
	if o, err := s.Index().Lookup("pg", "mergejoin"); err != nil || o.DisplayName() != "hash join" {
		t.Errorf("after rename: Lookup = %+v, %v", o, err)
	}
	if edges := s.Index().AuxiliaryTargets("pg"); !reflect.DeepEqual(edges, map[string]map[string]bool{"hash": {"mergejoin": true}}) {
		t.Errorf("after rename: edges = %v", edges)
	}
	if got := compose("hash", "mergejoin"); !strings.HasPrefix(got, "hash $R1$ and join by hashing") {
		t.Errorf("after rename: COMPOSE pair = %q", got)
	}

	s.MustExec(`DROP POPERATOR hash FOR pg`)
	if _, err := s.Index().Lookup("pg", "hash"); err == nil {
		t.Error("after DROP: hash still resolves")
	}
	if _, err := s.Index().ComposeTemplate("pg", []string{"hash"}, nil); err == nil {
		t.Error("after DROP: COMPOSE hash succeeded")
	}
	if edges := s.Index().AuxiliaryTargets("pg"); len(edges) != 0 {
		t.Errorf("after DROP: edges = %v", edges)
	}
	if got := names(); !reflect.DeepEqual(got, []string{"mergejoin=hash join:join by hashing"}) {
		t.Errorf("after DROP: Objects = %q", got)
	}
}

// TestComposeDrawSequence pins the description RNG: from a fresh store, an
// operator with three descriptions composes this 20-draw sequence, the one
// the store gave when every COMPOSE ran SQL under the store lock. The
// descriptions are held in ORDER BY descr order, which the draws index.
func TestComposeDrawSequence(t *testing.T) {
	s := NewStore()
	s.MustExec(`CREATE POPERATOR sort FOR pg (TYPE = 'unary',
		DESC = 'sort $R1$', DESC = 'order the rows of', DESC = 'arrange $R1$ by $sort$')`)
	const (
		a = "arrange $R1$ by $sort$"
		o = "order the rows of on $R1$"
		z = "sort $R1$"
	)
	want := []string{z, a, z, z, o, a, o, z, o, a, z, o, a, z, o, z, a, z, z, z}
	for i, w := range want {
		got, err := s.Index().ComposeTemplate("pg", []string{"sort"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("draw %d = %q, want %q", i, got, w)
		}
	}
}
