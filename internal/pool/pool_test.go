package pool

import (
	"reflect"
	"strings"
	"testing"
)

func TestCreateAndLookup(t *testing.T) {
	s := NewStore()
	// The paper's §4.2 CREATE example, verbatim (modulo whitespace).
	_, err := s.Exec(`CREATE POPERATOR hashjoin FOR pg
		(ALIAS = null,
		TYPE = 'binary',
		DEFN = null,
		DESC = 'perform hash join ',
		COND = 'true',
		TARGET = null)`)
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Index().Lookup("pg", "hashjoin")
	if err != nil {
		t.Fatal(err)
	}
	if o.Type != "binary" || !o.Cond || o.Alias != "" || len(o.Descs) != 1 {
		t.Errorf("object = %+v", o)
	}
	if o.Descs[0] != "perform hash join" {
		t.Errorf("desc = %q", o.Descs[0])
	}
	if o.DisplayName() != "hashjoin" {
		t.Errorf("display = %q", o.DisplayName())
	}
}

func TestCreateValidatesOperatorName(t *testing.T) {
	s := NewStore()
	_, err := s.Exec(`CREATE POPERATOR flying_join FOR pg (TYPE = 'binary', DESC = 'x')`)
	if err == nil || !strings.Contains(err.Error(), "not a physical operator") {
		t.Errorf("err = %v", err)
	}
	_, err = s.Exec(`CREATE POPERATOR hashjoin FOR oracle (TYPE = 'binary', DESC = 'x')`)
	if err == nil || !strings.Contains(err.Error(), "unknown source") {
		t.Errorf("err = %v", err)
	}
}

func TestCreateValidatesAttrs(t *testing.T) {
	s := NewStore()
	if _, err := s.Exec(`CREATE POPERATOR hashjoin FOR pg (TYPE = 'ternary', DESC = 'x')`); err == nil {
		t.Error("bad TYPE accepted")
	}
	if _, err := s.Exec(`CREATE POPERATOR hashjoin FOR pg (TYPE = 'binary')`); err == nil {
		t.Error("missing DESC accepted")
	}
	if _, err := s.Exec(`CREATE POPERATOR hash FOR pg (TYPE = 'unary', DESC = 'x', TARGET = 'hashjoin')`); err == nil {
		t.Error("dangling TARGET accepted")
	}
}

func TestDuplicateRules(t *testing.T) {
	s := NewSeededStore()
	// Exact duplicate rejected.
	if _, err := s.Exec(`CREATE POPERATOR hashjoin FOR pg (TYPE = 'binary', DESC = 'x', COND = 'true')`); err == nil {
		t.Error("duplicate accepted")
	}
	// Same name with a different target allowed (sort appears twice already).
	targets := s.Index().AuxiliaryTargets("pg")
	if !targets["sort"]["mergejoin"] || !targets["sort"]["groupaggregate"] {
		t.Errorf("sort targets = %v", targets["sort"])
	}
	if !targets["hash"]["hashjoin"] {
		t.Errorf("hash targets = %v", targets["hash"])
	}
}

func TestSelectDefn(t *testing.T) {
	s := NewSeededStore()
	// Paper example: SELECT defn FROM pg WHERE name = 'zzjoin' (on db2 here).
	r, err := s.Exec(`SELECT defn FROM db2 WHERE name = 'zzjoin'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || !strings.Contains(r.Rows[0][0], "zigzag") {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestSelectLike(t *testing.T) {
	s := NewSeededStore()
	// Paper example: SELECT * FROM pg WHERE name LIKE '%join'.
	r, err := s.Exec(`SELECT * FROM pg WHERE name LIKE '%join'`)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, o := range r.Objects {
		names[o.Name] = true
	}
	for _, want := range []string{"hashjoin", "mergejoin"} {
		if !names[want] {
			t.Errorf("missing %s in %v", want, names)
		}
	}
	if names["seqscan"] {
		t.Error("seqscan should not match %join")
	}
}

func TestSelectDescJoinsPDesc(t *testing.T) {
	s := NewSeededStore()
	r, err := s.Exec(`SELECT desc FROM pg WHERE name = 'hashjoin'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0] != "perform hash join" {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestSelectCrossSourceJoin(t *testing.T) {
	s := NewSeededStore()
	// Operators sharing a name across pg and sqlserver.
	r, err := s.Exec(`SELECT pg.name FROM pg, sqlserver WHERE pg.name = sqlserver.name`)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, row := range r.Rows {
		found[row[0]] = true
	}
	if !found["mergejoin"] || !found["sort"] {
		t.Errorf("cross-source join = %v", found)
	}
}

func TestComposeSingle(t *testing.T) {
	s := NewSeededStore()
	// Paper: COMPOSE hash FROM pg  ->  "hash $R1$".
	r, err := s.Exec(`COMPOSE hash FROM pg`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Template != "hash $R1$" {
		t.Errorf("template = %q", r.Template)
	}
}

func TestComposePairMatchesPaper(t *testing.T) {
	s := NewSeededStore()
	// Paper: COMPOSE hash, hashjoin FROM pg USING hashjoin.desc = '...'
	r, err := s.Exec(`COMPOSE hash, hashjoin FROM pg USING hashjoin.desc = 'perform hash join '`)
	if err != nil {
		t.Fatal(err)
	}
	want := "hash $R1$ and perform hash join on $R2$ and $R1$ on condition $cond$"
	if r.Template != want {
		t.Errorf("template:\n  got  %q\n  want %q", r.Template, want)
	}
}

func TestComposeOrderEnforced(t *testing.T) {
	s := NewSeededStore()
	// The composition operator is not commutative: critical first is an error.
	if _, err := s.Exec(`COMPOSE hashjoin, hash FROM pg`); err == nil {
		t.Error("reversed compose accepted")
	}
	if _, err := s.Exec(`COMPOSE seqscan, hashjoin FROM pg`); err == nil {
		t.Error("non-auxiliary pair accepted")
	}
}

func TestComposeUnknownUsing(t *testing.T) {
	s := NewSeededStore()
	if _, err := s.Exec(`COMPOSE hashjoin FROM pg USING hashjoin.desc = 'nonexistent'`); err == nil {
		t.Error("unknown USING desc accepted")
	}
}

func TestUpdateDefn(t *testing.T) {
	s := NewSeededStore()
	// Paper: UPDATE pg SET defn = '...' WHERE name = 'hashjoin'.
	r, err := s.Exec(`UPDATE pg SET defn = 'a type of join algorithm...' WHERE name = 'hashjoin'`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 1 {
		t.Fatalf("affected = %d", r.Affected)
	}
	o, _ := s.Index().Lookup("pg", "hashjoin")
	if o.Defn != "a type of join algorithm..." {
		t.Errorf("defn = %q", o.Defn)
	}
}

func TestUpdateTransferAcrossSources(t *testing.T) {
	s := NewSeededStore()
	// Paper: transfer hash join description from PostgreSQL to DB2.
	r, err := s.Exec(`UPDATE db2
		SET desc = (SELECT desc FROM pg WHERE pg.name = 'hashjoin')
		WHERE db2.name = 'hsjoin'`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 1 {
		t.Fatalf("affected = %d", r.Affected)
	}
	o, _ := s.Index().Lookup("db2", "hsjoin")
	if len(o.Descs) != 1 || o.Descs[0] != "perform hash join" {
		t.Errorf("descs = %v", o.Descs)
	}
}

func TestUpdateWithReplace(t *testing.T) {
	s := NewSeededStore()
	// Paper: derive the nested loop description from hash join via REPLACE.
	_, err := s.Exec(`UPDATE pg
		SET desc = REPLACE((SELECT desc FROM pg AS pg2
		WHERE pg2.name = 'hashjoin'), 'hash', 'nested loop ')
		WHERE pg.name = 'nestedloop'`)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := s.Index().Lookup("pg", "nestedloop")
	if len(o.Descs) != 1 || !strings.Contains(o.Descs[0], "nested loop") {
		t.Errorf("descs = %v", o.Descs)
	}
}

func TestUpdateNoMatch(t *testing.T) {
	s := NewSeededStore()
	r, err := s.Exec(`UPDATE pg SET defn = 'x' WHERE name = 'unique' AND alias = 'nope'`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 0 {
		t.Errorf("affected = %d, want 0", r.Affected)
	}
}

func TestUpdateForbiddenAttrs(t *testing.T) {
	s := NewSeededStore()
	for _, stmt := range []string{
		`UPDATE pg SET oid = '9' WHERE name = 'unique'`,
		`UPDATE pg SET source = 'db2' WHERE name = 'unique'`,
		`UPDATE pg SET bogus = 'x' WHERE name = 'unique'`,
	} {
		if _, err := s.Exec(stmt); err == nil {
			t.Errorf("%s: expected error", stmt)
		}
	}
}

// TestUpdateChecksWhatCreateChecks: an UPDATE may not store what CREATE
// would reject — a name outside the source's vocabulary, a duplicate
// (name, target) pair, a bad TYPE or COND — and a rejected UPDATE changes
// nothing and fires no hook.
func TestUpdateChecksWhatCreateChecks(t *testing.T) {
	s := NewSeededStore()
	fired := 0
	s.OnMutation(func(Mutation) { fired++ })
	before := s.Index().Objects("pg")
	for _, stmt := range []string{
		`UPDATE pg SET name = 'flying_join' WHERE name = 'hashjoin'`,
		`UPDATE pg SET name = 'seqscan' WHERE name = 'indexscan'`,
		`UPDATE pg SET type = 'ternary' WHERE name = 'hashjoin'`,
		`UPDATE pg SET cond = 'maybe' WHERE name = 'hashjoin'`,
		// The check precedes the write even when an earlier SET is valid.
		`UPDATE pg SET desc = 'x', type = 'ternary' WHERE name = 'hashjoin'`,
		// Renaming several objects to one name duplicates among themselves.
		`UPDATE pg SET name = 'mergejoin' WHERE type = 'binary'`,
	} {
		if _, err := s.Exec(stmt); err == nil {
			t.Errorf("%s: accepted", stmt)
		}
	}
	if !reflect.DeepEqual(s.Index().Objects("pg"), before) {
		t.Error("a rejected UPDATE changed the store")
	}
	if fired != 0 {
		t.Errorf("rejected UPDATEs fired %d hooks", fired)
	}
	// Renaming an object to its own name duplicates nothing.
	if _, err := s.Exec(`UPDATE pg SET name = 'sort' WHERE name = 'sort'`); err != nil {
		t.Error(err)
	}
}

func TestParseErrors(t *testing.T) {
	s := NewStore()
	for _, stmt := range []string{
		"",
		"DROP POPERATOR x",
		"CREATE POPERATOR FOR pg (TYPE='unary', DESC='x')",
		"CREATE POPERATOR seqscan FOR pg TYPE='unary'",
		"SELECT FROM pg",
		"COMPOSE a, b, c FROM pg",
		"COMPOSE hash FROM pg USING hash.alias = 'x'",
		"UPDATE pg SET",
		"SELECT name FROM pg WHERE name 'x'",
		"SELECT name FROM pg WHERE name = 'unterminated",
	} {
		if _, err := s.Exec(stmt); err == nil {
			t.Errorf("Exec(%q): expected error", stmt)
		}
	}
}

func TestSeedCoversEngineVocabulary(t *testing.T) {
	s := NewSeededStore()
	// Every PostgreSQL operator the substrate engine can emit must carry a
	// description, or RULE-LANTERN would fail on some plan.
	for _, name := range []string{
		"seqscan", "indexscan", "hash", "hashjoin", "mergejoin", "nestedloop",
		"sort", "materialize", "aggregate", "hashaggregate", "groupaggregate",
		"unique", "limit", "result",
	} {
		o, err := s.Index().Lookup("pg", name)
		if err != nil {
			t.Errorf("pg.%s missing: %v", name, err)
			continue
		}
		if len(o.Descs) == 0 {
			t.Errorf("pg.%s has no description", name)
		}
	}
	for _, name := range []string{
		"tablescan", "indexseek", "hashmatch", "mergejoin", "nestedloops",
		"sort", "streamaggregate", "hashmatchaggregate", "distinctsort", "top",
		"tablespool", "constantscan",
	} {
		if _, err := s.Index().Lookup("sqlserver", name); err != nil {
			t.Errorf("sqlserver.%s missing: %v", name, err)
		}
	}
}

func TestAliasesInSeed(t *testing.T) {
	s := NewSeededStore()
	o, _ := s.Index().Lookup("db2", "zzjoin")
	if o.DisplayName() != "zigzag join" {
		t.Errorf("zzjoin display = %q", o.DisplayName())
	}
	o, _ = s.Index().Lookup("pg", "seqscan")
	if o.DisplayName() != "sequential scan" {
		t.Errorf("seqscan display = %q", o.DisplayName())
	}
}

func TestFillTemplate(t *testing.T) {
	cases := []struct {
		tpl  string
		vals map[string]string
		want string
	}{
		{
			"perform sequential scan on $R1$ and filtering on $cond$",
			map[string]string{"R1": "publication", "cond": "(title LIKE '%July%')"},
			"perform sequential scan on publication and filtering on (title LIKE '%July%')",
		},
		{
			"perform sequential scan on $R1$ and filtering on $cond$",
			map[string]string{"R1": "inproceedings"},
			"perform sequential scan on inproceedings",
		},
		{
			"hash $R1$ and perform hash join on $R2$ and $R1$ on condition $cond$",
			map[string]string{"R1": "T1", "R2": "inproceedings", "cond": "((i.key) = (p.key))"},
			"hash T1 and perform hash join on inproceedings and T1 on condition ((i.key) = (p.key))",
		},
		{
			"perform aggregate on $R1$ with grouping on attribute $group$ and filtering on $cond$",
			map[string]string{"R1": "T2", "group": "i.proceeding_key"},
			"perform aggregate on T2 with grouping on attribute i.proceeding_key",
		},
		{
			"perform aggregate on $R1$ with grouping on attribute $group$ and filtering on $cond$",
			map[string]string{"R1": "T2"},
			"perform aggregate on T2",
		},
		{
			"perform index scan on $R1$ using index on $index$ and filtering on $cond$",
			map[string]string{"R1": "customer", "index": "c_custkey", "cond": "((c_custkey) = (7))"},
			"perform index scan on customer using index on c_custkey and filtering on ((c_custkey) = (7))",
		},
		{
			"perform merge join on $R2$ and $R1$ on condition $cond$",
			map[string]string{"R1": "T1", "R2": "T2"},
			"perform merge join on T2 and T1",
		},
		{
			"no placeholders here",
			nil,
			"no placeholders here",
		},
	}
	for _, c := range cases {
		got := FillTemplate(c.tpl, c.vals)
		if got != c.want {
			t.Errorf("FillTemplate(%q):\n  got  %q\n  want %q", c.tpl, got, c.want)
		}
	}
}

func TestFillTemplateValueWithDollar(t *testing.T) {
	got := FillTemplate("filtering on $cond$", map[string]string{"cond": "(price > $100$)"})
	if !strings.Contains(got, "$100$") {
		t.Errorf("substituted dollar mangled: %q", got)
	}
}

func TestRegisterSourceAndSources(t *testing.T) {
	s := NewStore()
	s.RegisterSource("oracle", "tableaccessfull")
	found := false
	for _, src := range s.Sources() {
		if src == "oracle" {
			found = true
		}
	}
	if !found {
		t.Errorf("sources = %v", s.Sources())
	}
	if _, err := s.Exec(`CREATE POPERATOR tableaccessfull FOR oracle (TYPE = 'unary', DESC = 'perform full table scan on $R1$')`); err != nil {
		t.Error(err)
	}
}

func TestComposeTemplateAPI(t *testing.T) {
	s := NewSeededStore()
	tpl, err := s.Index().ComposeTemplate("pg", []string{"sort", "groupaggregate"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tpl, "sort $R1$ and perform aggregate") {
		t.Errorf("template = %q", tpl)
	}
}

func TestDropPOperator(t *testing.T) {
	s := NewSeededStore()
	r, err := s.Exec("DROP POPERATOR unique FOR pg")
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 1 {
		t.Fatalf("affected = %d", r.Affected)
	}
	if _, err := s.Index().Lookup("pg", "unique"); err == nil {
		t.Error("unique still present after drop")
	}
	// Descriptions must be gone too.
	res, err := s.Exec("SELECT desc FROM pg WHERE name = 'unique'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("orphaned descriptions: %v", res.Rows)
	}
	// Dropping both sort objects at once works (same name).
	r, err = s.Exec("DROP POPERATOR sort FOR pg")
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 2 {
		t.Errorf("sort drop affected = %d, want 2", r.Affected)
	}
}

func TestDropRejectsTargetedOperator(t *testing.T) {
	s := NewSeededStore()
	// hash targets hashjoin: dropping hashjoin must fail.
	if _, err := s.Exec("DROP POPERATOR hashjoin FOR pg"); err == nil {
		t.Error("dropping a targeted operator should fail")
	}
	// Dropping the auxiliary itself is fine.
	if _, err := s.Exec("DROP POPERATOR hash FOR pg"); err != nil {
		t.Error(err)
	}
}

func TestDropMissing(t *testing.T) {
	s := NewSeededStore()
	if _, err := s.Exec("DROP POPERATOR zzjoin FOR pg"); err == nil {
		t.Error("expected error for unknown operator")
	}
}
