package service

import (
	"context"
	"slices"
	"testing"

	"lantern/internal/core"
	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/plan"
	"lantern/internal/plantest"
	"lantern/internal/pool"
	"lantern/internal/qa"
)

// TestSQLNarrationMatchesExplainAndParse: in every dialect the engine
// emits, Do's narrate responses for SQL (document and tree presentation)
// and its qa answers equal those computed in process from the tree
// ExplainAndParse parses from the engine's EXPLAIN document: text, steps,
// fingerprint, operators and dialect.
func TestSQLNarrationMatchesExplainAndParse(t *testing.T) {
	eng := engine.NewDefault()
	if err := datasets.LoadTPCH(eng, 0.01, 1); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, pool.NewSeededStore(), Config{CacheBytes: -1})
	t.Cleanup(srv.Close)
	store := pool.NewSeededStore()
	rl := core.NewRuleLantern(store)

	queries := slices.Clone(plantest.CorpusQueries)
	for _, w := range datasets.TPCHWorkload() {
		queries = append(queries, struct{ Name, SQL string }{w.Name, w.SQL})
	}
	questions := []string{
		"how many steps are there?",
		"which tables are scanned?",
		"what is the most expensive step?",
		"what does step 2 do?",
		"how many rows does it return?",
	}
	for _, dialect := range plan.Dialects() {
		if d, _ := plan.Lookup(dialect); d.EngineFormat == "" {
			continue
		}
		for _, q := range queries {
			label := dialect + " " + q.Name
			tree, _, err := plan.ExplainAndParse(dialect, func(format string) (string, error) {
				r, err := eng.Exec("EXPLAIN (FORMAT " + format + ") " + q.SQL)
				if err != nil {
					return "", err
				}
				return r.Plan, nil
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			lt, err := rl.BuildLOT(tree)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			nar, err := rl.NarrateLOT(lt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			steps := make([]Step, len(nar.Steps))
			for i, st := range nar.Steps {
				steps[i] = Step{Text: st.Text, Identifier: st.Identifier}
			}
			for _, pres := range []string{PresentDocument, PresentTree} {
				opts := Options{Presentation: pres}
				got := mustDo(t, srv, &Request{Op: OpNarrate, SQL: q.SQL, Dialect: dialect, Options: opts}).Narrate
				text := nar.Text()
				if pres == PresentTree {
					text = core.PresentTree(lt, nar)
				}
				fp, ops := PlanFingerprint(tree, opts)
				switch {
				case got.Text != text:
					t.Errorf("%s %s: text\n%s\nwant\n%s", label, pres, got.Text, text)
				case !slices.Equal(got.Steps, steps):
					t.Errorf("%s %s: steps %+v, want %+v", label, pres, got.Steps, steps)
				case got.Fingerprint != fp.String():
					t.Errorf("%s %s: fingerprint %s, want %s", label, pres, got.Fingerprint, fp)
				case !slices.Equal(got.Operators, ops):
					t.Errorf("%s %s: operators %q, want %q", label, pres, got.Operators, ops)
				case got.Dialect != tree.Source || got.Source != tree.Source:
					t.Errorf("%s %s: dialect %q source %q, want %q", label, pres, got.Dialect, got.Source, tree.Source)
				}
			}
			answerer, err := qa.New(store, tree)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, question := range questions {
				want, wantErr := answerer.Answer(question)
				resp, err := srv.Do(context.Background(), &Request{Op: OpQA, SQL: q.SQL, Dialect: dialect, Question: question})
				switch {
				case (err != nil) != (wantErr != nil):
					t.Errorf("%s %q: err = %v, want %v", label, question, err, wantErr)
				case err == nil && resp.QA.Answer != want:
					t.Errorf("%s %q: answer %q, want %q", label, question, resp.QA.Answer, want)
				}
			}
		}
	}
}

// TestSQLInDocumentOnlyDialect: SQL narrated or asked about in a dialect
// registered without an engine format is a bad request, refused before
// the SQL is read.
func TestSQLInDocumentOnlyDialect(t *testing.T) {
	if err := plan.RegisterDialect("service-doc-only", func(string) (*plan.Node, error) {
		return &plan.Node{Name: "Result", Source: "service-doc-only"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{})
	for _, sql := range []string{qScan, "SELECT FROM WHERE"} {
		for _, req := range []*Request{
			{Op: OpNarrate, SQL: sql, Dialect: "service-doc-only"},
			{Op: OpQA, SQL: sql, Dialect: "service-doc-only", Question: "how many steps are there?"},
		} {
			_, err := srv.Do(context.Background(), req)
			info := AsErrorInfo(err)
			if info == nil || info.Code != CodeBadRequest {
				t.Errorf("%s %q: err = %v, want %s", req.Op, sql, err, CodeBadRequest)
				continue
			}
			_, want := plan.FromEngine("service-doc-only", &plan.Node{})
			if info.Message != ErrBadRequest.Error()+": "+want.Error() {
				t.Errorf("%s %q: message %q, want FromEngine's %q", req.Op, sql, info.Message, want)
			}
		}
	}
}
