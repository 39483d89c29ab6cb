package plan_test

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"testing"

	"lantern/internal/engine"
	"lantern/internal/plan"
	"lantern/internal/plantest"
)

// writeCanonicalFmt is the fmt-based canonical writer AppendCanonical
// replaced, kept as the reference for its bytes: the serving layer's
// fingerprints, and the cache entries and recordings keyed by them,
// depend on those bytes not changing.
func writeCanonicalFmt(n *plan.Node, w io.Writer) {
	if n == nil {
		return
	}
	fmt.Fprintf(w, "(%s\x1f%s", n.Source, n.Name)
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			if k == plan.AttrTimeMs {
				continue
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "\x1f%s=%s", k, n.Attrs[k])
		}
	}
	for _, c := range n.Children {
		writeCanonicalFmt(c, w)
	}
	io.WriteString(w, ")")
}

func checkCanonical(t *testing.T, label string, n *plan.Node) {
	t.Helper()
	var want bytes.Buffer
	writeCanonicalFmt(n, &want)
	prefix := []byte("prefix\x00")
	got := n.AppendCanonical(prefix)
	if !bytes.Equal(got[:len(prefix)], []byte("prefix\x00")) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
		t.Errorf("%s: AppendCanonical wrote\n%q\nthe fmt writer\n%q", label, got, want.Bytes())
	}
	var w bytes.Buffer
	n.WriteCanonical(&w)
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Errorf("%s: WriteCanonical wrote\n%q\nthe fmt writer\n%q", label, w.Bytes(), want.Bytes())
	}
}

// TestAppendCanonicalBytes: AppendCanonical writes the bytes the fmt
// writer wrote, on the bridged trees of the corpus and TPC-H queries with
// and without actuals, on every corpus document's parsed tree, and on
// attribute values holding the serialization's own separators and
// non-ASCII text.
func TestAppendCanonicalBytes(t *testing.T) {
	eng := corpusEngine(t)
	for _, q := range engineQueries() {
		qr, err := eng.QueryInstrumented(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		checkCanonical(t, q.Name, engine.ToPlanNode(qr.Plan))
		actuals := engine.ToPlanNodeStats(qr.Plan, qr.Stats)
		if actuals.Attr(plan.AttrTimeMs) == "" {
			t.Fatalf("%s: the bridged actuals carry no %s to leave out", q.Name, plan.AttrTimeMs)
		}
		checkCanonical(t, q.Name+" actuals", actuals)
	}
	for _, e := range plantest.Entries(t) {
		tree, err := plan.Parse(e.Dialect, e.Doc)
		if err != nil {
			t.Fatalf("%s/%s: %v", e.Dialect, e.Name, err)
		}
		checkCanonical(t, e.Dialect+"/"+e.Name, tree)
	}

	odd := &plan.Node{Name: "Hash Join", Source: "pg"}
	odd.SetAttr(plan.AttrJoinCond, "((a.x) = (b.y)) AND (c = 'x\x1fy=z)(')")
	odd.SetAttr(plan.AttrFilter, "(name = 'Zoë — 東京')")
	odd.SetAttr("k=ey\x1f", "v\x00al")
	odd.SetAttr(plan.AttrTimeMs, "1.250")
	odd.Children = []*plan.Node{{Name: "Seq Scan (x)", Source: "p\x1fg"}, {Name: "Résumé", Source: "pg"}}
	checkCanonical(t, "separators", odd)

	// More attributes than AppendCanonical sorts on its stack.
	wide := &plan.Node{Name: "Wide", Source: "native"}
	for i := 40; i > 0; i-- {
		wide.SetAttr("k"+strconv.Itoa(i), strconv.Itoa(i))
	}
	checkCanonical(t, "wide", wide)

	checkCanonical(t, "no attributes", &plan.Node{Name: "Result"})
	if got := (*plan.Node)(nil).AppendCanonical([]byte("x")); string(got) != "x" {
		t.Errorf("a nil tree appended %q", got[1:])
	}
}
