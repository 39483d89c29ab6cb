package service

import (
	"crypto/sha256"
	"io"
	"strings"
	"testing"

	"lantern/internal/plan"
)

// joinTree builds a small hash-join plan shaped like the paper's Example
// 5.1, with a configurable join condition.
func joinTree(cond string) *plan.Node {
	scan1 := &plan.Node{Name: "Seq Scan", Source: "pg", Rows: 100, Cost: 10}
	scan1.SetAttr(plan.AttrRelation, "customer")
	scan2 := &plan.Node{Name: "Seq Scan", Source: "pg", Rows: 500, Cost: 50}
	scan2.SetAttr(plan.AttrRelation, "orders")
	hash := &plan.Node{Name: "Hash", Source: "pg", Children: []*plan.Node{scan1}}
	join := &plan.Node{Name: "Hash Join", Source: "pg", Children: []*plan.Node{scan2, hash}}
	join.SetAttr(plan.AttrJoinCond, cond)
	return join
}

func TestFingerprintStable(t *testing.T) {
	fp1, ops1 := PlanFingerprint(joinTree("c_custkey = o_custkey"), Options{})
	fp2, ops2 := PlanFingerprint(joinTree("c_custkey = o_custkey"), Options{})
	if fp1 != fp2 {
		t.Fatalf("same plan produced different fingerprints: %s vs %s", fp1, fp2)
	}
	if len(ops1) != len(ops2) {
		t.Fatalf("operator sets differ: %v vs %v", ops1, ops2)
	}
	want := []string{"hash", "hashjoin", "seqscan"}
	if len(ops1) != len(want) {
		t.Fatalf("operator set = %v, want %v", ops1, want)
	}
	for i, op := range want {
		if ops1[i] != op {
			t.Fatalf("operator set = %v, want %v (sorted canonical)", ops1, want)
		}
	}
}

func TestFingerprintChangedCond(t *testing.T) {
	fp1, _ := PlanFingerprint(joinTree("c_custkey = o_custkey"), Options{})
	fp2, _ := PlanFingerprint(joinTree("c_nationkey = o_custkey"), Options{})
	if fp1 == fp2 {
		t.Fatal("changed join condition must change the fingerprint")
	}
}

func TestFingerprintChangedStructure(t *testing.T) {
	tree := joinTree("a = b")
	fp1, _ := PlanFingerprint(tree, Options{})
	wrapped := &plan.Node{Name: "Limit", Source: "pg", Children: []*plan.Node{joinTree("a = b")}}
	fp2, _ := PlanFingerprint(wrapped, Options{})
	if fp1 == fp2 {
		t.Fatal("changed tree structure must change the fingerprint")
	}
}

func TestFingerprintIgnoresEstimates(t *testing.T) {
	t1 := joinTree("a = b")
	t2 := joinTree("a = b")
	t2.Rows = 1e9
	t2.Cost = 1e9
	t2.Children[0].Rows = 42
	fp1, _ := PlanFingerprint(t1, Options{})
	fp2, _ := PlanFingerprint(t2, Options{})
	if fp1 != fp2 {
		t.Fatal("cardinality/cost estimates must not change the fingerprint")
	}
}

func TestFingerprintOptions(t *testing.T) {
	tree := joinTree("a = b")
	doc, _ := PlanFingerprint(tree, Options{})
	docExplicit, _ := PlanFingerprint(tree, Options{Presentation: PresentDocument})
	treeView, _ := PlanFingerprint(tree, Options{Presentation: PresentTree})
	if doc != docExplicit {
		t.Fatal("empty presentation must equal explicit document presentation")
	}
	if doc == treeView {
		t.Fatal("tree presentation must change the fingerprint")
	}
}

func TestRequestKeyDistinguishes(t *testing.T) {
	base := requestKey("pg", "sql\x00SELECT 1", Options{})
	if requestKey("pg", "sql\x00SELECT 2", Options{}) == base {
		t.Fatal("payload must change the request key")
	}
	if requestKey("sqlserver", "sql\x00SELECT 1", Options{}) == base {
		t.Fatal("source must change the request key")
	}
	if requestKey("pg", "sql\x00SELECT 1", Options{Presentation: PresentTree}) == base {
		t.Fatal("options must change the request key")
	}
	if requestKey("pg", "sql\x00SELECT 1", Options{}) != base {
		t.Fatal("identical request must reproduce the key")
	}
}

// TestRequestKeyBytes: requestKey hashes the same bytes the streamed
// digest it replaced did, so no front-index key changes, for a short SQL
// text and for a plan document larger than its stack buffer; the SQL text
// costs no allocation.
func TestRequestKeyBytes(t *testing.T) {
	streamed := func(source, payload string, opts Options) Fingerprint {
		h := sha256.New()
		for _, s := range []string{"lantern-req-fp-v1\x00", source, "\x00", opts.canonical(), "\x00", payload} {
			io.WriteString(h, s)
		}
		var fp Fingerprint
		copy(fp[:], h.Sum(nil))
		return fp
	}
	doc := `{"Plan": {"Node Type": "Seq Scan", "Relation Name": "customer"}}` + strings.Repeat(" ", 6<<10)
	for _, c := range []struct{ source, payload string }{
		{"pg", qScan},
		{"pg", doc},
		{"", ""},
	} {
		for _, opts := range []Options{{}, {Presentation: PresentTree}} {
			if got, want := requestKey(c.source, c.payload, opts), streamed(c.source, c.payload, opts); got != want {
				t.Errorf("requestKey(%q, %d-byte payload, %+v) = %s, want %s", c.source, len(c.payload), opts, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { requestKey("pg", qScan, Options{}) }); allocs != 0 {
		t.Errorf("requestKey of a SQL text allocates %.0f times, want 0", allocs)
	}
}
