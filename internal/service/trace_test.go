package service

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/obs"
	"lantern/internal/plan"
)

func doTraced(t *testing.T, srv *Server, req *Request) *Response {
	t.Helper()
	req.Debug = DebugTrace
	resp, err := srv.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do(%s): %v", req.Op, err)
	}
	if resp.Trace == nil || resp.Trace.Root == nil {
		t.Fatalf("debug=trace response carries no trace: %+v", resp)
	}
	return resp
}

func childNames(sp *obs.SpanInfo) []string {
	names := make([]string, len(sp.Children))
	for i, c := range sp.Children {
		names[i] = c.Name
	}
	return names
}

func findChild(sp *obs.SpanInfo, name string) *obs.SpanInfo {
	for _, c := range sp.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// TestTraceNarrateSpanStability pins the span names and ordering of the
// narrate pipeline, cold and cached — the same contract the corpus case
// asserts over HTTP.
func TestTraceNarrateSpanStability(t *testing.T) {
	srv := newTestServer(t, Config{})

	cold := doTraced(t, srv, &Request{Op: OpNarrate, SQL: qScan})
	root := cold.Trace.Root
	if root.Name != "request" || root.Attrs["op"] != OpNarrate {
		t.Fatalf("root = %q attrs %v", root.Name, root.Attrs)
	}
	want := []string{"validate", "cache", "admission", "execute"}
	if got := childNames(root); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("cold narrate spans = %v, want %v", got, want)
	}
	exec := findChild(root, "execute")
	wantExec := []string{"resolve_plan", "narrate"}
	if got := childNames(exec); strings.Join(got, ",") != strings.Join(wantExec, ",") {
		t.Fatalf("execute spans = %v, want %v", got, wantExec)
	}

	hit := doTraced(t, srv, &Request{Op: OpNarrate, SQL: qScan})
	if !hit.Narrate.Cached {
		t.Fatal("second narrate was not a cache hit")
	}
	wantHit := []string{"validate", "cache"}
	if got := childNames(hit.Trace.Root); strings.Join(got, ",") != strings.Join(wantHit, ",") {
		t.Fatalf("cached narrate spans = %v, want %v", got, wantHit)
	}
}

// TestTraceQueryOperatorSpansMatchInstrumentation: the op:* spans under
// run_sql must report exactly the per-operator actuals the engine's
// iterator instrumentation measures — same shape, same rows, same loops
// as an out-of-band instrumented execution of the same SQL.
func TestTraceQueryOperatorSpansMatchInstrumentation(t *testing.T) {
	srv := newTestServer(t, Config{})
	resp := doTraced(t, srv, &Request{Op: OpQuery, SQL: qJoin})

	exec := findChild(resp.Trace.Root, "execute")
	if exec == nil {
		t.Fatalf("no execute span: %v", childNames(resp.Trace.Root))
	}
	wantExec := []string{"session_acquire", "run_sql", "bridge", "plan_cache", "narrate"}
	if got := childNames(exec); strings.Join(got, ",") != strings.Join(wantExec, ",") {
		t.Fatalf("query execute spans = %v, want %v", got, wantExec)
	}
	run := findChild(exec, "run_sql")
	if len(run.Children) != 1 {
		t.Fatalf("run_sql has %d operator roots, want 1", len(run.Children))
	}

	// Reference execution: same SQL, instrumented directly on a fresh
	// engine over the same dataset.
	eng := engine.NewDefault()
	if err := datasets.LoadTPCH(eng, 0.01, 1); err != nil {
		t.Fatalf("loading tpch: %v", err)
	}
	qr, err := eng.QueryInstrumented(qJoin)
	if err != nil {
		t.Fatalf("QueryInstrumented: %v", err)
	}
	ref := engine.ToPlanNodeStats(qr.Plan, qr.Stats)

	var compare func(sp *obs.SpanInfo, n *plan.Node)
	compare = func(sp *obs.SpanInfo, n *plan.Node) {
		if sp.Name != "op:"+n.Name {
			t.Fatalf("span %q vs operator %q", sp.Name, n.Name)
		}
		if got, want := sp.Attrs["rows"], n.Attr(plan.AttrActualRows); got != want {
			t.Errorf("%s: span rows = %q, instrumentation = %q", sp.Name, got, want)
		}
		if got, want := sp.Attrs["loops"], n.Attr(plan.AttrLoops); got != want {
			t.Errorf("%s: span loops = %q, instrumentation = %q", sp.Name, got, want)
		}
		if len(sp.Children) != len(n.Children) {
			t.Fatalf("%s: %d span children vs %d plan children", sp.Name, len(sp.Children), len(n.Children))
		}
		for i := range n.Children {
			compare(sp.Children[i], n.Children[i])
		}
	}
	compare(run.Children[0], ref)

	// The root operator's actual rows must equal the query's row count —
	// the spans report real execution, not estimates.
	rows, err := strconv.Atoi(run.Children[0].Attrs["rows"])
	if err != nil || rows != resp.Query.RowCount {
		t.Fatalf("root operator rows = %q, response row_count = %d", run.Children[0].Attrs["rows"], resp.Query.RowCount)
	}
}

func TestTraceIDPropagation(t *testing.T) {
	srv := newTestServer(t, Config{})
	pinned := doTraced(t, srv, &Request{Op: OpNarrate, SQL: qScan, TraceID: "client-trace-7"})
	if pinned.Trace.TraceID != "client-trace-7" {
		t.Fatalf("trace id = %q, want the client's", pinned.Trace.TraceID)
	}
	generated := doTraced(t, srv, &Request{Op: OpNarrate, SQL: qSort})
	if len(generated.Trace.TraceID) != 32 {
		t.Fatalf("generated trace id = %q, want 32 hex chars", generated.Trace.TraceID)
	}
}

func TestUnknownDebugFlagRejected(t *testing.T) {
	srv := newTestServer(t, Config{})
	_, err := srv.Do(context.Background(), &Request{Op: OpNarrate, SQL: qScan, Debug: "verbose"})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown debug flag: err = %v, want ErrBadRequest", err)
	}
}

// TestNoTraceWithoutDebug: without debug=trace (and without a slow-query
// log), responses carry no trace and the request never allocates one.
func TestNoTraceWithoutDebug(t *testing.T) {
	srv := newTestServer(t, Config{})
	req := &Request{Op: OpNarrate, SQL: qScan}
	resp, err := srv.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != nil {
		t.Fatal("response carries a trace without debug=trace")
	}
	if req.tr != nil {
		t.Fatal("request armed a trace without debug=trace or a slow log")
	}
}

// cachedDoAllocBudget pins the allocation count of the cached-narrate hot
// path through Do with tracing disabled. The budget is the path's
// pre-tracing cost (request normalization and the response envelope; cache
// keying hashes a stack buffer and allocates nothing); the nil-trace span
// calls must add zero allocations on top, so any regression here means
// tracing leaked onto the disabled hot path. It measured 5 with and
// without -race when set; hashing through a heap digest made it 13.
const cachedDoAllocBudget = 5

func TestDoCachedNarrateZeroAllocTracingDisabled(t *testing.T) {
	srv := newTestServer(t, Config{})
	req := &Request{Op: OpNarrate, SQL: qScan}
	if _, err := srv.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// Warmed: every subsequent Do is a front-index cache hit.
	got := testing.AllocsPerRun(200, func() {
		resp, err := srv.Do(context.Background(), req)
		if err != nil || !resp.Narrate.Cached {
			t.Fatalf("cached Do failed: %v", err)
		}
	})
	if got > cachedDoAllocBudget {
		t.Fatalf("cached narrate Do = %.1f allocs/op, budget %d — tracing must cost nothing when disabled",
			got, cachedDoAllocBudget)
	}
}

// TestTraceTimeoutSafety: a request that times out while its worker still
// runs must not race the trace — the error path leaves req.tr to the
// worker. Run with -race to make this meaningful.
func TestTraceTimeoutSafety(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, RequestTimeout: 30 * time.Second})
	// A cross join that reads every column, so the join packs and the
	// projector copies them all: slow enough to outlive the 1 ms deadline.
	slow := `SELECT * FROM customer c, orders o WHERE c.c_nationkey < 100`
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := srv.Do(ctx, &Request{Op: OpQuery, SQL: slow, Debug: DebugTrace, MaxRows: -1})
	if err == nil {
		t.Skip("query finished inside 1ms; nothing to race")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	// Let the worker finish writing its spans before the server closes.
	srv.Close()
}
