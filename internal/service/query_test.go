package service

// Tests for the /v1/query execute-and-narrate path: end-to-end narration
// with actuals, actuals-aware cache keying, POOL-mutation invalidation of
// native narrations, and request validation.

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"lantern/internal/pool"
)

func mustQuery(t testing.TB, s *Server, req *QueryRequest) *QueryResponse {
	t.Helper()
	resp, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatalf("Query(%q): %v", req.SQL, err)
	}
	return resp
}

// TestQueryEndToEnd: a TPC-H-shaped query executes, narrates with actual
// row counts, and reports its runtime outcome.
func TestQueryEndToEnd(t *testing.T) {
	srv := newTestServer(t, Config{})
	resp := mustQuery(t, srv, &QueryRequest{SQL: qJoin})
	if resp.Dialect != "native" {
		t.Errorf("dialect = %q, want native", resp.Dialect)
	}
	if !strings.Contains(resp.Text, "actually produced") {
		t.Errorf("narration lacks actuals:\n%s", resp.Text)
	}
	if !strings.Contains(resp.Text, "actually produced "+strconv.Itoa(resp.RowCount)+" row") {
		t.Errorf("narration does not mention the final actual row count %d:\n%s", resp.RowCount, resp.Text)
	}
	if resp.RowCount == 0 || len(resp.Columns) != 2 {
		t.Errorf("runtime outcome missing: count=%d columns=%v", resp.RowCount, resp.Columns)
	}
	if len(resp.Rows) == 0 || len(resp.Rows) > 10 {
		t.Errorf("echoed rows = %d, want 1..10", len(resp.Rows))
	}
	if resp.ElapsedMs <= 0 {
		t.Error("elapsed time not reported")
	}
	if resp.Cached {
		t.Error("first query must be a narration miss")
	}
}

// TestQueryCacheHit: repeating the query executes again (fresh elapsed,
// fresh rows) but answers the narration from the fingerprint cache.
func TestQueryCacheHit(t *testing.T) {
	srv := newTestServer(t, Config{})
	first := mustQuery(t, srv, &QueryRequest{SQL: qJoin})
	second := mustQuery(t, srv, &QueryRequest{SQL: qJoin})
	if !second.Cached {
		t.Fatal("repeat query should hit the narration cache")
	}
	if second.Text != first.Text {
		t.Error("cached narration text differs from the original")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Errorf("fingerprint changed across runs: %s vs %s (is wall time leaking into the key?)",
			first.Fingerprint, second.Fingerprint)
	}
	if second.RowCount != first.RowCount {
		t.Errorf("row count changed on static data: %d vs %d", first.RowCount, second.RowCount)
	}
}

// TestQueryFingerprintDistinctFromNarrate: the actuals-annotated query
// tree must not collide with the estimate-only narration of the same SQL —
// they render different texts, so sharing a cache entry would be a bug.
func TestQueryFingerprintDistinctFromNarrate(t *testing.T) {
	srv := newTestServer(t, Config{})
	nar := mustNarrate(t, srv, &NarrateRequest{SQL: qScan, Dialect: "native"})
	q := mustQuery(t, srv, &QueryRequest{SQL: qScan})
	if nar.Fingerprint == q.Fingerprint {
		t.Fatal("estimate-only and actuals-annotated plans share a fingerprint")
	}
	if q.Cached {
		t.Error("query must not be answered from the estimate-only narration entry")
	}
}

// TestQueryInvalidation: a POOL mutation of a native operator drops the
// cached query narration.
func TestQueryInvalidation(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustQuery(t, srv, &QueryRequest{SQL: qScan})
	if resp := mustQuery(t, srv, &QueryRequest{SQL: qScan}); !resp.Cached {
		t.Fatal("expected a warm cache before the mutation")
	}
	if _, err := srv.Store().Exec(
		`UPDATE native SET desc = 'scan every row of $R1$ keeping those matching $cond$' WHERE name = 'seqscan'`); err != nil {
		t.Fatal(err)
	}
	resp := mustQuery(t, srv, &QueryRequest{SQL: qScan})
	if resp.Cached {
		t.Fatal("mutation of a native operator should have invalidated the entry")
	}
	if !strings.Contains(resp.Text, "scan every row of") {
		t.Errorf("re-narration does not use the updated description:\n%s", resp.Text)
	}
}

// TestQueryValidation: empty SQL, engineless servers, and broken SQL are
// client errors, not 5xx-class failures.
func TestQueryValidation(t *testing.T) {
	srv := newTestServer(t, Config{})
	if _, err := srv.Query(context.Background(), &QueryRequest{}); err == nil {
		t.Error("empty SQL should be rejected")
	}
	if _, err := srv.Query(context.Background(), &QueryRequest{SQL: "SELECT FROM WHERE"}); err == nil {
		t.Error("malformed SQL should be rejected")
	}

	engineless := NewServer(nil, pool.NewSeededStore(), Config{})
	t.Cleanup(engineless.Close)
	if _, err := engineless.Query(context.Background(), &QueryRequest{SQL: qScan}); err == nil {
		t.Error("engineless server should reject /v1/query")
	}
}

// TestQueryMaxRows: the echo cap honors explicit, default, and disabled
// settings while RowCount always reports the real cardinality.
func TestQueryMaxRows(t *testing.T) {
	srv := newTestServer(t, Config{})
	all := mustQuery(t, srv, &QueryRequest{SQL: qSort, MaxRows: 3})
	if len(all.Rows) != 3 {
		t.Errorf("MaxRows=3 echoed %d rows", len(all.Rows))
	}
	if all.RowCount <= 3 {
		t.Errorf("row count %d should exceed the echo cap", all.RowCount)
	}
	none := mustQuery(t, srv, &QueryRequest{SQL: qSort, MaxRows: -1})
	if len(none.Rows) != 0 {
		t.Errorf("MaxRows=-1 echoed %d rows, want 0", len(none.Rows))
	}
}

// TestUnaryTimeoutFreesWorker: a unary query that times out while its
// pipeline is producing rows stops within a row of its deadline and gives
// its worker and engine session back, so the next request on a
// one-worker, one-session server is answered at once. Run to completion,
// the slow query (1,931,500 rows at this scale) takes seconds; before
// the unary path checked its deadline per row, the cheap query waited for
// all of it.
func TestUnaryTimeoutFreesWorker(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, EngineSessions: 1, RequestTimeout: 30 * time.Second})
	const slow = `SELECT a.l_orderkey FROM lineitem a, lineitem b, nation n
		WHERE a.l_quantity < b.l_quantity`
	_, err := srv.Do(context.Background(), &Request{Op: OpQuery, SQL: slow, TimeoutMs: 20, MaxRows: -1})
	if info := AsErrorInfo(err); info == nil || info.Code != CodeDeadlineExceeded {
		t.Fatalf("slow query under a 20ms timeout: %v", err)
	}
	// Generous for a loaded or -race run of the cheap query, and still far
	// below the slow query's run to completion.
	const bound = 500 * time.Millisecond
	start := time.Now()
	resp, err := srv.Do(context.Background(), &Request{Op: OpQuery, SQL: qScan, TimeoutMs: int64(bound / time.Millisecond)})
	if err != nil {
		t.Fatalf("cheap query after the timeout: %v (waited %v)", err, time.Since(start))
	}
	if resp.Query.RowCount == 0 {
		t.Fatal("cheap query returned no rows")
	}
}
