package service

// Tests for the v2 envelope pipeline: op routing, structured error codes,
// the batch and pool ops, fingerprint hints, and the session-pooled
// parallel query path.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustDo(t testing.TB, s *Server, req *Request) *Response {
	t.Helper()
	resp, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do(%+v): %v", req, err)
	}
	return resp
}

// TestDoEnvelopeRouting: each op kind routes to its strategy and the
// envelope echoes op and correlation ID.
func TestDoEnvelopeRouting(t *testing.T) {
	srv := newTestServer(t, Config{})

	nar := mustDo(t, srv, &Request{Op: OpNarrate, ID: "n-1", SQL: qScan})
	if nar.Op != OpNarrate || nar.ID != "n-1" || nar.Narrate == nil || nar.Narrate.Text == "" {
		t.Fatalf("narrate envelope wrong: %+v", nar)
	}
	if nar.Query != nil || nar.QA != nil || nar.Pool != nil || nar.Batch != nil {
		t.Fatal("narrate response must set exactly one payload")
	}

	q := mustDo(t, srv, &Request{Op: OpQuery, SQL: qJoin})
	if q.Query == nil || q.Query.RowCount == 0 || q.Query.Dialect != "native" {
		t.Fatalf("query envelope wrong: %+v", q.Query)
	}

	qa := mustDo(t, srv, &Request{Op: OpQA, SQL: qJoin, Question: "how many steps are there?"})
	if qa.QA == nil || qa.QA.Answer == "" {
		t.Fatalf("qa envelope wrong: %+v", qa)
	}

	pl := mustDo(t, srv, &Request{Op: OpPool, Stmt: `SELECT desc FROM pg WHERE name = 'sort'`})
	if pl.Pool == nil || len(pl.Pool.Rows) == 0 {
		t.Fatalf("pool envelope wrong: %+v", pl.Pool)
	}
}

// TestDoErrorCodes: every failure class maps to its stable structured
// code with the right retryable bit, and still unwraps to the service
// sentinel for errors.Is.
func TestDoErrorCodes(t *testing.T) {
	srv := newTestServer(t, Config{})

	cases := []struct {
		name      string
		req       *Request
		code      string
		retryable bool
		sentinel  error
	}{
		{"unknown op", &Request{Op: "mystery"}, CodeBadRequest, false, ErrBadRequest},
		{"no payload", &Request{Op: OpNarrate}, CodeBadRequest, false, ErrBadRequest},
		{"both payloads", &Request{Op: OpNarrate, SQL: qScan, Plan: "{}"}, CodeBadRequest, false, ErrBadRequest},
		{"unknown dialect", &Request{Op: OpNarrate, SQL: qScan, Dialect: "db9"}, CodeBadRequest, false, ErrBadRequest},
		{"empty question", &Request{Op: OpQA, SQL: qScan}, CodeBadRequest, false, ErrBadRequest},
		{"broken sql", &Request{Op: OpQuery, SQL: "SELECT FROM WHERE"}, CodeBadRequest, false, ErrBadRequest},
		{"narrate broken sql", &Request{Op: OpNarrate, SQL: "SELECT FROM WHERE"}, CodeBadRequest, false, ErrBadRequest},
		{"narrate unknown table", &Request{Op: OpNarrate, SQL: "SELECT * FROM nope"}, CodeBadRequest, false, ErrBadRequest},
		{"narrate unknown column", &Request{Op: OpNarrate, SQL: "SELECT nope FROM customer"}, CodeBadRequest, false, ErrBadRequest},
		{"qa broken sql", &Request{Op: OpQA, SQL: "SELECT FROM WHERE", Question: "how many steps are there?"}, CodeBadRequest, false, ErrBadRequest},
		{"qa unknown table", &Request{Op: OpQA, SQL: "SELECT * FROM nope", Question: "how many steps are there?"}, CodeBadRequest, false, ErrBadRequest},
		{"qa unknown column", &Request{Op: OpQA, SQL: "SELECT nope FROM customer", Question: "how many steps are there?"}, CodeBadRequest, false, ErrBadRequest},
		{"empty pool stmt", &Request{Op: OpPool}, CodeBadRequest, false, ErrBadRequest},
		{"broken pool stmt", &Request{Op: OpPool, Stmt: "FROBNICATE pg"}, CodeBadRequest, false, ErrBadRequest},
		{"empty batch", &Request{Op: OpBatch}, CodeBadRequest, false, ErrBadRequest},
	}
	for _, tc := range cases {
		_, err := srv.Do(context.Background(), tc.req)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		var info *ErrorInfo
		if !errors.As(err, &info) {
			t.Errorf("%s: error %T is not *ErrorInfo", tc.name, err)
			continue
		}
		if info.Code != tc.code || info.Retryable != tc.retryable {
			t.Errorf("%s: code=%s retryable=%v, want %s/%v", tc.name, info.Code, info.Retryable, tc.code, tc.retryable)
		}
		if info.Message == "" {
			t.Errorf("%s: empty message", tc.name)
		}
		if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: does not unwrap to sentinel", tc.name)
		}
	}
}

// TestSQLErrorsReadAsQueryReadsThem: narrate and qa report a SQL error
// with the message query reports, parse offsets included.
func TestSQLErrorsReadAsQueryReadsThem(t *testing.T) {
	srv := newTestServer(t, Config{})
	for _, sql := range []string{"SELECT FROM WHERE", "ANALYZE SELECT c_name FROM customer", "SELECT * FROM nope", "SELECT nope FROM customer"} {
		_, err := srv.Do(context.Background(), &Request{Op: OpQuery, SQL: sql})
		want := AsErrorInfo(err)
		if want == nil {
			t.Fatalf("query %q: err = %v, want a structured error", sql, err)
		}
		for _, req := range []*Request{{Op: OpNarrate, SQL: sql}, {Op: OpQA, SQL: sql, Question: "how many steps are there?"}} {
			_, err := srv.Do(context.Background(), req)
			if got := AsErrorInfo(err); got == nil || got.Code != want.Code || got.Message != want.Message {
				t.Errorf("%s %q: err = %+v, want %+v", req.Op, sql, got, want)
			}
		}
	}
}

// TestDoErrorCodesShutdownAndDeadline covers the retryable classes that
// need server state to provoke.
func TestDoErrorCodesShutdownAndDeadline(t *testing.T) {
	srv := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := srv.Do(ctx, &Request{Op: OpNarrate, SQL: qScan})
	if info := AsErrorInfo(err); info == nil || info.Code != CodeCanceled {
		t.Fatalf("canceled ctx: %v", err)
	}

	srv.Close()
	_, err = srv.Do(context.Background(), &Request{Op: OpNarrate, SQL: qScan})
	info := AsErrorInfo(err)
	if info == nil || info.Code != CodeUnavailable || !info.Retryable {
		t.Fatalf("closed server: %v", err)
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatal("closed error must unwrap to ErrClosed")
	}
	// Inline ops are rejected after Close too.
	if _, err := srv.Do(context.Background(), &Request{Op: OpPool, Stmt: "SELECT desc FROM pg WHERE name = 'sort'"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("pool after close: %v", err)
	}
}

// TestDoFingerprintHint: a narrate op carrying the fingerprint of an
// earlier response is answered from the cache without replanning, even
// when the SQL is absent.
func TestDoFingerprintHint(t *testing.T) {
	srv := newTestServer(t, Config{})
	first := mustDo(t, srv, &Request{Op: OpNarrate, SQL: qJoin})
	hint := &Request{Op: OpNarrate, SQL: qJoin, Fingerprint: first.Narrate.Fingerprint}
	resp := mustDo(t, srv, hint)
	if !resp.Narrate.Cached || resp.Narrate.Text != first.Narrate.Text {
		t.Fatal("fingerprint hint must answer from the cache")
	}
	// A bogus hint is ignored, not an error.
	bogus := mustDo(t, srv, &Request{Op: OpNarrate, SQL: qJoin, Fingerprint: "zz"})
	if bogus.Narrate.Text != first.Narrate.Text {
		t.Fatal("bogus hint must fall through to the normal path")
	}
}

// TestDoBatch: a batch fans its entries through the pipeline, preserves
// order, embeds per-entry errors, and echoes per-entry IDs.
func TestDoBatch(t *testing.T) {
	srv := newTestServer(t, Config{})
	resp := mustDo(t, srv, &Request{Op: OpBatch, ID: "b-1", Batch: []*Request{
		{Op: OpNarrate, ID: "0", SQL: qScan},
		{Op: OpQuery, ID: "1", SQL: qJoin},
		{Op: OpNarrate, ID: "2", Dialect: "db9", SQL: qScan}, // fails
		{Op: OpPool, ID: "3", Stmt: `SELECT desc FROM pg WHERE name = 'sort'`},
	}})
	if resp.Op != OpBatch || resp.ID != "b-1" || len(resp.Batch) != 4 {
		t.Fatalf("batch envelope wrong: %+v", resp)
	}
	if resp.Batch[0].Narrate == nil || resp.Batch[0].ID != "0" {
		t.Fatalf("entry 0: %+v", resp.Batch[0])
	}
	if resp.Batch[1].Query == nil || resp.Batch[1].Query.RowCount == 0 {
		t.Fatalf("entry 1: %+v", resp.Batch[1])
	}
	if resp.Batch[2].Error == nil || resp.Batch[2].Error.Code != CodeBadRequest {
		t.Fatalf("entry 2 must embed its error: %+v", resp.Batch[2])
	}
	if resp.Batch[3].Pool == nil {
		t.Fatalf("entry 3: %+v", resp.Batch[3])
	}

	// Nested batches are rejected.
	_, err := srv.Do(context.Background(), &Request{Op: OpBatch, Batch: []*Request{
		{Op: OpBatch, Batch: []*Request{{Op: OpNarrate, SQL: qScan}}},
	}})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("nested batch: %v", err)
	}
}

// TestDoTimeoutHint: the envelope's timeout_ms tightens the deadline
// below the server default.
func TestDoTimeoutHint(t *testing.T) {
	srv := newTestServer(t, Config{RequestTimeout: 30 * time.Second})
	// A self-join on a predicate no join algorithm can index: every pair of
	// lineitem rows is evaluated, tens of milliseconds of work, so a 1ms
	// budget always runs out however fast the executor's kernels get.
	slow := `SELECT COUNT(*) FROM lineitem a, lineitem b
		WHERE a.l_extendedprice * b.l_quantity > b.l_extendedprice * a.l_quantity`
	_, err := srv.Do(context.Background(), &Request{Op: OpQuery, SQL: slow, TimeoutMs: 1})
	// A 1ms budget can also be spent before the queue: either way the
	// request must fail with the deadline code, quickly.
	if err == nil {
		t.Fatal("query finished under a 1ms timeout hint: the hint did not tighten the deadline")
	}
	if info := AsErrorInfo(err); info.Code != CodeDeadlineExceeded || !info.Retryable {
		t.Fatalf("timeout hint: %v", err)
	}
}

// TestQueryParallelSessions: concurrent queries run on independent engine
// sessions (no serialization) and produce consistent results. Correctness
// under -race is the main assertion.
func TestQueryParallelSessions(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 8, EngineSessions: 4, QueueDepth: 64, RequestTimeout: 30 * time.Second})
	want := mustQuery(t, srv, &QueryRequest{SQL: qJoin, MaxRows: -1}).RowCount
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := srv.Query(context.Background(), &QueryRequest{SQL: qJoin, MaxRows: -1})
				if err != nil {
					if errors.Is(err, ErrOverloaded) {
						continue
					}
					errs <- err
					return
				}
				if resp.RowCount != want {
					errs <- fmt.Errorf("row count %d, want %d", resp.RowCount, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := srv.Stats(); st.EngineSessions != 4 || st.EngineSessionsIdle != 4 {
		t.Fatalf("session pool gauges: %d/%d, want 4/4", st.EngineSessionsIdle, st.EngineSessions)
	}
}

// TestCloseDrainsInflightQuery is the regression test for shutdown
// ordering: Close during a slow in-flight query must not panic (e.g. by
// tearing down the session pool under the worker) and must not strand the
// caller — the query gets an answer or a clean error, and Close returns
// only after the worker goroutines exited.
func TestCloseDrainsInflightQuery(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2, RequestTimeout: 30 * time.Second})
	// A join with a fat intermediate result: slow enough (milliseconds, not
	// microseconds) that Close overlaps execution.
	slow := `SELECT c.c_name, o.o_totalprice FROM customer c, orders o WHERE c.c_nationkey < 100`

	done := make(chan error, 1)
	go func() {
		_, err := srv.Query(context.Background(), &QueryRequest{SQL: slow, MaxRows: -1})
		done <- err
	}()
	// Give the dispatcher a moment to hand the task to a worker.
	time.Sleep(2 * time.Millisecond)

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight query failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight query stranded by Close")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return (leaked worker?)")
	}
	// After the drain, new work is rejected cleanly.
	if _, err := srv.Query(context.Background(), &QueryRequest{SQL: qScan}); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close: %v", err)
	}
}

// TestCloseDrainsOpenStream: Close while a stream is mid-flight waits for
// the stream to finish instead of yanking its engine session — no row may
// be emitted after Close has returned.
func TestCloseDrainsOpenStream(t *testing.T) {
	srv := newTestServer(t, Config{RequestTimeout: 30 * time.Second})
	started := make(chan struct{})
	var once sync.Once
	var closeReturned atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := srv.QueryStream(context.Background(), &QueryRequest{SQL: qSort}, StreamCallbacks{
			OnRow: func(row []string) error {
				once.Do(func() { close(started) })
				if closeReturned.Load() {
					return fmt.Errorf("row emitted after Close returned: stream was not drained")
				}
				time.Sleep(20 * time.Microsecond) // stretch the stream
				return nil
			},
		})
		done <- err
	}()
	<-started
	srv.Close() // must block until the stream completes
	closeReturned.Store(true)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stream failed under Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream never finished")
	}
}
