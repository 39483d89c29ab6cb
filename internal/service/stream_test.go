package service

// Tests for the streaming query path: incremental delivery (a row reaches
// the client before execution completes), trailer equivalence with the
// unary path, emitted-row caps, and validation.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestStreamDeliversRowsBeforeCompletion is the acceptance test for
// streaming: the OnRow callback observes rows while the executor is
// demonstrably still running — `completed` flips only after QueryStream
// returns, and every row must arrive before that.
func TestStreamDeliversRowsBeforeCompletion(t *testing.T) {
	srv := newTestServer(t, Config{})
	completed := false
	rowsBeforeCompletion := 0
	resp, err := srv.QueryStream(context.Background(), &QueryRequest{SQL: qSort}, StreamCallbacks{
		OnRow: func(row []string) error {
			if completed {
				return fmt.Errorf("row delivered after execution completed")
			}
			rowsBeforeCompletion++
			return nil
		},
	})
	completed = true
	if err != nil {
		t.Fatal(err)
	}
	if rowsBeforeCompletion == 0 {
		t.Fatal("no rows delivered before completion")
	}
	if resp.RowCount != rowsBeforeCompletion {
		t.Fatalf("trailer row count %d != %d streamed rows", resp.RowCount, rowsBeforeCompletion)
	}
	if resp.Rows != nil {
		t.Fatal("trailer must not re-echo streamed rows")
	}
	if resp.Text == "" || resp.Fingerprint == "" {
		t.Fatal("trailer must carry the narration")
	}
}

// TestStreamMatchesUnaryQuery: the same SQL through the streaming and
// unary paths produces the same fingerprint, narration, columns, and
// cardinality — and the second run hits the shared actuals-aware cache.
func TestStreamMatchesUnaryQuery(t *testing.T) {
	srv := newTestServer(t, Config{})
	var cols []string
	var streamed [][]string
	st, err := srv.QueryStream(context.Background(), &QueryRequest{SQL: qJoin}, StreamCallbacks{
		OnColumns: func(c []string) error { cols = append([]string(nil), c...); return nil },
		OnRow:     func(row []string) error { streamed = append(streamed, row); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	un := mustQuery(t, srv, &QueryRequest{SQL: qJoin, MaxRows: -1})
	if st.Fingerprint != un.Fingerprint {
		t.Fatalf("stream fingerprint %s != unary %s", st.Fingerprint, un.Fingerprint)
	}
	if st.Text != un.Text {
		t.Fatal("stream narration differs from unary")
	}
	if len(cols) != len(un.Columns) {
		t.Fatalf("columns %v vs %v", cols, un.Columns)
	}
	if len(streamed) != un.RowCount {
		t.Fatalf("streamed %d rows, unary reports %d", len(streamed), un.RowCount)
	}
	if !un.Cached {
		t.Fatal("unary run after the stream must hit the narration cache the stream populated")
	}
	if st.ElapsedMs <= 0 {
		t.Fatal("stream elapsed time not reported")
	}
}

// TestStreamMaxRows: positive caps emitted rows while the trailer still
// reports full cardinality; negative emits nothing.
func TestStreamMaxRows(t *testing.T) {
	srv := newTestServer(t, Config{})
	var n int
	resp, err := srv.QueryStream(context.Background(), &QueryRequest{SQL: qSort, MaxRows: 3}, StreamCallbacks{
		OnRow: func(row []string) error { n++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("emitted %d rows, want 3", n)
	}
	if resp.RowCount <= 3 {
		t.Fatalf("trailer row count %d should be the full cardinality", resp.RowCount)
	}

	n = 0
	if _, err := srv.QueryStream(context.Background(), &QueryRequest{SQL: qSort, MaxRows: -1}, StreamCallbacks{
		OnRow: func(row []string) error { n++; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("MaxRows=-1 emitted %d rows", n)
	}
}

// TestStreamCallbackAbort: an OnRow error aborts the stream and surfaces
// verbatim.
func TestStreamCallbackAbort(t *testing.T) {
	srv := newTestServer(t, Config{})
	sentinel := errors.New("client went away")
	_, err := srv.QueryStream(context.Background(), &QueryRequest{SQL: qSort}, StreamCallbacks{
		OnRow: func(row []string) error { return sentinel },
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the callback's sentinel", err)
	}
}

// TestStreamTimeoutHint: the envelope's timeout_ms applies to streams
// exactly as to unary ops.
func TestStreamTimeoutHint(t *testing.T) {
	srv := newTestServer(t, Config{RequestTimeout: 30 * time.Second})
	// A self-join on a predicate no join algorithm can index: every pair of
	// lineitem rows is evaluated, tens of milliseconds of work, so a 1ms
	// budget always runs out however fast the executor's kernels get.
	slow := `SELECT a.l_orderkey FROM lineitem a, lineitem b
		WHERE a.l_extendedprice * b.l_quantity > b.l_extendedprice * a.l_quantity`
	_, err := srv.DoStream(context.Background(), &Request{SQL: slow, TimeoutMs: 1}, StreamCallbacks{
		OnRow: func(row []string) error { return nil },
	})
	if err == nil {
		t.Fatal("stream finished under a 1ms timeout hint: the hint did not bound it")
	}
	if info := AsErrorInfo(err); info.Code != CodeDeadlineExceeded || !info.Retryable {
		t.Fatalf("timeout hint on stream: %v", err)
	}
}

// TestDoStreamOpDiscipline: only the query op streams; the envelope's id
// is echoed on the trailer.
func TestDoStreamOpDiscipline(t *testing.T) {
	srv := newTestServer(t, Config{})
	if _, err := srv.DoStream(context.Background(), &Request{Op: OpNarrate, SQL: qScan}, StreamCallbacks{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("narrate op must not stream: %v", err)
	}
	resp, err := srv.DoStream(context.Background(), &Request{ID: "s-1", SQL: qScan}, StreamCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Op != OpQuery || resp.ID != "s-1" || resp.Query == nil {
		t.Fatalf("trailer envelope: %+v", resp)
	}
}

// TestStreamOverloadRejection: streams are admission-controlled like
// queued ops — when as many streams as engine sessions are open, the next
// one is rejected immediately with ErrOverloaded instead of parking in
// session Acquire until its deadline.
func TestStreamOverloadRejection(t *testing.T) {
	srv := newTestServer(t, Config{EngineSessions: 1, RequestTimeout: 30 * time.Second})
	firstRow := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		var once bool
		_, err := srv.QueryStream(context.Background(), &QueryRequest{SQL: qSort}, StreamCallbacks{
			OnRow: func(row []string) error {
				if !once {
					once = true
					close(firstRow)
					<-release
				}
				return nil
			},
		})
		done <- err
	}()
	<-firstRow // the only stream slot is now held mid-row

	_, err := srv.QueryStream(context.Background(), &QueryRequest{SQL: qScan}, StreamCallbacks{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second concurrent stream: err = %v, want ErrOverloaded", err)
	}
	if info := AsErrorInfo(err); !info.Retryable {
		t.Fatal("overloaded must be retryable")
	}
	before := srv.Stats().Rejected
	if before < 1 {
		t.Fatalf("Rejected = %d, want >= 1", before)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("held stream failed: %v", err)
	}
	// Slot released: streams flow again.
	if _, err := srv.QueryStream(context.Background(), &QueryRequest{SQL: qScan}, StreamCallbacks{}); err != nil {
		t.Fatalf("stream after release: %v", err)
	}
}

// TestStreamValidation mirrors the unary query validation.
func TestStreamValidation(t *testing.T) {
	srv := newTestServer(t, Config{})
	if _, err := srv.QueryStream(context.Background(), &QueryRequest{}, StreamCallbacks{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty SQL: %v", err)
	}
	if _, err := srv.QueryStream(context.Background(), &QueryRequest{SQL: "SELECT FROM"}, StreamCallbacks{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("broken SQL: %v", err)
	}
}
