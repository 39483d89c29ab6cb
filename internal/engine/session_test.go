package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// sessionTestEngine builds a small two-table engine with enough rows for
// joins to be interesting.
func sessionTestEngine(t testing.TB) *Engine {
	t.Helper()
	e := NewDefault()
	mustExec := func(sql string) {
		t.Helper()
		if _, err := e.Exec(sql); err != nil {
			t.Fatalf("exec %q: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE c (id INT, name TEXT)")
	mustExec("CREATE TABLE o (id INT, cid INT, total FLOAT)")
	for i := 0; i < 200; i++ {
		mustExec(fmt.Sprintf("INSERT INTO c VALUES (%d, 'cust%d')", i, i))
	}
	for i := 0; i < 800; i++ {
		mustExec(fmt.Sprintf("INSERT INTO o VALUES (%d, %d, %d.5)", i, i%200, i))
	}
	return e
}

// TestSessionPoolConcurrentQueries runs many instrumented queries across
// pool sessions concurrently; correctness is the race detector plus result
// cardinality checks against the single-session answer.
func TestSessionPoolConcurrentQueries(t *testing.T) {
	base := sessionTestEngine(t)
	pool, err := NewSessionPool(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	queries := []string{
		"SELECT c.name, o.total FROM c, o WHERE c.id = o.cid AND o.total > 400",
		"SELECT name FROM c WHERE id < 50 ORDER BY name",
		"SELECT cid, SUM(total) FROM o GROUP BY cid ORDER BY cid LIMIT 10",
	}
	want := make([]int, len(queries))
	for i, q := range queries {
		qr, err := base.QueryInstrumented(q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		want[i] = len(qr.Result.Rows)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				qi := (g + i) % len(queries)
				s, err := pool.Acquire(context.Background())
				if err != nil {
					errs <- err
					return
				}
				qr, err := s.QueryInstrumented(queries[qi])
				pool.Release(s)
				if err != nil {
					errs <- fmt.Errorf("query %q: %w", queries[qi], err)
					return
				}
				if len(qr.Result.Rows) != want[qi] {
					errs <- fmt.Errorf("query %q: %d rows, want %d", queries[qi], len(qr.Result.Rows), want[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionPoolBounds: Acquire blocks when the pool is exhausted and
// honors context cancellation.
func TestSessionPoolBounds(t *testing.T) {
	pool, err := NewSessionPool(sessionTestEngine(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	s, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.Idle(); got != 0 {
		t.Fatalf("Idle = %d with the only session checked out", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := pool.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire on exhausted pool: err = %v, want deadline", err)
	}
	pool.Release(s)
	s2, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire after release: %v", err)
	}
	pool.Release(s2)
}

// TestSessionPoolClose: Acquire after Close fails, Release after Close
// does not panic, Close is idempotent.
func TestSessionPoolClose(t *testing.T) {
	pool, err := NewSessionPool(sessionTestEngine(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	pool.Close() // idempotent
	if _, err := pool.Acquire(context.Background()); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Acquire after Close: err = %v, want ErrPoolClosed", err)
	}
	pool.Release(s) // must not panic
}

// TestQueryStreamIncremental: the streaming query delivers its first batch
// while execution is demonstrably still in progress (the iterator has not
// reached end of stream), and the final actuals match the materializing
// path.
func TestQueryStreamIncremental(t *testing.T) {
	e := sessionTestEngine(t)
	const sql = "SELECT c.name, o.total FROM c, o WHERE c.id = o.cid"

	qr, err := e.QueryInstrumented(sql)
	if err != nil {
		t.Fatal(err)
	}
	want := len(qr.Result.Rows)
	if want < 100 {
		t.Fatalf("test query too small to observe streaming: %d rows", want)
	}

	q, err := e.QueryStreamInstrumented(sql)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if len(q.Columns) != 2 {
		t.Fatalf("columns = %v", q.Columns)
	}
	n := 0
	for {
		b, err := q.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if n == 0 && (q.RowCount() != len(b) || q.Complete()) {
			t.Fatalf("first batch of %d rows: RowCount %d, Complete %v", len(b), q.RowCount(), q.Complete())
		}
		for _, row := range b {
			if len(row) != 2 {
				t.Fatalf("row arity = %d", len(row))
			}
		}
		n += len(b)
	}
	if n != want {
		t.Fatalf("streamed %d rows, materialized %d", n, want)
	}
	plan, stats := q.Finish()
	if plan == nil || len(stats) == 0 {
		t.Fatal("Finish returned no plan/stats")
	}
	root := stats[plan]
	if root == nil || root.Rows != int64(want) {
		t.Fatalf("root actual rows = %+v, want %d", root, want)
	}
	if !q.Complete() {
		t.Fatal("Complete() = false after a clean drain")
	}
	// A drained stream stays at clean end-of-stream, even after Close.
	if b, err := q.NextBatch(); b != nil || err != nil {
		t.Fatalf("NextBatch after end of stream: %d rows, err=%v", len(b), err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err := q.NextBatch(); b != nil || err != nil {
		t.Fatalf("NextBatch after Close on a complete stream: %d rows, err=%v", len(b), err)
	}
}

// TestQueryStreamAbandon: closing mid-stream releases the pipeline without
// error and freezes the counters — and the abandoned stream is clearly
// distinguishable from a drained one. Were NextBatch after a mid-stream
// Close to return the same (nil, nil) as a genuine end of stream, Finish's
// partial actuals could pass for complete ones and poison the
// actuals-keyed narration cache.
func TestQueryStreamAbandon(t *testing.T) {
	e := sessionTestEngine(t)
	q, err := e.QueryStreamInstrumented("SELECT id FROM o")
	if err != nil {
		t.Fatal(err)
	}
	first, err := q.NextBatch()
	if err != nil || first == nil {
		t.Fatalf("first batch: %d rows, err=%v", len(first), err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if q.Complete() {
		t.Fatal("Complete() = true on a stream abandoned mid-iteration")
	}
	b, err := q.NextBatch()
	if b != nil {
		t.Fatal("NextBatch after mid-stream Close produced rows")
	}
	if !errors.Is(err, ErrAbandonedStream) {
		t.Fatalf("NextBatch after mid-stream Close: err = %v, want ErrAbandonedStream", err)
	}
	if q.RowCount() != len(first) || len(first) >= 800 {
		t.Fatalf("RowCount = %d after one batch of %d of 800 rows", q.RowCount(), len(first))
	}
}
