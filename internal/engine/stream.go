package engine

// stream.go is the incremental counterpart of QueryInstrumented: the same
// parse→plan→instrumented batch pipeline→projectBatch loop, but handing
// rows to the caller one projected batch at a time instead of
// materializing the whole result first. The serving layer's
// /v2/query?stream=ndjson path rides this — a client sees the first rows
// while the scan is still running (a scan's first batch is its 64-row
// adaptive chunk), and the narration (which needs the complete actuals)
// arrives as a trailer after the last row.

import (
	"errors"
	"time"

	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// ErrAbandonedStream is returned by StreamingQuery.Next once the stream
// has been closed (or has failed) before reaching end of stream. It exists
// so that an abandoned stream can never masquerade as a cleanly drained
// one: before this sentinel, Next after a mid-stream Close returned the
// same (nil, false, nil) as a genuine end of stream, and a consumer could
// read Finish's partial actuals as complete — and cache narration under an
// actuals-aware fingerprint that the full run would never produce.
var ErrAbandonedStream = errors.New("engine: streaming query abandoned before end of stream")

// StreamingQuery is one open, instrumented SELECT execution. Rows are
// pulled with Next; after Next reports exhaustion, Finish returns the plan
// with its collected actuals. Close releases the iterator pipeline and is
// safe to call at any point (including mid-stream abandonment) — but the
// collected statistics are exact only when Complete reports true.
type StreamingQuery struct {
	// Columns is the output header, available before the first row.
	Columns []string

	e        *Engine
	it       vecIter
	pr       *projector
	batch    []storage.Row // projected rows of the current batch
	pos      int           // next row of batch
	plan     *Node
	stats    ExecStats
	started  time.Time
	elapsed  time.Duration
	rows     int
	done     bool
	closed   bool
	complete bool
}

// QueryStreamInstrumented parses and plans a SELECT, opens its
// instrumented batch pipeline, and returns the live stream. The
// engine session must stay checked out until Close.
func (e *Engine) QueryStreamInstrumented(sql string) (*StreamingQuery, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	pl, err := e.planSelect(sel)
	if err != nil {
		return nil, err
	}
	pr, err := e.newProjector(sel, pl)
	if err != nil {
		return nil, err
	}
	st := make(ExecStats)
	// Parallel plans run the exchange, whose workers Close cancels and
	// drains.
	it, err := e.buildVec(pl, st)
	if err != nil {
		return nil, err
	}
	q := &StreamingQuery{
		e:       e,
		Columns: pr.columns,
		it:      it,
		pr:      pr,
		plan:    pl,
		stats:   st,
		started: time.Now(),
	}
	if err := it.Open(); err != nil {
		it.Close()
		q.closed = true
		return nil, err
	}
	return q, nil
}

// Next returns the next projected output row, with ok=false at end of
// stream. The returned row is owned by the caller: a capped subslice of a
// fresh projection arena, never aliasing table storage. Once the stream
// has been closed or has failed mid-iteration, Next returns
// ErrAbandonedStream rather than pretending the stream drained.
func (q *StreamingQuery) Next() (storage.Row, bool, error) {
	if q.done || q.closed {
		if q.complete {
			return nil, false, nil
		}
		return nil, false, ErrAbandonedStream
	}
	for q.pos >= len(q.batch) {
		b, err := q.it.NextBatch()
		if err == nil && b != nil {
			b, err = q.pr.projectBatch(b)
		}
		if err != nil {
			q.done = true
			q.elapsed = time.Since(q.started)
			return nil, false, err
		}
		if b == nil {
			q.done = true
			q.complete = true
			q.elapsed = time.Since(q.started)
			q.e.annotateWorkerStats(q.plan, q.stats)
			return nil, false, nil
		}
		q.batch, q.pos = b, 0
	}
	out := q.batch[q.pos]
	q.pos++
	q.rows++
	return out, true, nil
}

// RowCount reports how many rows Next has produced so far.
func (q *StreamingQuery) RowCount() int { return q.rows }

// Elapsed reports the wall time of the execution: live while streaming,
// frozen at the value reached when the stream ended.
func (q *StreamingQuery) Elapsed() time.Duration {
	if q.done {
		return q.elapsed
	}
	return time.Since(q.started)
}

// Complete reports whether Next reached a clean end of stream, i.e. the
// per-operator actuals from Finish cover the whole execution. A stream
// closed or failed mid-iteration is not complete; consumers keying caches
// or narration on the actuals must check this (the serving layer skips
// narration caching for incomplete streams).
func (q *StreamingQuery) Complete() bool { return q.complete }

// Finish returns the physical plan and its per-operator actuals. The
// statistics are exact only when Complete reports true; on an abandoned
// stream they cover the batches actually pulled, much as a real EXPLAIN
// ANALYZE under LIMIT would report, and must be marked partial by the
// consumer.
func (q *StreamingQuery) Finish() (*Node, ExecStats) { return q.plan, q.stats }

// Close releases the iterator pipeline. Idempotent.
func (q *StreamingQuery) Close() error {
	if q.closed {
		return nil
	}
	q.closed = true
	if !q.done {
		q.done = true
		q.elapsed = time.Since(q.started)
	}
	err := q.it.Close()
	if !q.complete {
		// Abandoned mid-stream: Close has cancelled and drained any parallel
		// workers, so the partial per-operator actuals are now stable;
		// normalize them the same way a clean end of stream would.
		q.e.annotateWorkerStats(q.plan, q.stats)
	}
	return err
}
