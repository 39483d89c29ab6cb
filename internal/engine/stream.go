package engine

// stream.go is the engine's one cursor over the batch pipeline: every
// SELECT opens a Cursor on its built plan and drains it batch by batch.
// Exec and subqueries drain it uninstrumented; ExecPlanInstrumented and
// EXPLAIN ANALYZE drain the plan's own rows with stats; QueryInstrumented
// drains projected rows with stats; QueryStreamInstrumented hands the open
// cursor to its caller. The serving layer's /v2/query, unary and NDJSON
// alike, pulls projected batches from that cursor as the pipeline
// produces them (a scan's first batch is its 64-row adaptive chunk, so a
// client sees rows while the scan is still running) and narrates the plan
// with its actuals once the last batch is out. It is Volcano's
// open-next-close iterator (Graefe, IEEE TKDE 1994), pulled a batch at a
// time.

import (
	"errors"
	"time"

	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// ErrAbandonedStream is returned by Cursor.NextBatch once the cursor has
// been closed (or has failed) before reaching the end of the result. It
// exists so that an abandoned cursor can never masquerade as a cleanly
// drained one: a consumer that took the end of the batches as the end of
// the result could read Finish's partial actuals as complete, and cache
// narration under an actuals-aware fingerprint that the full run would
// never produce.
var ErrAbandonedStream = errors.New("engine: streaming query abandoned before end of stream")

// Cursor is one open execution of a built batch pipeline. Batches are
// pulled with NextBatch; after it reports the end, Finish returns the
// plan with its collected actuals. Close releases the pipeline and is
// safe to call at any point (including mid-stream abandonment), but the
// collected statistics are exact only when Complete reports true.
type Cursor struct {
	// Columns is the output header, available before the first batch;
	// nil when the cursor hands out the plan's own rows.
	Columns []string

	e        *Engine
	it       vecIter
	pr       *projector // nil: the plan's own rows
	plan     *Node
	stats    ExecStats // nil: uninstrumented
	started  time.Time
	elapsed  time.Duration
	rows     int
	done     bool
	closed   bool
	complete bool
}

// open builds plan's batch pipeline into c and opens it. A non-nil pr
// projects every batch; a non-nil st instruments every operator into it.
// Callers that drain the cursor themselves keep c on their stack.
func (c *Cursor) open(e *Engine, plan *Node, pr *projector, st ExecStats) error {
	// Parallel plans run the exchange, whose workers Close cancels and
	// drains.
	it, err := e.buildVec(plan, st)
	if err != nil {
		return err
	}
	*c = Cursor{e: e, it: it, pr: pr, plan: plan, stats: st, started: time.Now()}
	if pr != nil {
		c.Columns = pr.columns
	}
	if err := it.Open(); err != nil {
		it.Close()
		return err
	}
	return nil
}

// QueryStreamInstrumented parses and plans a SELECT and returns an open,
// instrumented cursor over it that projects every batch. The engine
// session must stay checked out until Close.
func (e *Engine) QueryStreamInstrumented(sql string) (*Cursor, error) {
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
	c := new(Cursor)
	if err := c.open(e, pl, pr, make(ExecStats)); err != nil {
		return nil, err
	}
	return c, nil
}

// NextBatch returns the next batch of output rows (never empty), or nil at
// the end of the result. A projected batch is the caller's to keep: fresh
// rows in a fresh arena, never aliasing table storage. The plan's own
// rows follow vec.go's batch contract: the slice is valid until the next
// call, the rows' data forever. Once the cursor has been closed or has
// failed before the end, NextBatch returns ErrAbandonedStream rather than
// pretend the result ended.
func (c *Cursor) NextBatch() ([]storage.Row, error) {
	if c.done || c.closed {
		if c.complete {
			return nil, nil
		}
		return nil, ErrAbandonedStream
	}
	b, err := c.it.NextBatch()
	if err == nil && b != nil && c.pr != nil {
		b, err = c.pr.projectBatch(b)
	}
	if err != nil || b == nil {
		c.done = true
		c.elapsed = time.Since(c.started)
		if err == nil {
			c.complete = true
			c.e.annotateWorkerStats(c.plan, c.stats)
		}
		return nil, err
	}
	c.rows += len(b)
	return b, nil
}

// drain pulls every remaining batch, closes the cursor and returns the
// rows: the loop of every caller that materializes a result.
func (c *Cursor) drain() ([]storage.Row, error) {
	defer c.Close()
	var out []storage.Row
	for {
		b, err := c.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b...)
	}
}

// RowCount reports how many rows NextBatch has handed out so far.
func (c *Cursor) RowCount() int { return c.rows }

// Elapsed reports the wall time of the execution: live while the cursor
// is open, frozen at the value reached when it ended.
func (c *Cursor) Elapsed() time.Duration {
	if c.done {
		return c.elapsed
	}
	return time.Since(c.started)
}

// Complete reports whether NextBatch reached a clean end of the result,
// i.e. the per-operator actuals from Finish cover the whole execution. A
// cursor closed or failed mid-iteration is not complete.
func (c *Cursor) Complete() bool { return c.complete }

// Finish returns the physical plan and its per-operator actuals. The
// statistics are exact only when Complete reports true; on an abandoned
// cursor they cover the batches actually pulled, much as a real EXPLAIN
// ANALYZE under LIMIT would report.
func (c *Cursor) Finish() (*Node, ExecStats) { return c.plan, c.stats }

// Close releases the iterator pipeline. Idempotent.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if !c.done {
		c.done = true
		c.elapsed = time.Since(c.started)
	}
	err := c.it.Close()
	if !c.complete {
		// Abandoned mid-stream: Close has cancelled and drained any parallel
		// workers, so the partial per-operator actuals are now stable;
		// normalize them the same way a clean end of stream would.
		c.e.annotateWorkerStats(c.plan, c.stats)
	}
	return err
}
