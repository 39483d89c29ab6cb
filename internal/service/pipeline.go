package service

// pipeline.go is the single v2 request pipeline: every operation — v2
// envelopes and the v1 compatibility wrappers alike — flows through
// Do(ctx, Request), which runs the shared middleware stages:
//
//	route → validate → fast-path cache → admission → execute → observe → encode
//
// Per-op behavior is expressed as an opSpec (strategy hooks), not as
// separate handler paths: validation normalizes the request in place, the
// fast path answers repeat narrations from the fingerprint cache without
// queueing, admission applies the default deadline and bounded-queue
// rejection, and execution runs on the worker pool (or inline for cheap
// self-synchronized ops like POOL statements). Failures leave the
// pipeline as *ErrorInfo — a stable machine-readable code plus retryable
// bit — while still unwrapping to the service sentinels for errors.Is.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"lantern/internal/engine"
	"lantern/internal/plan"
	"lantern/internal/qa"
)

// maxBatchSize bounds the fan-out of one batch envelope.
const maxBatchSize = 64

// opSpec is the per-op strategy plugged into the shared pipeline.
type opSpec struct {
	// count bumps the op's request counter.
	count func(s *Server)
	// validate checks and normalizes the request in place. Errors become
	// CodeBadRequest.
	validate func(s *Server, r *Request) error
	// fastPath may answer without admission (cache hits). ok=false falls
	// through to execution.
	fastPath func(s *Server, r *Request) (*Response, bool)
	// inline runs execute on the caller's goroutine instead of the worker
	// pool — for cheap ops that synchronize themselves (POOL statements)
	// and for batch, whose children are admitted individually.
	inline bool
	// execute produces the op's payload.
	execute func(s *Server, ctx context.Context, r *Request) (*Response, error)
	// observe records the op's latency after a successful execution.
	observe func(s *Server, resp *Response, elapsed time.Duration)
}

// opSpecs maps each op kind to its strategy. Populated in init (not a
// composite literal) because the batch strategy recurses into Do.
var opSpecs map[string]*opSpec

func init() {
	opSpecs = map[string]*opSpec{
		OpNarrate: {
			count:    func(s *Server) { s.narrateReqs.Inc() },
			validate: validateNarrate,
			fastPath: narrateFastPath,
			execute: func(s *Server, ctx context.Context, r *Request) (*Response, error) {
				resp, err := s.execNarrate(ctx, r)
				if err != nil {
					return nil, err
				}
				return &Response{Narrate: resp}, nil
			},
			observe: func(s *Server, resp *Response, elapsed time.Duration) {
				if resp.Narrate != nil && resp.Narrate.Cached {
					s.hitLatency.Observe(elapsed)
				} else {
					s.coldLatency.Observe(elapsed)
				}
			},
		},
		OpQuery: {
			count:    func(s *Server) { s.queryReqs.Inc() },
			validate: validateQuery,
			execute: func(s *Server, ctx context.Context, r *Request) (*Response, error) {
				resp, err := s.execQuery(ctx, r)
				if err != nil {
					return nil, err
				}
				return &Response{Query: resp}, nil
			},
			observe: func(s *Server, resp *Response, elapsed time.Duration) {
				if resp.Query != nil && resp.Query.Cached {
					s.queryHitLatency.Observe(elapsed)
				} else {
					s.queryColdLatency.Observe(elapsed)
				}
			},
		},
		OpQA: {
			count:    func(s *Server) { s.qaReqs.Inc() },
			validate: validateQA,
			execute: func(s *Server, ctx context.Context, r *Request) (*Response, error) {
				resp, err := s.execQA(ctx, r)
				if err != nil {
					return nil, err
				}
				return &Response{QA: resp}, nil
			},
			observe: func(s *Server, resp *Response, elapsed time.Duration) {
				s.qaLatency.Observe(elapsed)
			},
		},
		OpPool: {
			count: func(s *Server) { s.poolReqs.Inc() },
			validate: func(s *Server, r *Request) error {
				if strings.TrimSpace(r.Stmt) == "" {
					return fmt.Errorf("%w: stmt must not be empty", ErrBadRequest)
				}
				return nil
			},
			inline: true,
			execute: func(s *Server, ctx context.Context, r *Request) (*Response, error) {
				res, err := s.store.Exec(r.Stmt)
				if err != nil {
					// POOL statement errors are client errors: the statement was
					// malformed or referenced a missing operator/source.
					return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
				}
				// Rows stays nil-transparent: the v1 adapter serializes this
				// struct directly and the historical body rendered absent
				// rows as JSON null.
				return &Response{Pool: &PoolResponse{
					Affected: res.Affected,
					Rows:     res.Rows,
					Template: res.Template,
				}}, nil
			},
		},
		OpBatch: {
			count: func(s *Server) { s.batchReqs.Inc() },
			validate: func(s *Server, r *Request) error {
				if len(r.Batch) == 0 {
					return fmt.Errorf("%w: batch must contain at least one request", ErrBadRequest)
				}
				if len(r.Batch) > maxBatchSize {
					return fmt.Errorf("%w: batch of %d exceeds the limit of %d", ErrBadRequest, len(r.Batch), maxBatchSize)
				}
				for i, sub := range r.Batch {
					if sub == nil {
						return fmt.Errorf("%w: batch entry %d is null", ErrBadRequest, i)
					}
					if sub.Op == OpBatch {
						return fmt.Errorf("%w: batch entry %d: batches do not nest", ErrBadRequest, i)
					}
				}
				return nil
			},
			inline: true,
			execute: func(s *Server, ctx context.Context, r *Request) (*Response, error) {
				return execBatch(s, ctx, r)
			},
		},
	}
}

// Do runs one envelope through the pipeline. On success the Response
// carries the op's payload; on failure the returned error is an
// *ErrorInfo (code, message, retryable) that unwraps to the underlying
// service sentinel. Safe for concurrent use.
func (s *Server) Do(ctx context.Context, req *Request) (*Response, error) {
	// Route: resolve the op strategy.
	spec, ok := opSpecs[req.Op]
	if !ok {
		return nil, AsErrorInfo(fmt.Errorf("%w: unknown op %q (valid: narrate, query, qa, pool, batch)", ErrBadRequest, req.Op))
	}
	spec.count(s)

	// The whole pipeline run holds an in-flight slot, so Close cannot tear
	// down the slow-query log (or any other shared sink) between a
	// worker's answer and this caller's encode tail.
	if err := s.enterInflight(); err != nil {
		return nil, AsErrorInfo(err)
	}
	defer s.inflight.Done()

	start := time.Now()
	// Arm the request trace (debug=trace or a configured slow-query log);
	// with neither, req.tr stays nil and every span call below is a free
	// nil-receiver no-op.
	if err := s.beginTrace(req); err != nil {
		return nil, AsErrorInfo(err)
	}

	// Validate: per-op checks and in-place normalization.
	if spec.validate != nil {
		sp := req.tr.Start("validate")
		err := spec.validate(s, req)
		sp.End()
		if err != nil {
			return nil, AsErrorInfo(err)
		}
	}

	// Fast path: cache hits bypass admission entirely.
	if spec.fastPath != nil {
		sp := req.tr.Start("cache")
		resp, hit := spec.fastPath(s, req)
		sp.End()
		if hit {
			if spec.observe != nil {
				spec.observe(s, resp, time.Since(start))
			}
			return s.finishRequest(resp, req, time.Since(start)), nil
		}
	}

	// Admission + execute: inline ops run on the caller's goroutine under
	// the in-flight tracker; everything else is queued to the worker pool
	// (the worker records the admission wait and the execute span).
	var (
		resp *Response
		err  error
	)
	if spec.inline {
		resp, err = s.runInline(ctx, req, spec)
	} else {
		resp, err = s.dispatch(ctx, req, spec)
	}
	if err != nil {
		// On a timeout the worker may still be executing — and writing
		// spans — so the error path must not touch req.tr (finishRequest
		// would).
		return nil, AsErrorInfo(err)
	}
	if spec.observe != nil {
		spec.observe(s, resp, time.Since(start))
	}
	return s.finishRequest(resp, req, time.Since(start)), nil
}

// seal stamps the envelope bookkeeping (op echo, correlation ID) onto a
// payload response — the encode stage of the pipeline.
func (s *Server) seal(resp *Response, req *Request) *Response {
	resp.Op = req.Op
	resp.ID = req.ID
	return resp
}

// runInline executes a cheap self-synchronized op on the caller's
// goroutine, still honoring closed-state, deadline, and in-flight
// tracking so Close drains it like any queued work.
func (s *Server) runInline(ctx context.Context, req *Request, spec *opSpec) (*Response, error) {
	if err := s.enterInflight(); err != nil {
		return nil, err
	}
	defer s.inflight.Done()
	ctx, cancel := s.withDeadline(ctx, req)
	defer cancel()
	if err := ctx.Err(); err != nil {
		s.timeouts.Inc()
		return nil, err
	}
	sp := req.tr.Start("execute")
	resp, err := spec.execute(s, ctx, req)
	sp.End()
	if err != nil {
		s.countFailure(err)
		return nil, err
	}
	return resp, nil
}

// execBatch fans the batch's sub-requests through the pipeline
// concurrently — each child is admitted, validated, and executed exactly
// as if sent alone — and preserves order in the combined response.
// Individual failures are embedded per entry; the batch itself succeeds.
func execBatch(s *Server, ctx context.Context, r *Request) (*Response, error) {
	out := make([]*Response, len(r.Batch))
	done := make(chan int, len(r.Batch))
	for i, sub := range r.Batch {
		go func(i int, sub *Request) {
			resp, err := s.Do(ctx, sub)
			if err != nil {
				resp = &Response{Op: sub.Op, ID: sub.ID, Error: AsErrorInfo(err)}
			}
			out[i] = resp
			done <- i
		}(i, sub)
	}
	for range r.Batch {
		<-done
	}
	return &Response{Batch: out}, nil
}

// --- validation strategies -------------------------------------------------

func validateNarrate(s *Server, r *Request) error {
	dialect, payload, err := normalizeRequest(r.SQL, r.Plan, r.Dialect, "")
	if err != nil {
		return err
	}
	r.Dialect, r.payload = dialect, payload
	return nil
}

func validateQuery(s *Server, r *Request) error {
	if strings.TrimSpace(r.SQL) == "" {
		return fmt.Errorf("%w: sql must not be empty", ErrBadRequest)
	}
	if r.MaxParallelism < 0 {
		return fmt.Errorf("%w: max_parallelism must not be negative (0 means the server default)", ErrBadRequest)
	}
	if s.sessions == nil {
		return fmt.Errorf("%w: server has no embedded engine; query is unavailable", ErrBadRequest)
	}
	return nil
}

func validateQA(s *Server, r *Request) error {
	dialect, payload, err := normalizeRequest(r.SQL, r.Plan, r.Dialect, "")
	if err != nil {
		return err
	}
	if strings.TrimSpace(r.Question) == "" {
		return fmt.Errorf("%w: question must not be empty", ErrBadRequest)
	}
	r.Dialect, r.payload = dialect, payload
	return nil
}

// narrateFastPath answers a repeated narration without parsing, planning,
// or queueing. The request-key front index is consulted first — it maps
// this exact (dialect, payload, options) triple to its plan fingerprint,
// so it can never serve a mismatched narration. The client-supplied
// fingerprint hint is honored only when the index has no entry for the
// request (e.g. evicted, or a fresh server): it then acts as the client's
// memory of the index mapping. When the index *does* know the request and
// disagrees with the hint, the hint is stale and is ignored. Only active
// when caching is on.
func narrateFastPath(s *Server, r *Request) (*Response, bool) {
	if s.cache == nil {
		return nil, false
	}
	rkey := requestKey(r.Dialect, r.payload, r.Options)
	if fp, ok := s.indexGet(rkey); ok {
		if ent, ok := s.cache.Get(fp); ok {
			return &Response{Narrate: entryResponse(fp, ent, true)}, true
		}
		return nil, false
	}
	if fp, ok := r.fingerprintHint(); ok {
		if ent, ok := s.cache.Get(fp); ok {
			return &Response{Narrate: entryResponse(fp, ent, true)}, true
		}
	}
	return nil, false
}

// --- execution strategies --------------------------------------------------

// execNarrate resolves the plan tree, fingerprints it, and narrates (or
// answers from the plan-level cache).
func (s *Server) execNarrate(ctx context.Context, r *Request) (*NarrateResponse, error) {
	sp := r.tr.Start("resolve_plan")
	tree, err := s.resolveTree(ctx, r.SQL, r.Plan, r.Dialect)
	sp.End()
	if err != nil {
		return nil, err
	}
	fp, ops := PlanFingerprint(tree, r.Options)
	if s.cache != nil {
		s.indexPut(requestKey(r.Dialect, r.payload, r.Options), fp)

		// Plan-level hit: a different SQL text (or raw plan doc) that
		// planned to an already-narrated tree.
		if ent, ok := s.cache.Get(fp); ok {
			return entryResponse(fp, ent, true), nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp = r.tr.Start("narrate")
	ent, err := s.narrateAndCache(tree, fp, ops, r.Options)
	sp.End()
	if err != nil {
		return nil, err
	}
	return entryResponse(fp, ent, false), nil
}

// execQuery is the worker pool's query op: runQuery, echoing at most
// max_rows rendered result rows (0 means 10, negative none) in the
// response.
func (s *Server) execQuery(ctx context.Context, r *Request) (*QueryResponse, error) {
	var rows [][]string
	resp, err := s.runQuery(ctx, r, emitCap(r.MaxRows, 10), StreamCallbacks{
		OnRow: func(row []string) error {
			rows = append(rows, row)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	resp.Rows = rows
	return resp, nil
}

// emitCap is how many rows a query hands out for a request's max_rows:
// dflt when it is 0, none when it is negative.
func emitCap(maxRows, dflt int) int {
	if maxRows == 0 {
		return dflt
	}
	return maxRows
}

// runQuery is the end-to-end query pipeline, unary and streamed: acquire
// an engine session from the pool, open the engine's instrumented cursor
// over the SQL, hand the first emit rows to cb.OnRow rendered as strings
// and drain the rest for complete actuals, then bridge the plan with its
// actuals into a native tree and narrate it through finishQuery. The
// deadline is checked before every row, so a query whose pipeline is
// producing rows stops within a row of it. Concurrent queries run on
// independent sessions; nothing serializes them.
func (s *Server) runQuery(ctx context.Context, r *Request, emit int, cb StreamCallbacks) (*QueryResponse, error) {
	sp := r.tr.Start("session_acquire")
	sess, err := s.acquireSession(ctx)
	sp.End()
	if err != nil {
		return nil, err
	}
	spRun := r.tr.Start("run_sql")
	q, err := s.drain(ctx, sess, r, emit, cb)
	spRun.End()
	if err != nil {
		return nil, err
	}
	pl, stats := q.Finish()
	sp = r.tr.Start("bridge")
	tree := engine.ToPlanNodeStats(pl, stats)
	fp, ops := PlanFingerprint(tree, r.Options)
	sp.End()
	// The operator spans hang off run_sql — that is when they executed —
	// with the durations/rows/loops the iterator instrumentation measured,
	// plus one child span per parallel worker on morsel-driven operators.
	attachOperatorSpans(spRun, tree, pl, stats)

	resp := &QueryResponse{
		Dialect:     tree.Source,
		Fingerprint: fp.String(),
		Operators:   ops,
		Columns:     q.Columns,
		RowCount:    q.RowCount(),
		ElapsedMs:   float64(q.Elapsed()) / 1e6,
	}
	if err := s.finishQuery(ctx, tree, fp, ops, r, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// drain runs r's SQL on sess through the engine's cursor, pulling every
// batch and handing out rows as runQuery describes, and returns the
// closed cursor. sess goes back to the pool when the cursor closes.
func (s *Server) drain(ctx context.Context, sess *engine.Engine, r *Request, emit int, cb StreamCallbacks) (*engine.Cursor, error) {
	defer s.sessions.Release(sess)
	q, err := capParallelism(sess, r.MaxParallelism).QueryStreamInstrumented(r.SQL)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	defer q.Close()
	if cb.OnColumns != nil {
		if err := cb.OnColumns(q.Columns); err != nil {
			return nil, err
		}
	}
	if cb.OnRow == nil {
		emit = 0
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := q.NextBatch()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		if b == nil {
			return q, nil
		}
		for _, row := range b {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if emit <= 0 {
				continue // keep executing for complete actuals, stop emitting
			}
			rendered := make([]string, len(row))
			for i, d := range row {
				rendered[i] = d.String()
			}
			if err := cb.OnRow(rendered); err != nil {
				return nil, err
			}
			emit--
		}
	}
}

// finishQuery attaches the narration to an executed query response:
// answered from the actuals-aware fingerprint cache when possible,
// narrated and cached otherwise. Shared by the unary and streaming paths.
func (s *Server) finishQuery(ctx context.Context, tree *plan.Node, fp Fingerprint, ops []string, r *Request, resp *QueryResponse) error {
	if s.slowlog.Enabled() {
		// Keep the executed tree for the slow log's mis-estimate callouts.
		r.slowTree = tree
	}
	if s.cache != nil {
		sp := r.tr.Start("plan_cache")
		ent, ok := s.cache.Get(fp)
		sp.End()
		if ok {
			resp.Text, resp.Steps, resp.Cached = ent.Text, ent.Steps, true
			return nil
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sp := r.tr.Start("narrate")
	ent, err := s.narrateAndCache(tree, fp, ops, r.Options)
	sp.End()
	if err != nil {
		return err
	}
	resp.Text, resp.Steps = ent.Text, ent.Steps
	return nil
}

func (s *Server) execQA(ctx context.Context, r *Request) (*QAResponse, error) {
	tree, err := s.resolveTree(ctx, r.SQL, r.Plan, r.Dialect)
	if err != nil {
		return nil, err
	}
	answerer, err := qa.New(s.store, tree)
	if err != nil {
		return nil, err
	}
	answer, err := answerer.Answer(r.Question)
	if err != nil {
		return nil, err
	}
	return &QAResponse{Answer: answer}, nil
}

// acquireSession checks an engine session out of the pool, translating
// pool shutdown into the service's closed error.
func (s *Server) acquireSession(ctx context.Context) (*engine.Engine, error) {
	sess, err := s.sessions.Acquire(ctx)
	if errors.Is(err, engine.ErrPoolClosed) {
		return nil, ErrClosed
	}
	return sess, err
}

// capParallelism returns the engine session a query should run on: the
// pooled session itself when the envelope hint does not lower the DOP cap,
// or a per-request session copy with the cap lowered to the hint. The hint
// can only lower parallelism — a server configured serial stays serial —
// and the pooled session is what gets released back to the pool either way.
func capParallelism(sess *engine.Engine, hint int) *engine.Engine {
	if hint <= 0 {
		return sess
	}
	cur := sess.Cfg.MaxQueryParallelism
	switch {
	case cur < 0:
		return sess // already forced serial; the hint cannot raise it
	case cur == 0:
		cur = runtime.GOMAXPROCS(0)
	}
	if hint >= cur {
		return sess
	}
	run := sess.Session()
	run.Cfg.MaxQueryParallelism = hint
	return run
}
