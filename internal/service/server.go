package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lantern/internal/core"
	"lantern/internal/engine"
	"lantern/internal/obs"
	"lantern/internal/pager"
	"lantern/internal/plan"
	"lantern/internal/pool"
	"lantern/internal/sqlparser"
)

// Service errors. ErrOverloaded is the fast 429-style rejection: the
// request never entered the queue, so the client can retry elsewhere
// immediately instead of waiting on a doomed deadline.
var (
	ErrOverloaded = errors.New("service: queue full, request rejected")
	ErrClosed     = errors.New("service: server is shut down")
	ErrBadRequest = errors.New("service: bad request")
)

// Config sizes the serving pipeline. Zero values take defaults.
type Config struct {
	// Workers is the number of narration goroutines (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds pending requests; a full queue rejects with
	// ErrOverloaded (default: 4×Workers).
	QueueDepth int
	// RequestTimeout is the deadline applied to requests whose context has
	// none (default: 5s).
	RequestTimeout time.Duration
	// CacheBytes is the narration cache budget; 0 disables caching
	// (default when left zero on NewServer: 32 MiB; set negative to
	// disable explicitly).
	CacheBytes int64
	// CacheShards is the number of cache stripes (default: 16).
	CacheShards int
	// MaxIndexEntries caps the request→fingerprint front index
	// (default: 65536).
	MaxIndexEntries int
	// EngineSessions sizes the engine session pool executing query ops:
	// concurrent queries run on independent engine instances over the
	// shared catalog instead of serializing on one engine (default:
	// Workers). 1 reproduces the historical fully-serialized engine.
	EngineSessions int
	// SlowQueryLog, when non-nil, receives one JSON line per request at
	// least SlowQueryThreshold slow (see SlowQueryEntry). Writes are
	// decoupled from the request path by a bounded queue; entries are
	// dropped (and counted) rather than ever blocking a request. The
	// writer is not closed by Server.Close — the caller owns it.
	SlowQueryLog io.Writer
	// SlowQueryThreshold is the minimum elapsed time for a request to be
	// logged; 0 logs every request (useful in tests). Ignored without
	// SlowQueryLog.
	SlowQueryThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 32 << 20
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.MaxIndexEntries <= 0 {
		c.MaxIndexEntries = 1 << 16
	}
	if c.EngineSessions <= 0 {
		c.EngineSessions = c.Workers
	}
	return c
}

// NarrateRequest asks for the narration of one query or plan. Exactly one
// of SQL (planned by the server's embedded engine) or Plan (a serialized
// plan document in any registered dialect: PostgreSQL-style EXPLAIN JSON,
// SQL-Server-style XML showplan, or MySQL-style EXPLAIN FORMAT=JSON) must
// be set.
type NarrateRequest struct {
	SQL  string `json:"sql,omitempty"`
	Plan string `json:"plan,omitempty"`
	// Dialect names the plan frontend ("pg", "sqlserver", "mysql", or any
	// dialect registered with internal/plan). Empty means "pg" for SQL
	// requests and auto-detection for plan documents. Source is the
	// pre-registry spelling of the same field, kept for compatibility.
	Dialect string  `json:"dialect,omitempty"`
	Source  string  `json:"source,omitempty"`
	Options Options `json:"options,omitempty"`
}

// NarrateResponse is the rendered narration plus its cache identity.
// Dialect reports the effective (possibly auto-detected) plan dialect;
// Source carries the same value under the field's historical name.
type NarrateResponse struct {
	Text        string   `json:"text"`
	Steps       []Step   `json:"steps"`
	Dialect     string   `json:"dialect"`
	Source      string   `json:"source"`
	Fingerprint string   `json:"fingerprint"`
	Operators   []string `json:"operators"`
	Cached      bool     `json:"cached"`
}

// QueryRequest asks for the full loop: plan the SQL on a pooled engine
// session, execute it against the loaded dataset with per-operator
// instrumentation, and narrate the plan with its actuals — "narrate what
// actually happened", not just what the optimizer expected. The plan
// always travels the native bridge (dialect "native"), no EXPLAIN text
// involved.
type QueryRequest struct {
	SQL     string  `json:"sql"`
	Options Options `json:"options,omitempty"`
	// MaxRows caps how many result rows are echoed back (rendered as
	// strings); 0 means the default of 10, negative means none. The full
	// result cardinality is always reported in RowCount. The streaming
	// path interprets it as the emitted-row cap with no default (see
	// Server.QueryStream).
	MaxRows int `json:"max_rows,omitempty"`
	// MaxParallelism caps intra-query parallelism below the server's
	// engine configuration (see Request.MaxParallelism): 0 is the server
	// default, 1 forces serial, negative is rejected.
	MaxParallelism int `json:"max_parallelism,omitempty"`
}

// QueryResponse is the narration of an executed query plus its runtime
// outcome. Text/Steps/Fingerprint/Operators/Cached behave as in
// NarrateResponse; the narration is cached by actuals-aware plan
// fingerprint (actual rows and loops key the cache, wall time does not),
// while Columns/Rows/RowCount/ElapsedMs are fresh per execution.
type QueryResponse struct {
	Text        string     `json:"text"`
	Steps       []Step     `json:"steps"`
	Dialect     string     `json:"dialect"`
	Fingerprint string     `json:"fingerprint"`
	Operators   []string   `json:"operators"`
	Cached      bool       `json:"cached"`
	Columns     []string   `json:"columns"`
	Rows        [][]string `json:"rows,omitempty"`
	RowCount    int        `json:"row_count"`
	ElapsedMs   float64    `json:"elapsed_ms"`
	// Partial marks a streaming execution that ended before draining: its
	// actuals (and RowCount) cover only the rows pulled, so no fingerprint
	// is assigned, and the narration cache is never written from a partial
	// run. Unary queries and cleanly drained streams never set it.
	Partial bool `json:"partial,omitempty"`
}

// QARequest asks a natural-language question about one query or plan.
// Dialect/Source behave as in NarrateRequest.
type QARequest struct {
	SQL      string `json:"sql,omitempty"`
	Plan     string `json:"plan,omitempty"`
	Dialect  string `json:"dialect,omitempty"`
	Source   string `json:"source,omitempty"`
	Question string `json:"question"`
}

// QAResponse carries the answer.
type QAResponse struct {
	Answer string `json:"answer"`
}

type taskResult struct {
	resp *Response
	err  error
}

// task is one queued envelope: the pipeline stage data a worker needs to
// run the op's execute strategy.
type task struct {
	ctx      context.Context
	req      *Request
	spec     *opSpec
	enqueued time.Time       // when admission accepted it; worker derives the queue wait
	out      chan taskResult // buffered(1): workers never block on delivery
}

// Server is the concurrent narration service: admission control in front
// of a bounded queue drained by a fixed worker pool running the v2
// pipeline's execute stage, with a fingerprint-keyed narration cache in
// front of the whole thing and an engine session pool underneath query
// execution. Safe for concurrent use.
type Server struct {
	cfg   Config
	store *pool.Store
	rule  *core.RuleLantern
	cache *Cache
	// mutGen counts committed POOL mutations; a worker snapshots it before
	// reading the store and retracts its cache insert if it moved, so a
	// narration computed from pre-mutation descriptions can never outlive
	// the invalidation that should have dropped it.
	mutGen atomic.Int64

	// sessions is the engine session pool: concurrent query ops execute on
	// independent engine instances over the shared catalog. Nil when the
	// server was built without an engine (plan-document-only serving).
	sessions *engine.SessionPool

	// bufpool is the segment buffer pool of the engine's disk-backed
	// catalog; nil on an engineless server or an in-memory catalog.
	// Stats-only: the server never pins frames itself.
	bufpool *pager.Pool

	idxMu sync.RWMutex
	idx   map[Fingerprint]Fingerprint // request key → plan fingerprint

	closeMu sync.RWMutex
	closed  bool
	queue   chan *task
	// streamSem bounds concurrent streaming queries to the engine session
	// count, giving streams the same fast ErrOverloaded rejection as
	// queued ops (they run on caller goroutines, so the queue itself
	// cannot bound them). Sized to the session pool because a stream holds
	// its session across client backpressure — admitting more streams than
	// sessions would only park them in Acquire until their deadline.
	streamSem chan struct{}
	// wg tracks the worker goroutines; inflight tracks inline and
	// streaming ops running on caller goroutines. Close waits for both
	// before tearing down the session pool.
	wg       sync.WaitGroup
	inflight sync.WaitGroup
	started  time.Time

	// reg is the server's metrics registry: every instrument below is a
	// pre-bound handle into it, so /v1/stats and GET /metrics read the
	// same atomics and can never disagree. slowlog is the structured
	// slow-query sink (nil unless Config.SlowQueryLog is set).
	reg     *obs.Registry
	slowlog *obs.SlowLog

	narrateReqs *obs.Counter
	qaReqs      *obs.Counter
	queryReqs   *obs.Counter
	poolReqs    *obs.Counter
	batchReqs   *obs.Counter
	streamReqs  *obs.Counter
	rejected    *obs.Counter
	timeouts    *obs.Counter
	failures    *obs.Counter
	hitLatency  *obs.LatencyHistogram
	coldLatency *obs.LatencyHistogram
	qaLatency   *obs.LatencyHistogram
	// Query latencies are tracked apart from narrate: they include the
	// execution itself, so mixing them would swamp the narration digests.
	queryHitLatency  *obs.LatencyHistogram
	queryColdLatency *obs.LatencyHistogram
}

// NewServer builds and starts a server over a planning engine (nil is
// allowed when every request carries a pre-serialized plan) and a POEM
// store. It registers the store-mutation hook that keeps the cache
// consistent: an UPDATE/CREATE/DROP of operator X drops exactly the cached
// narrations whose plans mention X. When eng is non-nil its catalog
// statistics are warmed and an EngineSessions-sized session pool is built
// over it; the engine must not receive DML/DDL while the server serves.
func NewServer(eng *engine.Engine, store *pool.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		store:     store,
		rule:      core.NewRuleLantern(store),
		idx:       make(map[Fingerprint]Fingerprint),
		queue:     make(chan *task, cfg.QueueDepth),
		streamSem: make(chan struct{}, cfg.EngineSessions),
		started:   time.Now(),
	}
	if eng != nil {
		// The only NewSessionPool failure mode is an inconsistent catalog
		// (a table vanishing mid-walk), impossible before serving starts.
		s.sessions, _ = engine.NewSessionPool(eng, cfg.EngineSessions)
		if st := eng.Cat.Pager(); st != nil {
			s.bufpool = st.Pool()
		}
	}
	if cfg.CacheBytes > 0 {
		s.cache = NewCache(cfg.CacheShards, cfg.CacheBytes)
	}
	if cfg.SlowQueryLog != nil {
		s.slowlog = obs.NewSlowLog(cfg.SlowQueryLog, cfg.SlowQueryThreshold)
	}
	s.registerMetrics()
	store.OnMutation(func(m pool.Mutation) {
		s.mutGen.Add(1)
		s.cache.InvalidateOperator(m.Source, m.Name)
	})
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// registerMetrics builds the server's registry and binds the hot-path
// instrument handles. Request-path instruments are pre-bound counters and
// summaries (one atomic op to record); sizes and snapshot-style values
// (queue length, cache totals, session pool occupancy) are func-backed
// series read at scrape time from their source of truth.
func (s *Server) registerMetrics() {
	r := obs.NewRegistry()
	s.reg = r

	reqs := r.Counter("lantern_requests_total",
		"Requests by operation (streaming queries under op=\"stream\").", "op")
	s.narrateReqs = reqs.With(OpNarrate)
	s.qaReqs = reqs.With(OpQA)
	s.queryReqs = reqs.With(OpQuery)
	s.poolReqs = reqs.With(OpPool)
	s.batchReqs = reqs.With(OpBatch)
	s.streamReqs = reqs.With("stream")
	s.rejected = r.Counter("lantern_rejected_total",
		"Requests rejected at admission: worker queue or stream semaphore full.").With()
	s.timeouts = r.Counter("lantern_timeouts_total",
		"Requests that hit their deadline or were canceled.").With()
	s.failures = r.Counter("lantern_failures_total",
		"Requests that failed in execution (excluding timeouts and rejections).").With()

	lat := r.Summary("lantern_request_seconds",
		"Request latency by operation and cache outcome.", "op", "cache")
	s.hitLatency = lat.With(OpNarrate, "hit")
	s.coldLatency = lat.With(OpNarrate, "miss")
	s.qaLatency = lat.With(OpQA, "none")
	s.queryHitLatency = lat.With(OpQuery, "hit")
	s.queryColdLatency = lat.With(OpQuery, "miss")

	cacheEvents := r.Counter("lantern_cache_events_total",
		"Narration cache activity by event kind.", "event")
	cacheEvents.Func(func() int64 { return s.cacheCounter(func(c *Cache) *obs.Counter { return &c.hits }) }, "hit")
	cacheEvents.Func(func() int64 { return s.cacheCounter(func(c *Cache) *obs.Counter { return &c.misses }) }, "miss")
	cacheEvents.Func(func() int64 { return s.cacheCounter(func(c *Cache) *obs.Counter { return &c.evictions }) }, "eviction")
	cacheEvents.Func(func() int64 { return s.cacheCounter(func(c *Cache) *obs.Counter { return &c.invalidated }) }, "invalidation")
	cacheEvents.Func(func() int64 { return s.cacheCounter(func(c *Cache) *obs.Counter { return &c.rejectedSize }) }, "rejected_oversize")
	r.GaugeFunc("lantern_cache_entries", "Narration cache entries.",
		func() float64 { return float64(s.cache.Len()) })
	r.GaugeFunc("lantern_cache_bytes", "Accounted bytes in the narration cache.",
		func() float64 { return float64(s.cache.Bytes()) })

	r.GaugeFunc("lantern_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	r.GaugeFunc("lantern_workers", "Size of the worker pool.",
		func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("lantern_queue_depth", "Capacity of the admission queue.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	r.GaugeFunc("lantern_queue_len", "Requests currently waiting in the admission queue.",
		func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("lantern_index_entries", "Entries in the request-key front index.",
		func() float64 {
			s.idxMu.RLock()
			n := len(s.idx)
			s.idxMu.RUnlock()
			return float64(n)
		})
	r.GaugeFunc("lantern_engine_sessions", "Size of the engine session pool (0 without an engine).",
		func() float64 {
			if s.sessions == nil {
				return 0
			}
			return float64(s.sessions.Size())
		})
	r.GaugeFunc("lantern_engine_sessions_idle", "Engine sessions currently idle in the pool.",
		func() float64 {
			if s.sessions == nil {
				return 0
			}
			return float64(s.sessions.Idle())
		})

	r.CounterFunc("lantern_slow_log_written_total", "Slow-query log entries flushed to the sink.",
		func() int64 { return s.slowlog.Written() })
	r.CounterFunc("lantern_slow_log_dropped_total", "Slow-query log entries dropped (full queue or closed sink).",
		func() int64 { return s.slowlog.Dropped() })

	poolEvents := r.Counter("lantern_bufferpool_events_total",
		"Segment buffer-pool activity by event kind (all zero without a disk-backed catalog).", "event")
	poolEvents.Func(func() int64 { return s.poolStat(func(st pager.PoolStats) int64 { return int64(st.Hits) }) }, "hit")
	poolEvents.Func(func() int64 { return s.poolStat(func(st pager.PoolStats) int64 { return int64(st.Misses) }) }, "miss")
	poolEvents.Func(func() int64 { return s.poolStat(func(st pager.PoolStats) int64 { return int64(st.Evictions) }) }, "eviction")
	r.GaugeFunc("lantern_bufferpool_bytes", "Segment payload bytes resident in the buffer pool.",
		func() float64 { return float64(s.poolStat(func(st pager.PoolStats) int64 { return st.Bytes })) })
	r.GaugeFunc("lantern_bufferpool_budget_bytes", "Configured buffer-pool byte budget (0 = unbounded).",
		func() float64 { return float64(s.poolStat(func(st pager.PoolStats) int64 { return st.Budget })) })
	r.GaugeFunc("lantern_bufferpool_frames", "Segment payloads resident in the buffer pool.",
		func() float64 { return float64(s.poolStat(func(st pager.PoolStats) int64 { return int64(st.Frames) })) })
}

// poolStat reads one field of the buffer pool's stats, 0 when the engine
// has no disk-backed catalog.
func (s *Server) poolStat(pick func(pager.PoolStats) int64) int64 {
	if s.bufpool == nil {
		return 0
	}
	return pick(s.bufpool.Stats())
}

// cacheCounter reads one of the cache's counters, 0 when caching is off.
func (s *Server) cacheCounter(pick func(*Cache) *obs.Counter) int64 {
	if s.cache == nil {
		return 0
	}
	return pick(s.cache).Value()
}

// Metrics exposes the server's registry for the /metrics endpoint and
// admin tooling.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Close drains the queue and all in-flight work (worker tasks, inline
// ops, open streams), stops the workers, tears down the engine session
// pool, and rejects all future requests with ErrClosed. The drain ordering
// is deliberate: the session pool and cache stay fully usable until the
// last in-flight request has finished, so Close during a slow query can
// never panic a worker or strand its result. Idempotent.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.closeMu.Unlock()
	s.wg.Wait()
	s.inflight.Wait()
	if s.sessions != nil {
		s.sessions.Close()
	}
	// The slow log flushes last: every in-flight request has finished, so
	// every entry it offered is either queued (and drains here) or already
	// counted as dropped.
	s.slowlog.Close()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		wait := time.Since(t.enqueued)
		t.req.admissionWait = wait
		if err := t.ctx.Err(); err != nil {
			t.out <- taskResult{err: err}
			continue
		}
		// The caller handed the request over through the queue and will not
		// touch its trace until the result channel returns it (or at all, on
		// timeout), so the worker is the trace's single writer here.
		t.req.tr.Root().Add("admission", wait)
		sp := t.req.tr.Start("execute")
		resp, err := t.spec.execute(s, t.ctx, t.req)
		sp.End()
		t.out <- taskResult{resp: resp, err: err}
	}
}

// Narrate serves one narration request: constant-time on a cache hit,
// through the worker pool on a miss. It is a thin v1 wrapper over the v2
// pipeline (Do) and behaves exactly as it always has: default deadline
// when ctx has none, immediate ErrOverloaded when the queue is full.
func (s *Server) Narrate(ctx context.Context, req *NarrateRequest) (*NarrateResponse, error) {
	dialect, err := MergeDialectSource(req.Dialect, req.Source)
	if err != nil {
		s.narrateReqs.Inc()
		return nil, err
	}
	resp, err := s.Do(ctx, &Request{
		Op:      OpNarrate,
		SQL:     req.SQL,
		Plan:    req.Plan,
		Dialect: dialect,
		Options: req.Options,
	})
	if err != nil {
		return nil, err
	}
	return resp.Narrate, nil
}

// QA serves one question-answering request through the v2 pipeline.
func (s *Server) QA(ctx context.Context, req *QARequest) (*QAResponse, error) {
	dialect, err := MergeDialectSource(req.Dialect, req.Source)
	if err != nil {
		s.qaReqs.Inc()
		return nil, err
	}
	resp, err := s.Do(ctx, &Request{
		Op:       OpQA,
		SQL:      req.SQL,
		Plan:     req.Plan,
		Dialect:  dialect,
		Question: req.Question,
	})
	if err != nil {
		return nil, err
	}
	return resp.QA, nil
}

// Query serves one execute-and-narrate request through the v2 pipeline
// (the same admission control and deadlines as Narrate). There is no
// request-level fast path: the query must execute before its actuals —
// and therefore its cache key — are known, so a "hit" skips only the
// narration work, never the execution. Concurrent queries execute on
// independent pooled engine sessions.
func (s *Server) Query(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	resp, err := s.Do(ctx, &Request{
		Op:             OpQuery,
		SQL:            req.SQL,
		Options:        req.Options,
		MaxRows:        req.MaxRows,
		MaxParallelism: req.MaxParallelism,
	})
	if err != nil {
		return nil, err
	}
	return resp.Query, nil
}

// dispatch applies the default deadline, performs admission control, and
// waits for the worker's answer or the deadline, whichever first.
func (s *Server) dispatch(ctx context.Context, req *Request, spec *opSpec) (*Response, error) {
	ctx, cancel := s.withDeadline(ctx, req)
	defer cancel()
	t := &task{ctx: ctx, req: req, spec: spec, enqueued: time.Now(), out: make(chan taskResult, 1)}

	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case s.queue <- t:
		s.closeMu.RUnlock()
	default:
		s.closeMu.RUnlock()
		s.rejected.Inc()
		return nil, ErrOverloaded
	}

	select {
	case res := <-t.out:
		if res.err != nil {
			s.countFailure(res.err)
			return nil, res.err
		}
		return res.resp, nil
	case <-ctx.Done():
		s.timeouts.Inc()
		return nil, ctx.Err()
	}
}

// countFailure records a failed execution in the outcome counters, the
// same classification for queued, inline, and streaming ops.
func (s *Server) countFailure(err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.timeouts.Inc()
	} else {
		s.failures.Inc()
	}
}

// withDeadline applies the effective request deadline: the envelope's
// timeout hint (clamped by the server default) when none is inherited,
// and even under an inherited deadline — a batch child's context already
// carries the batch deadline — an explicit tighter hint still applies.
// An inherited deadline is never extended.
func (s *Server) withDeadline(ctx context.Context, req *Request) (context.Context, context.CancelFunc) {
	d := req.timeout(s.cfg.RequestTimeout)
	if dl, ok := ctx.Deadline(); ok {
		if req.TimeoutMs <= 0 || time.Until(dl) <= d {
			return ctx, func() {}
		}
	}
	return context.WithTimeout(ctx, d)
}

// enterInflight registers an inline or streaming op so Close drains it;
// the caller must pair it with s.inflight.Done().
func (s *Server) enterInflight() error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.inflight.Add(1)
	return nil
}

// MergeDialectSource resolves the v1 dialect/source field pair (source is
// the pre-registry spelling) into the single envelope dialect. Exported
// because the client SDK applies the same rule before sending.
func MergeDialectSource(dialect, source string) (string, error) {
	if dialect != "" && source != "" && dialect != source {
		return "", fmt.Errorf("%w: dialect %q and source %q disagree (set one)", ErrBadRequest, dialect, source)
	}
	if dialect == "" {
		return source, nil
	}
	return dialect, nil
}

// normalizeRequest validates the SQL/Plan/Dialect triple and returns the
// effective dialect and the raw payload the front index keys on. The
// dialect is resolved against the plan-frontend registry: dialect (or
// source, its compatibility alias) when set and registered; otherwise
// "pg" for SQL requests and auto-detection for serialized plan documents.
func normalizeRequest(sql, planDoc, dialect, source string) (string, string, error) {
	hasSQL := strings.TrimSpace(sql) != ""
	hasPlan := strings.TrimSpace(planDoc) != ""
	if hasSQL == hasPlan {
		return "", "", fmt.Errorf("%w: exactly one of sql or plan must be set", ErrBadRequest)
	}
	merged, err := MergeDialectSource(dialect, source)
	if err != nil {
		return "", "", err
	}
	dialect = merged
	switch {
	case dialect != "":
		if _, ok := plan.Lookup(dialect); !ok {
			return "", "", fmt.Errorf("%w: unknown dialect %q (registered: %s)",
				ErrBadRequest, dialect, strings.Join(plan.Dialects(), ", "))
		}
	case hasSQL:
		dialect = "pg"
	default:
		detected, err := plan.Detect(planDoc)
		if err != nil {
			return "", "", fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		dialect = detected
	}
	if hasSQL {
		return dialect, "sql\x00" + sql, nil
	}
	return dialect, "plan\x00" + planDoc, nil
}

// resolveTree turns the request payload into a vendor-neutral plan tree:
// parse the supplied plan document with the dialect's registered
// frontend, or plan the SQL on a pooled engine session, bridge the plan
// and hand it to plan.FromEngine, which gives the tree the dialect's
// EXPLAIN document would parse to and writes that document only where the
// dialect's parser reads back a different tree (sqlserver, mysql).
func (s *Server) resolveTree(ctx context.Context, sql, planDoc, source string) (*plan.Node, error) {
	if strings.TrimSpace(planDoc) != "" {
		return plan.Parse(source, planDoc)
	}
	if s.sessions == nil {
		return nil, fmt.Errorf("service: server has no planning engine; send a serialized plan instead of sql")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A dialect the engine cannot emit is refused before the SQL is read.
	if _, err := plan.EngineDialect(source); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// The SQL is parsed and planned as query parses and plans it, so its
	// errors read the same: bad requests, with parse offsets into the
	// request's SQL.
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	sess, err := s.acquireSession(ctx)
	if err != nil {
		return nil, err
	}
	pl, err := sess.Plan(sel)
	s.sessions.Release(sess)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return plan.FromEngine(source, engine.ToPlanNode(pl))
}

// narrateAndCache is the shared narrate-and-insert tail of the narrate and
// query strategies: build the LOT, narrate, render per the options, and
// insert under fp with the mutation-retraction discipline — the mutation
// generation is snapshotted before reading the POEM store, so an entry
// computed from pre-mutation descriptions can never outlive the
// invalidation that should have dropped it (either the invalidation pass
// saw our Put and removed it, or we retract it here).
func (s *Server) narrateAndCache(tree *plan.Node, fp Fingerprint, ops []string, opts Options) (*CachedNarration, error) {
	gen := s.mutGen.Load()
	lt, err := s.rule.BuildLOT(tree)
	if err != nil {
		return nil, err
	}
	nar, err := s.rule.NarrateLOT(lt)
	if err != nil {
		return nil, err
	}
	text := nar.Text()
	if opts.canonical() == PresentTree {
		text = core.PresentTree(lt, nar)
	}
	steps := make([]Step, len(nar.Steps))
	for i, st := range nar.Steps {
		steps[i] = Step{Text: st.Text, Identifier: st.Identifier}
	}
	ent := &CachedNarration{Text: text, Steps: steps, Source: tree.Source, Operators: ops}
	if s.cache != nil && s.cache.Put(fp, ent) && s.mutGen.Load() != gen {
		s.cache.Delete(fp)
	}
	return ent, nil
}

// queryEchoRows renders the first maxRows result rows as strings for the
// response body.
func queryEchoRows(res *engine.Result, maxRows int) [][]string {
	if maxRows == 0 {
		maxRows = 10
	}
	if maxRows < 0 || len(res.Rows) == 0 {
		return nil
	}
	if maxRows > len(res.Rows) {
		maxRows = len(res.Rows)
	}
	out := make([][]string, maxRows)
	for i := 0; i < maxRows; i++ {
		row := make([]string, len(res.Rows[i]))
		for j, d := range res.Rows[i] {
			row[j] = d.String()
		}
		out[i] = row
	}
	return out
}

func entryResponse(fp Fingerprint, ent *CachedNarration, cached bool) *NarrateResponse {
	return &NarrateResponse{
		Text:        ent.Text,
		Steps:       ent.Steps,
		Dialect:     ent.Source,
		Source:      ent.Source,
		Fingerprint: fp.String(),
		Operators:   ent.Operators,
		Cached:      cached,
	}
}

func (s *Server) indexGet(rkey Fingerprint) (Fingerprint, bool) {
	s.idxMu.RLock()
	fp, ok := s.idx[rkey]
	s.idxMu.RUnlock()
	return fp, ok
}

func (s *Server) indexPut(rkey, fp Fingerprint) {
	s.idxMu.Lock()
	if len(s.idx) >= s.cfg.MaxIndexEntries {
		s.idx = make(map[Fingerprint]Fingerprint, s.cfg.MaxIndexEntries/4)
	}
	s.idx[rkey] = fp
	s.idxMu.Unlock()
}

// Cache exposes the narration cache (nil when caching is disabled), for
// tests and admin tooling.
func (s *Server) Cache() *Cache { return s.cache }

// Store exposes the POEM store backing the narrations.
func (s *Server) Store() *pool.Store { return s.store }

// Stats is the /v1/stats payload: pipeline gauges, request counters,
// cache counters, and latency digests split by cache outcome.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueLen      int     `json:"queue_len"`
	IndexEntries  int     `json:"index_entries"`
	// EngineSessions / EngineSessionsIdle report the query session pool
	// (0/0 on an engineless server).
	EngineSessions     int `json:"engine_sessions"`
	EngineSessionsIdle int `json:"engine_sessions_idle"`

	NarrateRequests int64 `json:"narrate_requests"`
	QARequests      int64 `json:"qa_requests"`
	QueryRequests   int64 `json:"query_requests"`
	PoolRequests    int64 `json:"pool_requests"`
	BatchRequests   int64 `json:"batch_requests"`
	StreamRequests  int64 `json:"stream_requests"`
	Rejected        int64 `json:"rejected"`
	Timeouts        int64 `json:"timeouts"`
	Failures        int64 `json:"failures"`

	// SlowLogWritten / SlowLogDropped report the slow-query log sink
	// (0/0 when no log is configured).
	SlowLogWritten int64 `json:"slow_log_written"`
	SlowLogDropped int64 `json:"slow_log_dropped"`

	Cache CacheStats `json:"cache"`

	// BufferPool reports the disk-backed catalog's segment buffer pool;
	// omitted when the engine runs on an in-memory catalog.
	BufferPool *BufferPoolStats `json:"buffer_pool,omitempty"`

	LatencyCached      obs.LatencySummary `json:"latency_cached"`
	LatencyCold        obs.LatencySummary `json:"latency_cold"`
	LatencyQA          obs.LatencySummary `json:"latency_qa"`
	LatencyQueryCached obs.LatencySummary `json:"latency_query_cached"`
	LatencyQueryCold   obs.LatencySummary `json:"latency_query_cold"`
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	s.idxMu.RLock()
	idxLen := len(s.idx)
	s.idxMu.RUnlock()
	st := Stats{
		UptimeSeconds:      time.Since(s.started).Seconds(),
		Workers:            s.cfg.Workers,
		QueueDepth:         s.cfg.QueueDepth,
		QueueLen:           len(s.queue),
		IndexEntries:       idxLen,
		NarrateRequests:    s.narrateReqs.Value(),
		QARequests:         s.qaReqs.Value(),
		QueryRequests:      s.queryReqs.Value(),
		PoolRequests:       s.poolReqs.Value(),
		BatchRequests:      s.batchReqs.Value(),
		StreamRequests:     s.streamReqs.Value(),
		Rejected:           s.rejected.Value(),
		Timeouts:           s.timeouts.Value(),
		Failures:           s.failures.Value(),
		SlowLogWritten:     s.slowlog.Written(),
		SlowLogDropped:     s.slowlog.Dropped(),
		Cache:              s.cache.Stats(),
		LatencyCached:      s.hitLatency.Summary(),
		LatencyCold:        s.coldLatency.Summary(),
		LatencyQA:          s.qaLatency.Summary(),
		LatencyQueryCached: s.queryHitLatency.Summary(),
		LatencyQueryCold:   s.queryColdLatency.Summary(),
	}
	if s.sessions != nil {
		st.EngineSessions = s.sessions.Size()
		st.EngineSessionsIdle = s.sessions.Idle()
	}
	if s.bufpool != nil {
		ps := s.bufpool.Stats()
		st.BufferPool = &BufferPoolStats{
			Hits:        ps.Hits,
			Misses:      ps.Misses,
			Evictions:   ps.Evictions,
			Bytes:       ps.Bytes,
			BudgetBytes: ps.Budget,
			Frames:      ps.Frames,
		}
	}
	return st
}

// BufferPoolStats is the /v1/stats view of pager.PoolStats.
type BufferPoolStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
	Bytes       int64  `json:"bytes"`
	BudgetBytes int64  `json:"budget_bytes"`
	Frames      int    `json:"frames"`
}
