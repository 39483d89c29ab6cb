package service

// stream.go is the streaming flavor of the query op. It runs the unary
// op's runner (runQuery, pipeline.go) on the caller's goroutine instead
// of a worker's: every row goes to the caller as the engine's cursor
// produces it (backpressure is the caller's transport, e.g. a flushed
// NDJSON HTTP response), and the narration, which needs the complete
// actuals, follows as a trailer. Admission mirrors the worker queue's
// fast rejection: concurrent streams are bounded by the engine session
// count (streamSem is sized to EngineSessions) with an immediate
// ErrOverloaded when saturated, and the server's in-flight group tracks
// every open stream so Close drains them before teardown.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// StreamCallbacks receives the incremental parts of a streaming query.
// OnColumns (optional) fires once before the first row; OnRow fires per
// emitted row with freshly rendered strings. A non-nil error from either
// aborts the stream and is returned from the streaming call verbatim.
type StreamCallbacks struct {
	OnColumns func(cols []string) error
	OnRow     func(row []string) error
}

// DoStream executes one query envelope incrementally: rows are emitted
// through cb as they are produced, then the executed plan is bridged,
// fingerprinted, and narrated exactly as the unary query path does, and
// the complete envelope response — the stream's trailer, with
// Query.Rows nil since they already went through cb — is returned. The
// envelope's deadline (timeout_ms) and correlation ID apply as on any
// other op; req.Op may be empty or OpQuery.
//
// MaxRows bounds how many rows are emitted: 0 means all (streaming has no
// echo default), positive caps the emitted rows, negative emits none.
// Execution always runs to completion so the narrated actuals cover the
// whole query, matching the unary path's fingerprint for the same SQL.
func (s *Server) DoStream(ctx context.Context, req *Request, cb StreamCallbacks) (*Response, error) {
	s.streamReqs.Inc()
	if req.Op != "" && req.Op != OpQuery {
		return nil, AsErrorInfo(fmt.Errorf("%w: op %q does not stream (only query)", ErrBadRequest, req.Op))
	}
	req.Op = OpQuery
	if err := validateQuery(s, req); err != nil {
		return nil, AsErrorInfo(err)
	}
	start := time.Now()
	resp, err := s.queryStream(ctx, req, cb)
	if err != nil {
		if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrClosed) {
			s.countFailure(err)
		}
		return nil, AsErrorInfo(err)
	}
	// Streams share the query latency digests: the digest then covers the
	// query path whichever flavor traffic takes. The elapsed time includes
	// client backpressure — for a stream, delivery is the request.
	elapsed := time.Since(start)
	if resp.Cached {
		s.queryHitLatency.Observe(elapsed)
	} else {
		s.queryColdLatency.Observe(elapsed)
	}
	sealed := s.seal(&Response{Query: resp}, req)
	// Slow streams are logged like unary queries, minus the span tree:
	// streams never arm a trace (rows already left through cb, so there is
	// no response to embed one in), but the fingerprint, cache disposition,
	// and mis-estimate callouts still make the entry actionable.
	s.maybeSlowLog(req, sealed, elapsed)
	return sealed, nil
}

// QueryStream is the typed convenience over DoStream, mirroring Query.
func (s *Server) QueryStream(ctx context.Context, req *QueryRequest, cb StreamCallbacks) (*QueryResponse, error) {
	resp, err := s.DoStream(ctx, &Request{
		Op:             OpQuery,
		SQL:            req.SQL,
		Options:        req.Options,
		MaxRows:        req.MaxRows,
		MaxParallelism: req.MaxParallelism,
	}, cb)
	if err != nil {
		return nil, err
	}
	return resp.Query, nil
}

// queryStream admits a stream and runs it on the caller's goroutine:
// runQuery with every row emitted unless max_rows caps it.
func (s *Server) queryStream(ctx context.Context, req *Request, cb StreamCallbacks) (*QueryResponse, error) {
	if err := s.enterInflight(); err != nil {
		return nil, err
	}
	defer s.inflight.Done()
	// Admission: fast rejection like the worker queue, bounded by the
	// session pool size (see the streamSem field comment).
	select {
	case s.streamSem <- struct{}{}:
		defer func() { <-s.streamSem }()
	default:
		s.rejected.Inc()
		return nil, ErrOverloaded
	}
	ctx, cancel := s.withDeadline(ctx, req)
	defer cancel()
	return s.runQuery(ctx, req, emitCap(req.MaxRows, math.MaxInt), cb)
}
