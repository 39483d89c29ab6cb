package service

// obs.go glues the pipeline to the observability substrate in
// internal/obs: arming the request-scoped trace, grafting engine operator
// actuals onto the span tree, and composing slow-query log entries.
//
// Tracing is armed per request — when the client asked for the span tree
// (debug=trace) or when the server keeps a slow-query log (a slow entry
// without its span tree would not be the self-contained diagnosis
// artifact it exists to be). When neither holds, req.tr stays nil and
// every span call below is a nil-receiver no-op: the cached hot path adds
// zero allocations (the guard in trace_test.go pins this).

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"lantern/internal/core"
	"lantern/internal/engine"
	"lantern/internal/obs"
	"lantern/internal/plan"
)

// DebugTrace is the Request.Debug value asking the response to embed the
// request's span tree (Response.Trace).
const DebugTrace = "trace"

// beginTrace validates the debug flag and arms the request trace when
// either the response or the slow-query log will want the span tree.
func (s *Server) beginTrace(req *Request) error {
	switch req.Debug {
	case "", DebugTrace:
	default:
		return fmt.Errorf("%w: unknown debug flag %q (valid: %q)", ErrBadRequest, req.Debug, DebugTrace)
	}
	if req.Debug == DebugTrace || s.slowlog.Enabled() {
		req.tr = obs.NewTrace(req.TraceID, "request")
		req.tr.Root().SetAttr("op", req.Op)
	}
	return nil
}

// finishRequest is the encode tail of a successful pipeline run: close
// the trace, embed it when the request asked, emit the slow-query entry,
// and seal the envelope. Failed requests never reach here — after a
// timeout the worker may still be writing spans, so the error path must
// not touch req.tr.
func (s *Server) finishRequest(resp *Response, req *Request, elapsed time.Duration) *Response {
	if req.tr != nil {
		req.tr.Finish()
		if req.Debug == DebugTrace {
			resp.Trace = req.tr.Info()
		}
	}
	s.maybeSlowLog(req, resp, elapsed)
	return s.seal(resp, req)
}

// attachOperatorSpans grafts the executed plan's per-operator actuals —
// collected by the engine's iterator instrumentation and bridged onto the
// tree as AttrActualRows/AttrLoops/AttrTimeMs — under parent as
// pre-measured "op:<Name>" spans mirroring the plan shape. The trace
// therefore reports exactly what the instrumentation measured; no second
// clock is involved. en and st walk the engine's physical plan in lockstep
// with the bridged tree (ToPlanNodeStats preserves shape) so operators
// that ran morsel-parallel grow one "worker:<i>" child span per worker,
// carrying that worker's row share and busy time.
func attachOperatorSpans(parent *obs.Span, n *plan.Node, en *engine.Node, st engine.ExecStats) {
	if parent == nil || n == nil {
		return
	}
	var d time.Duration
	if ms, err := strconv.ParseFloat(n.Attr(plan.AttrTimeMs), 64); err == nil {
		d = time.Duration(ms * float64(time.Millisecond))
	}
	sp := parent.Add("op:"+n.Name, d)
	if rows := n.Attr(plan.AttrActualRows); rows != "" {
		sp.SetAttr("rows", rows)
	}
	if loops := n.Attr(plan.AttrLoops); loops != "" {
		sp.SetAttr("loops", loops)
	}
	if workers := n.Attr(plan.AttrWorkers); workers != "" {
		sp.SetAttr("workers", workers)
	}
	if segs := n.Attr(plan.AttrSegments); segs != "" {
		sp.SetAttr("segments", segs)
		if pruned := n.Attr(plan.AttrSegmentsPruned); pruned != "" {
			sp.SetAttr("segments_pruned", pruned)
		}
	}
	if en != nil && st != nil {
		if os := st[en]; os != nil {
			for i, w := range os.PerWorker {
				ws := sp.Add("worker:"+strconv.Itoa(i), w.Time)
				ws.SetAttr("rows", strconv.FormatInt(w.Rows, 10))
			}
		}
	}
	for i, c := range n.Children {
		var ec *engine.Node
		if en != nil && i < len(en.Children) {
			ec = en.Children[i]
		}
		attachOperatorSpans(sp, c, ec, st)
	}
}

// SlowQueryEntry is one JSON line of the slow-query log: everything
// needed to diagnose the request after the fact, keyed by the plan
// fingerprint so repeat offenders aggregate.
type SlowQueryEntry struct {
	TS              string         `json:"ts"`
	Op              string         `json:"op"`
	TraceID         string         `json:"trace_id,omitempty"`
	Fingerprint     string         `json:"fingerprint,omitempty"`
	ElapsedMs       float64        `json:"elapsed_ms"`
	ThresholdMs     float64        `json:"threshold_ms"`
	Cache           string         `json:"cache"` // hit | miss | off | none
	AdmissionWaitMs float64        `json:"admission_wait_ms"`
	Trace           *obs.TraceInfo `json:"trace,omitempty"`
	MisEstimates    []string       `json:"mis_estimates,omitempty"`
	// Segments / SegmentsPruned total the columnar segments the query's
	// scans considered and skipped via zone maps, summed over the executed
	// tree. Both absent when no scan saw a sealed segment.
	Segments       int64 `json:"segments,omitempty"`
	SegmentsPruned int64 `json:"segments_pruned,omitempty"`
}

// maybeSlowLog emits a slow-query entry when the server keeps a log and
// the request met the threshold (threshold 0 logs everything).
func (s *Server) maybeSlowLog(req *Request, resp *Response, elapsed time.Duration) {
	if !s.slowlog.Enabled() || elapsed < s.slowlog.Threshold() {
		return
	}
	ent := SlowQueryEntry{
		TS:              time.Now().UTC().Format(time.RFC3339Nano),
		Op:              req.Op,
		TraceID:         req.tr.ID(),
		ElapsedMs:       float64(elapsed) / 1e6,
		ThresholdMs:     float64(s.slowlog.Threshold()) / 1e6,
		Cache:           s.cacheDisposition(resp),
		AdmissionWaitMs: float64(req.admissionWait) / 1e6,
		Trace:           req.tr.Info(),
		MisEstimates:    MisEstimates(req.slowTree),
	}
	ent.Segments, ent.SegmentsPruned = segmentTotals(req.slowTree)
	switch {
	case resp.Narrate != nil:
		ent.Fingerprint = resp.Narrate.Fingerprint
	case resp.Query != nil:
		ent.Fingerprint = resp.Query.Fingerprint
	}
	line, err := json.Marshal(ent)
	if err != nil {
		return
	}
	s.slowlog.Offer(line)
}

// cacheDisposition classifies how the narration cache treated the
// request: hit/miss for the cached ops, off when caching is disabled,
// none for ops the cache does not apply to (qa, pool, batch).
func (s *Server) cacheDisposition(resp *Response) string {
	var cached *bool
	switch {
	case resp.Narrate != nil:
		cached = &resp.Narrate.Cached
	case resp.Query != nil:
		cached = &resp.Query.Cached
	default:
		return "none"
	}
	if s.cache == nil {
		return "off"
	}
	if *cached {
		return "hit"
	}
	return "miss"
}

// MisEstimates walks an executed plan tree and reports every operator
// whose optimizer estimate missed the per-loop actuals by at least
// core.MisEstimateFactor in either direction. It applies the narration's
// test, core.MisEstimate, so the slow log calls out exactly the nodes the
// narration does.
func MisEstimates(n *plan.Node) []string {
	if n == nil {
		return nil
	}
	var out []string
	collectMisEstimates(n, &out)
	return out
}

// segmentTotals sums the segment-pruning attributes over an executed plan
// tree: how many sealed columnar segments the query's scans considered and
// how many their zone maps let them skip.
func segmentTotals(n *plan.Node) (segs, pruned int64) {
	if n == nil {
		return 0, 0
	}
	if v, err := strconv.ParseInt(n.Attr(plan.AttrSegments), 10, 64); err == nil {
		segs += v
	}
	if v, err := strconv.ParseInt(n.Attr(plan.AttrSegmentsPruned), 10, 64); err == nil {
		pruned += v
	}
	for _, c := range n.Children {
		s, p := segmentTotals(c)
		segs += s
		pruned += p
	}
	return segs, pruned
}

func collectMisEstimates(n *plan.Node, out *[]string) {
	switch perLoop, dir := core.MisEstimate(n); dir {
	case 1:
		*out = append(*out, fmt.Sprintf("%s: expected %.0f rows, got %.0f per loop (%.1fx underestimate)",
			n.Name, n.Rows, perLoop, perLoop/n.Rows))
	case -1:
		*out = append(*out, fmt.Sprintf("%s: expected %.0f rows, got %.0f per loop (%.1fx overestimate)",
			n.Name, n.Rows, perLoop, n.Rows/math.Max(perLoop, 1)))
	}
	for _, c := range n.Children {
		collectMisEstimates(c, out)
	}
}
