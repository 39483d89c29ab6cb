package main

// trace.go is the traced replay that breaks a workload down by layer. It
// runs after the measured window, so tracing never touches the end-to-end
// numbers. Client 0's sequence is replayed from its start in two phases:
//
//  1. over HTTP against a freshly started daemon, timing each round trip;
//  2. in process, after the daemon has exited, on an identically
//     configured service.Server over the same data: service.Server.Do,
//     then the layers' public calls in pipeline order, each timed from
//     outside, then json encoding of the response as the handler does it.
//
// The layer calls repeat the work Do did, outside it, so their durations
// (not their intervals) nest: a span's self time is its duration minus
// its children's. EXPLAIN parses and plans internally, so the separately
// timed parse and plan spans are its children.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lantern/internal/core"
	"lantern/internal/engine"
	"lantern/internal/lot"
	"lantern/internal/plan"
	"lantern/internal/pool"
	"lantern/internal/qa"
	"lantern/internal/service"
	"lantern/internal/sqlparser"
)

// replayMax is the longest replay: the first replayMax requests.
const replayMax = 500

// span is one timed call of the replay. InDo marks work that ran inside
// the request's Do: a cached narration skips the narration layers.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	InDo   bool   `json:"in_do,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// queryStats is what one executed query reports about its scans.
type queryStats struct {
	class            string
	rowsScanned      int64
	segments, pruned int64
	estOverActual    float64 // of the first scan; 0 when it produced no rows
}

type replayResult struct {
	t0        time.Time
	spans     []span
	bytes     []int64
	queries   []queryStats
	attempted int
	failed    int
	failures  []string
}

func (r *replayResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// timed runs f as span name of request req.
func (r *replayResult) timed(req int, name, parent string, inDo bool, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	r.spans = append(r.spans, span{Req: req, Name: name, Parent: parent,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), InDo: inDo})
	return err
}

// replay runs both phases for at most replayMax requests, stopping phase 1
// once budget has elapsed; phase 2 replays exactly what phase 1 sent.
func (rn *runner) replay(ctx context.Context, budget time.Duration) (*replayResult, error) {
	d, _, err := rn.start(ctx, "replay")
	if err != nil {
		return nil, err
	}
	next := rn.w.newGen(rn.fx, rn.seed, 0, rn.clients)
	bc := newBenchClient(d.base, next, &checker{o: rn.o})
	res := &replayResult{t0: time.Now()}
	var reqs []request
	for len(reqs) < replayMax && time.Since(res.t0) < budget && ctx.Err() == nil {
		req := next()
		i := len(reqs)
		reqs = append(reqs, req)
		before := bc.bc.n.Load()
		res.attempted++
		err := res.timed(i, "http", "", false, func() error {
			resp, err := bc.send(ctx, req)
			return bc.chk.check(req, resp, err, false)
		})
		if err != nil {
			res.fail("http %s %s: %v", req.Op, req.Class, err)
		}
		res.bytes = append(res.bytes, bc.bc.n.Load()-before)
	}
	bc.close()
	d.stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, rn.replayInProcess(ctx, res, reqs)
}

func (rn *runner) replayInProcess(ctx context.Context, res *replayResult, reqs []request) error {
	eng, err := openEngine(rn.w.data, rn.dataDir)
	if err != nil {
		return err
	}
	srv := service.NewServer(eng, pool.NewSeededStore(), service.Config{CacheBytes: rn.w.data.CacheMB << 20})
	defer srv.Close()
	// The layer calls get their own engine over the shared catalog and
	// their own POEM store, which sees the same POOL writes as the
	// server's.
	layerEng := engine.NewWithCatalog(engine.DefaultConfig(), eng.Cat)
	layerStore := pool.NewSeededStore()
	rule := core.NewRuleLantern(layerStore)
	for i, req := range reqs {
		if err := ctx.Err(); err != nil {
			return err
		}
		env := &service.Request{Op: req.Op, SQL: req.SQL, Plan: req.Plan, Dialect: req.Dialect,
			Question: req.Question, Stmt: req.Stmt, MaxRows: req.MaxRows}
		var resp *service.Response
		err := res.timed(i, "service.do", "http", false, func() error {
			var err error
			if req.Stream {
				resp, err = srv.DoStream(ctx, env, service.StreamCallbacks{
					OnColumns: func([]string) error { return nil },
					OnRow:     func([]string) error { return nil },
				})
			} else {
				resp, err = srv.Do(ctx, env)
			}
			return err
		})
		if err != nil {
			res.fail("do %s %s: %v", req.Op, req.Class, err)
			continue
		}
		res.timed(i, "httpapi.encode", "http", false, func() error {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			return enc.Encode(resp)
		})
		cached := (resp.Narrate != nil && resp.Narrate.Cached) || (resp.Query != nil && resp.Query.Cached)
		if err := layers(res, i, req, !cached, layerEng, layerStore, rule); err != nil {
			res.fail("layers %s %s: %v", req.Op, req.Class, err)
		}
	}
	return nil
}

// layers times the public calls each layer makes for req, in pipeline
// order. narrated says whether Do ran the narration layers.
func layers(res *replayResult, i int, req request, narrated bool,
	eng *engine.Engine, store *pool.Store, rule *core.RuleLantern) error {
	var tree *plan.Node
	var err error
	switch {
	case req.Op == "pool":
		return res.timed(i, "pool.exec", "service.do", true, func() error {
			_, err := store.Exec(req.Stmt)
			return err
		})
	case req.Op == "query":
		tree, err = execLayers(res, i, req, eng)
	case req.Plan != "":
		err = res.timed(i, "plan.parse", "service.do", narrated, func() error {
			tree, err = plan.Parse(req.Dialect, req.Plan)
			return err
		})
	default:
		tree, err = explainLayers(res, i, req.SQL, narrated || req.Op == "qa", eng)
	}
	if err != nil {
		return err
	}
	if req.Op == "qa" {
		return res.timed(i, "qa.answer", "service.do", true, func() error {
			a, err := qa.New(store, tree)
			if err == nil {
				_, err = a.Answer(req.Question)
			}
			return err
		})
	}
	res.timed(i, "service.fingerprint", "service.do", narrated || req.Op == "query", func() error {
		service.PlanFingerprint(tree, service.Options{})
		return nil
	})
	var lt *lot.Tree
	if err := res.timed(i, "core.lot_build", "service.do", narrated, func() error {
		var err error
		lt, err = rule.BuildLOT(tree)
		return err
	}); err != nil {
		return err
	}
	return res.timed(i, "core.narrate", "service.do", narrated, func() error {
		_, err := rule.NarrateLOT(lt)
		return err
	})
}

// explainLayers is the narrate and qa path for SQL: parse and plan, then
// EXPLAIN (which repeats both) and parse the document back.
func explainLayers(res *replayResult, i int, sql string, inDo bool, eng *engine.Engine) (*plan.Node, error) {
	var sel *sqlparser.SelectStmt
	if err := res.timed(i, "sqlparser.parse", "engine.explain", inDo, func() error {
		var err error
		sel, err = sqlparser.ParseSelect(sql)
		return err
	}); err != nil {
		return nil, err
	}
	if err := res.timed(i, "engine.plan", "engine.explain", inDo, func() error {
		_, err := eng.Plan(sel)
		return err
	}); err != nil {
		return nil, err
	}
	var doc string
	if err := res.timed(i, "engine.explain", "service.do", inDo, func() error {
		r, err := eng.Exec("EXPLAIN (FORMAT JSON) " + sql)
		if err == nil {
			doc = r.Plan
		}
		return err
	}); err != nil {
		return nil, err
	}
	var tree *plan.Node
	err := res.timed(i, "plan.parse", "service.do", inDo, func() error {
		var err error
		tree, err = plan.Parse("pg", doc)
		return err
	})
	return tree, err
}

// execLayers is the query path: parse, plan, instrumented execution and
// the bridge of the plan with its actuals into a narratable tree.
func execLayers(res *replayResult, i int, req request, eng *engine.Engine) (*plan.Node, error) {
	var sel *sqlparser.SelectStmt
	var pl *engine.Node
	var st engine.ExecStats
	var tree *plan.Node
	steps := []struct {
		name string
		f    func() error
	}{
		{"sqlparser.parse", func() (err error) { sel, err = sqlparser.ParseSelect(req.SQL); return }},
		{"engine.plan", func() (err error) { pl, err = eng.Plan(sel); return }},
		{"engine.exec", func() (err error) { _, st, err = eng.ExecPlanInstrumented(pl); return }},
		{"engine.bridge", func() error { tree = engine.ToPlanNodeStats(pl, st); return nil }},
	}
	for _, s := range steps {
		if err := res.timed(i, s.name, "service.do", true, s.f); err != nil {
			return nil, err
		}
	}
	qs := queryStats{class: req.Class}
	pl.Walk(func(n *engine.Node) {
		ost := st[n]
		if ost == nil || (n.Op != engine.OpSeqScan && n.Op != engine.OpIndexScan) {
			return
		}
		qs.rowsScanned += ost.Rows
		qs.segments += ost.SegsScanned + ost.SegsPruned
		qs.pruned += ost.SegsPruned
		if qs.estOverActual == 0 && ost.Rows > 0 {
			qs.estOverActual = n.EstRows / float64(ost.Rows)
		}
	})
	res.queries = append(res.queries, qs)
	return tree, nil
}

// writeTrace saves the replay's spans as JSON.
func writeTrace(path, workload string, seed int64, res *replayResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": res.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// layerMetrics derives the per-layer metrics from the replay's spans.
func layerMetrics(res *replayResult, add func(name string, v float64, n int)) {
	byReq := make(map[int][]span)
	durs := make(map[string][]float64)
	for _, s := range res.spans {
		byReq[s.Req] = append(byReq[s.Req], s)
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
	}
	for _, v := range durs {
		sort.Float64s(v)
	}
	p := func(name string, q float64) (float64, int) { return quantile(durs[name], q), len(durs[name]) }

	// The layer calls rerun Do's work, so their durations can add up to
	// more than Do's: self times are floored at zero, and a module's share
	// of Do is its part of the modules' summed self time, which equals Do's
	// duration whenever the calls fit inside it.
	var httpSelf, doSelf []float64
	modules := make(map[string]float64)
	var selfTotal float64
	for _, spans := range byReq {
		var httpDur, doDur float64
		var hasHTTP, hasDo bool
		children := make(map[string]float64) // duration of children by parent name
		for _, s := range spans {
			switch s.Name {
			case "http":
				httpDur, hasHTTP = ms(s.dur()), true
			case "service.do":
				doDur, hasDo = ms(s.dur()), true
			}
			if s.InDo {
				children[s.Parent] += ms(s.dur())
			}
		}
		if !hasDo {
			continue
		}
		if hasHTTP {
			httpSelf = append(httpSelf, httpDur-doDur)
		}
		self := max(0, doDur-children["service.do"])
		doSelf = append(doSelf, self)
		modules["service"] += self
		selfTotal += self
		for _, s := range spans {
			if s.InDo {
				self := max(0, ms(s.dur())-children[s.Name])
				modules[module(s.Name)] += self
				selfTotal += self
			}
		}
	}
	sort.Float64s(httpSelf)
	sort.Float64s(doSelf)
	add("httpapi.self_ms_p50", quantile(httpSelf, 0.5), len(httpSelf))
	var bytesSum int64
	for _, b := range res.bytes {
		bytesSum += b
	}
	add("httpapi.response_bytes_mean", float64(bytesSum)/float64(max(1, len(res.bytes))), len(res.bytes))
	for _, m := range []struct {
		metric, span string
		q            float64
	}{
		{"httpapi.encode_ms_p50", "httpapi.encode", 0.5},
		{"service.fingerprint_ms_p50", "service.fingerprint", 0.5},
		{"sqlparser.parse_ms_p50", "sqlparser.parse", 0.5},
		{"engine.plan_ms_p50", "engine.plan", 0.5},
		{"engine.plan_ms_p95", "engine.plan", 0.95},
		{"engine.explain_ms_p50", "engine.explain", 0.5},
		{"engine.exec_ms_p50", "engine.exec", 0.5},
		{"engine.exec_ms_p95", "engine.exec", 0.95},
		{"engine.bridge_ms_p50", "engine.bridge", 0.5},
		{"plan.parse_ms_p50", "plan.parse", 0.5},
		{"core.lot_build_ms_p50", "core.lot_build", 0.5},
		{"core.narrate_ms_p50", "core.narrate", 0.5},
		{"pool.exec_ms_p50", "pool.exec", 0.5},
		{"qa.answer_ms_p50", "qa.answer", 0.5},
	} {
		v, n := p(m.span, m.q)
		add(m.metric, v, n)
	}
	add("service.self_ms_p50", quantile(doSelf, 0.5), len(doSelf))

	type classAgg struct {
		n, pruned, segs int64
		ests            []float64
	}
	var all classAgg
	var rows int64
	perClass := make(map[string]*classAgg)
	for _, q := range res.queries {
		rows += q.rowsScanned
		pc := perClass[q.class]
		if pc == nil {
			pc = &classAgg{}
			perClass[q.class] = pc
		}
		for _, c := range []*classAgg{&all, pc} {
			c.n++
			c.pruned += q.pruned
			c.segs += q.segments
			if q.estOverActual > 0 {
				c.ests = append(c.ests, q.estOverActual)
			}
		}
	}
	add("engine.rows_scanned_per_req", float64(rows)/float64(max(1, all.n)), int(all.n))
	add("engine.segments_pruned_ratio", safeDiv(float64(all.pruned), float64(all.segs)), int(all.n))
	for _, form := range []string{"between", "range"} {
		c := perClass["window-"+form]
		if c == nil {
			c = &classAgg{}
		}
		sort.Float64s(c.ests)
		add("engine.segments_pruned_ratio_"+form, safeDiv(float64(c.pruned), float64(c.segs)), int(c.n))
		add("engine.scan_est_over_actual_"+form, quantile(c.ests, 0.5), len(c.ests))
	}
	for _, m := range []string{"sqlparser", "engine", "plan", "service", "core", "pool", "qa"} {
		add(m+".share_of_do", safeDiv(modules[m], selfTotal), len(doSelf))
	}
}

// module is the repository module a span name belongs to.
func module(name string) string {
	m, _, _ := strings.Cut(name, ".")
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
