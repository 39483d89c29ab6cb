package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/plan"
	"lantern/internal/sqlparser"
)

// sequence returns the first n requests of client c's sequence.
func sequence(w *workload, fx *fixture, seed int64, c, clients, n int) []request {
	next := w.newGen(fx, seed, c, clients)
	out := make([]request, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func mustFixture(t *testing.T, w *workload) *fixture {
	t.Helper()
	fx, err := newFixture(w)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func encodedSequence(t *testing.T, w *workload, fx *fixture, seed int64, c int) []byte {
	t.Helper()
	raw, err := json.Marshal(sequence(w, fx, seed, c, maxClients, 300))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// The same seed must give a byte-identical request sequence per client; a
// different seed or another client must give a different one.
func TestSequenceDeterminism(t *testing.T) {
	for _, w := range workloads() {
		fx := mustFixture(t, w)
		for c := 0; c < maxClients; c++ {
			a := encodedSequence(t, w, fx, 7, c)
			if b := encodedSequence(t, w, mustFixture(t, w), 7, c); !bytes.Equal(a, b) {
				t.Errorf("%s client %d: seed 7 gave two different sequences", w.name, c)
			}
			if b := encodedSequence(t, w, fx, 8, c); bytes.Equal(a, b) {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same sequence", w.name, c)
			}
		}
		if bytes.Equal(encodedSequence(t, w, fx, 7, 0), encodedSequence(t, w, fx, 7, 1)) {
			t.Errorf("%s: clients 0 and 1 got the same sequence", w.name)
		}
	}
}

// narrate-cold must not repeat a plan: no SQL text may recur across the
// clients of one run.
func TestNarrateColdDoesNotRepeat(t *testing.T) {
	w, _ := workloadByName("narrate-cold")
	fx := mustFixture(t, w)
	seen := make(map[string]bool)
	for c := 0; c < maxClients; c++ {
		for _, r := range sequence(w, fx, 3, c, maxClients, 5000) {
			if seen[r.SQL] {
				t.Fatalf("repeated SQL: %s", r.SQL)
			}
			seen[r.SQL] = true
		}
	}
}

// Every SQL text a workload can send must parse and plan, and every plan
// document must parse.
func TestGeneratedSQLParsesAndPlans(t *testing.T) {
	eng := engine.NewDefault()
	if err := datasets.LoadTPCH(eng, 0.05, dataSeed); err != nil {
		t.Fatal(err)
	}
	check := func(what, sql string) {
		t.Helper()
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", what, err, sql)
		}
		if _, err := eng.Plan(sel); err != nil {
			t.Fatalf("%s: plan: %v\n%s", what, err, sql)
		}
	}
	for _, tpl := range tpchTemplates() {
		for _, idx := range []int{0, tpl.size() / 2, tpl.size() - 1} {
			check(tpl.name, tpl.render(idx))
		}
	}
	for _, w := range workloads() {
		fx := mustFixture(t, w)
		for _, g := range fx.groups {
			for _, sql := range g.sqls {
				check(w.name+" bank", sql)
			}
		}
		for c := 0; c < maxClients; c++ {
			for _, r := range sequence(w, fx, 1, c, maxClients, 500) {
				switch {
				case r.SQL != "":
					check(w.name, r.SQL)
				case r.Plan != "":
					if _, err := plan.Parse(r.Dialect, r.Plan); err != nil {
						t.Fatalf("%s: %s: %v", w.name, r.Key, err)
					}
				}
			}
		}
	}
}

// BENCHMARK.json must describe exactly the workloads and metrics the
// benchmark reports.
func TestSpecMatchesCode(t *testing.T) {
	s, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		wl, err := workloadByName(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Why != wl.why {
			t.Errorf("%s: BENCHMARK.json why differs from the code", w.Name)
		}
	}
	if len(names) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists %v, the code %d workloads", names, len(workloads()))
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, code %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s/%s/%s, code %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	s, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	// set makes classroom runs with the given error rate and, per run, one
	// throughput and one setup time.
	set := func(errorRate float64, values ...[2]float64) *resultsFile {
		f := &resultsFile{}
		for _, v := range values {
			f.Runs = append(f.Runs, runResult{Workload: "classroom", ErrorRate: errorRate,
				Metrics: map[string]metricValue{"throughput_rps": {Value: v[0]}, "setup_s": {Value: v[1]}}})
		}
		return f
	}
	steady := set(0, [2]float64{100, 0.05}, [2]float64{101, 0.05}, [2]float64{99, 0.05}, [2]float64{100, 0.05})
	for _, tc := range []struct {
		b         *resultsFile
		verdicts  map[string]string // by row metric
		worseFlag bool
	}{
		{set(0, [2]float64{100, 0.05}, [2]float64{99, 0.05}, [2]float64{101, 0.05}, [2]float64{100, 0.05}),
			map[string]string{"throughput_rps": "ok", "setup_s": "ok", "error_rate": "ok"}, false},
		{set(0, [2]float64{70, 0.05}, [2]float64{71, 0.05}, [2]float64{69, 0.05}, [2]float64{70, 0.05}),
			map[string]string{"throughput_rps": "worse"}, true},
		{set(0, [2]float64{150, 0.05}, [2]float64{60, 0.05}, [2]float64{120, 0.05}, [2]float64{80, 0.05}),
			map[string]string{"throughput_rps": "unresolved"}, false},
		// Doubling a 50 ms setup stays under the floor in seconds.
		{set(0, [2]float64{100, 0.1}, [2]float64{100, 0.1}, [2]float64{100, 0.1}, [2]float64{100, 0.1}),
			map[string]string{"setup_s": "ok"}, false},
		{set(0.01, [2]float64{100, 0.05}, [2]float64{100, 0.05}, [2]float64{100, 0.05}, [2]float64{100, 0.05}),
			map[string]string{"throughput_rps": "ok", "error_rate": "worse"}, true},
	} {
		var out bytes.Buffer
		if got := compare(&out, s, steady, tc.b); got != tc.worseFlag {
			t.Errorf("compare returned %v, want %v\n%s", got, tc.worseFlag, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			metric, _, _ := strings.Cut(line, " ")
			if want, ok := tc.verdicts[metric]; ok && strings.Contains(line, "classroom") &&
				!strings.HasSuffix(strings.TrimSpace(line), want) {
				t.Errorf("want verdict %s, got row %q", want, line)
			}
		}
	}
}

// A short run of every workload at tiny scales, traced, must answer
// everything correctly and emit every metric BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs lanternd")
	}
	s, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := runConfig{root: root, build: t.TempDir(), outDir: t.TempDir(), seed: 1,
		seconds: time.Second, warmup: 300 * time.Millisecond, trace: true, clients: maxClients}
	if cfg.bin, err = buildDaemon(ctx, cfg.root, cfg.build); err != nil {
		t.Fatal(err)
	}
	tiny := map[string]dataset{"query-memory": {Scale: 0.05, CacheMB: 32}, "query-disk": {SF: 0.005, PoolMB: 1, CacheMB: 32}}
	for _, w := range workloads() {
		if d, ok := tiny[w.name]; ok {
			w.data = d
		}
		res, err := cfg.runWorkload(ctx, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.ErrorRate != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d requests failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		for _, m := range s.EndToEnd {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s missing", w.name, m.Name)
			}
		}
		for _, m := range s.PerLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, m.Name)
			}
		}
	}
}
