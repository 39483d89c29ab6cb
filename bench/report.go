package main

// report.go names the metrics, stores results, and compares two sets of
// runs against the bounds in BENCHMARK.json.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of lanternd sees, reported per workload.
// The share of attempted requests that failed is carried by the result's
// attempted and failed counts; it is zero on every workload at HEAD.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the per-layer metrics, named after the repository's
// modules. The five window metrics come from /metrics deltas over the
// measured window; the rest come from the traced replay.
var perLayer = []metricDef{
	{"httpapi.self_ms_p50", "ms", "lower"},
	{"httpapi.response_bytes_mean", "bytes", "lower"},
	{"httpapi.encode_ms_p50", "ms", "lower"},
	{"service.self_ms_p50", "ms", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.cache_invalidations_per_1k", "per_1k_req", "lower"},
	{"service.fingerprint_ms_p50", "ms", "lower"},
	{"sqlparser.parse_ms_p50", "ms", "lower"},
	{"engine.plan_ms_p50", "ms", "lower"},
	{"engine.plan_ms_p95", "ms", "lower"},
	{"engine.explain_ms_p50", "ms", "lower"},
	{"engine.exec_ms_p50", "ms", "lower"},
	{"engine.exec_ms_p95", "ms", "lower"},
	{"engine.rows_scanned_per_req", "rows/req", "lower"},
	{"engine.segments_pruned_ratio", "ratio", "higher"},
	{"engine.segments_pruned_ratio_between", "ratio", "higher"},
	{"engine.segments_pruned_ratio_range", "ratio", "higher"},
	{"engine.scan_est_over_actual_between", "ratio", "lower"},
	{"engine.scan_est_over_actual_range", "ratio", "lower"},
	{"engine.bridge_ms_p50", "ms", "lower"},
	{"plan.parse_ms_p50", "ms", "lower"},
	{"core.lot_build_ms_p50", "ms", "lower"},
	{"core.narrate_ms_p50", "ms", "lower"},
	{"pool.exec_ms_p50", "ms", "lower"},
	{"qa.answer_ms_p50", "ms", "lower"},
	{"pager.pool_hit_ratio", "ratio", "higher"},
	{"pager.pool_misses_per_req", "misses/req", "lower"},
	{"pager.pool_peak_bytes_over_budget", "ratio", "lower"},
	{"sqlparser.share_of_do", "ratio", "lower"},
	{"engine.share_of_do", "ratio", "lower"},
	{"plan.share_of_do", "ratio", "lower"},
	{"service.share_of_do", "ratio", "lower"},
	{"core.share_of_do", "ratio", "lower"},
	{"pool.share_of_do", "ratio", "lower"},
	{"qa.share_of_do", "ratio", "lower"},
}

// metricValue is one measured metric with the sample count behind it.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Samples int     `json:"samples"`
}

// runResult is one workload run.
type runResult struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Clients     int                    `json:"clients"`
	Seconds     float64                `json:"seconds"`
	WarmupS     float64                `json:"warmup_s"`
	Dataset     dataset                `json:"dataset"`
	DaemonFlags []string               `json:"daemon_flags"`
	Traced      bool                   `json:"traced"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	ErrorRate   float64                `json:"error_rate"`
	Verified    int                    `json:"narrations_verified,omitempty"`
	Failures    []string               `json:"failures,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	// HostSpeed is the median speed sample of the window. The time metrics
	// are corrected to nominal speed; dividing a duration by the
	// workload's correction(HostSpeed, sensitivity), or multiplying a rate
	// by it, gives the wall-clock value.
	HostSpeed float64 `json:"host_speed"`
	// StealShare is the share of the host's CPU time the hypervisor took
	// during the window; KeptShare the share of the window whose slices
	// the time metrics are taken over.
	StealShare float64 `json:"steal_share"`
	KeptShare  float64 `json:"kept_share"`
}

// envInfo records where a set of runs was measured.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// resultsFile is a set of runs; -out appends to it.
type resultsFile struct {
	Env  envInfo     `json:"env"`
	Runs []runResult `json:"runs"`
}

func appendResults(path string, env envInfo, runs []runResult) error {
	var f resultsFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	f.Env = env
	f.Runs = append(f.Runs, runs...)
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// printRun writes one run's metrics as a table.
func printRun(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "\n== %s (seed %d, %d clients, %.0fs measured after %.0fs warmup, host speed %.3f): %d attempted, %d failed\n",
		r.Workload, r.Seed, r.Clients, r.Seconds, r.WarmupS, r.HostSpeed, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   failure: %s\n", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := r.Metrics[d.name]; ok {
				fmt.Fprintf(tw, "%s\t%.4g\t%s\tn=%d\t\n", d.name, m.Value, m.Unit, m.Samples)
			}
		}
	}
	tw.Flush()
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		h := p * float64(len(s)+1)
		j := int(h)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// errorRateBound is how far error_rate may rise, as an absolute share of
// attempted requests. error_rate reads 0 at HEAD, so its bound cannot be a
// share of a median like the bounds in BENCHMARK.json, which leaves it out.
const errorRateBound = 0.001

// setupFloorS is the least rise of setup_s, in seconds, that counts as
// worse: the in-memory workloads start in tens of milliseconds, where a
// share-of-median bound alone would flag scheduling jitter.
const setupFloorS = 0.25

// compare prints one row per (end-to-end metric, workload), then one
// error_rate row per workload, and reports whether any row is worse than
// its bound. A row is worse when B's median is worse than A's by more than
// the bound and both sides' spreads (IQR over median) are within it; a
// spread wider than the bound leaves the row unresolved unless every run
// of B beats every run of A.
func compare(w io.Writer, s *spec, a, b *resultsFile) bool {
	values := func(f *resultsFile, wl string, get func(*runResult) (float64, bool)) []float64 {
		var out []float64
		for i := range f.Runs {
			if v, ok := get(&f.Runs[i]); ok && f.Runs[i].Workload == wl {
				out = append(out, v)
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tmedian A\tmedian B\tworse by\tbound\tspread A\tspread B\tverdict")
	anyWorse := false
	for _, m := range s.EndToEnd {
		metric := func(r *runResult) (float64, bool) { v, ok := r.Metrics[m.Name]; return v.Value, ok }
		for _, wl := range s.Workloads {
			va, vb := values(a, wl.Name, metric), values(b, wl.Name, metric)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t%.0f%%\t\t\tunresolved (no runs)\n", m.Name, wl.Name, 100*m.Bound)
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			worse := (bm - am) / am
			if m.Better == "higher" {
				worse = (am - bm) / am
			}
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			verdict := "ok"
			switch noisy := spreadA > m.Bound || spreadB > m.Bound; {
			case noisy && allBetter(va, vb, m.Better):
				verdict = "ok"
			case noisy:
				verdict = "unresolved"
			case worse > m.Bound && (m.Name != "setup_s" || bm-am > setupFloorS):
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				m.Name, wl.Name, am, bm, 100*worse, 100*m.Bound, 100*spreadA, 100*spreadB, verdict)
		}
	}
	errorRate := func(r *runResult) (float64, bool) { return r.ErrorRate, true }
	for _, wl := range s.Workloads {
		va, vb := values(a, wl.Name, errorRate), values(b, wl.Name, errorRate)
		if len(va) == 0 || len(vb) == 0 {
			fmt.Fprintf(tw, "error_rate\t%s\t\t\t\t+%g\t\t\tunresolved (no runs)\n", wl.Name, errorRateBound)
			continue
		}
		am, bm := median(va), median(vb)
		verdict := "ok"
		if bm-am > errorRateBound {
			verdict = "worse"
			anyWorse = true
		}
		fmt.Fprintf(tw, "error_rate\t%s\t%.4g\t%.4g\t%+.4f\t+%g\t\t\t%s\n", wl.Name, am, bm, bm-am, errorRateBound, verdict)
	}
	tw.Flush()
	return anyWorse
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y <= x) || (better == "lower" && y >= x) {
				return false
			}
		}
	}
	return true
}
