// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark report, echoing the raw output to stderr so the run stays
// visible. It backs `make bench`, which tracks the serving hot path in
// BENCH_service.json across PRs:
//
//	go test -run xxx -bench . -benchmem -benchtime 1x . | benchjson -out BENCH_service.json
//
// With -compare it instead diffs two reports and flags regressions. The
// allocation gate fails when allocs/op or bytes/op of an Exec* or
// Ablation* benchmark moves more than 10% either way; -gate makes it the
// only thing that fails, which backs the blocking CI step guarding
// BENCH_engine.json:
//
//	benchjson -compare old.json new.json            # exit 1 on the gate or a >20% ns/op regression
//	benchjson -compare -gate old.json new.json      # exit 1 on the allocation gate only
//	benchjson -threshold 0.5 -compare old.json new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line. BytesPerOp/AllocsPerOp are
// pointers so a genuine 0 B/op result stays distinguishable from a run
// without -benchmem.
type Result struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Report is the BENCH_service.json payload. GoMaxProcs/NumCPU record the
// parallelism environment of the run: comparing reports taken at
// different core counts is legitimate (e.g. the -cpu 1 and -cpu 4
// variants of the engine suite) but the ns/op deltas then mix code
// changes with scheduling effects, so -compare warns about the mismatch
// without failing on it.
type Report struct {
	GeneratedAt string            `json:"generated_at"`
	GoVersion   string            `json:"go_version,omitempty"`
	GoMaxProcs  int               `json:"gomaxprocs,omitempty"`
	NumCPU      int               `json:"num_cpu,omitempty"`
	Config      map[string]string `json:"config,omitempty"`
	Benchmarks  []Result          `json:"benchmarks"`
}

// benchLine matches e.g.
// BenchmarkServiceNarrateCached-8   930512   1286 ns/op   312 B/op   7 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

// configLine matches self-describing setup lines benchmarks print, e.g.
//
//	benchconfig: tpch_sf=1 pool_cold_bytes=1 pool_warm_bytes=268435456
//
// The key=value pairs land in Report.Config, so a report records the
// dataset scale and resource budgets its numbers were taken under and
// -compare can flag diffs against a report taken under different ones.
var configLine = regexp.MustCompile(`^benchconfig:\s+(.+)$`)

func main() {
	out := flag.String("out", "BENCH_service.json", "output JSON path")
	compare := flag.Bool("compare", false, "compare two reports (old.json new.json) instead of reading stdin")
	threshold := flag.Float64("threshold", 0.20, "relative ns/op slowdown flagged as a regression in -compare mode")
	gate := flag.Bool("gate", false, "with -compare, fail only on the allocation gate; ns/op and other allocation deltas are advisory")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("benchjson: -compare needs exactly two arguments: old.json new.json")
		}
		if *gate {
			os.Exit(gateReports(flag.Arg(0), flag.Arg(1), *threshold))
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1), *threshold))
	}

	report, err := parseBench(io.TeeReader(os.Stdin, os.Stderr))
	if err != nil {
		log.Fatalf("benchjson: reading stdin: %v", err)
	}
	if len(report.Benchmarks) == 0 {
		log.Fatal("benchjson: no benchmark lines found on stdin")
	}
	report.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	report.GoVersion = runtime.Version()
	report.NumCPU = runtime.NumCPU()
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
}

// procsSuffix matches the -N suffix `go test` appends to a benchmark's
// name when it ran at GOMAXPROCS N > 1.
var procsSuffix = regexp.MustCompile(`-(\d+)$`)

// parseBench reads `go test -bench` output into a report. GoMaxProcs is
// the GOMAXPROCS the benchmarks ran at, read from their names: a -N
// suffix means N, none means 1. It stays 0 (unknown) when the names
// disagree, as in a `-cpu 1,4` run.
func parseBench(in io.Reader) (Report, error) {
	var report Report
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := configLine.FindStringSubmatch(line); m != nil {
			if report.Config == nil {
				report.Config = make(map[string]string)
			}
			for _, kv := range strings.Fields(m[1]) {
				if k, v, ok := strings.Cut(kv, "="); ok {
					report.Config[k] = v
				}
			}
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		r := Result{Name: m[1]}
		r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			v, _ := strconv.ParseFloat(m[4], 64)
			r.BytesPerOp = &v
		}
		if m[5] != "" {
			v, _ := strconv.ParseFloat(m[5], 64)
			r.AllocsPerOp = &v
		}
		procs := 1
		if suffix := procsSuffix.FindStringSubmatch(r.Name); suffix != nil {
			procs, _ = strconv.Atoi(suffix[1])
		}
		switch {
		case len(report.Benchmarks) == 0:
			report.GoMaxProcs = procs
		case report.GoMaxProcs != procs:
			report.GoMaxProcs = 0
		}
		report.Benchmarks = append(report.Benchmarks, r)
	}
	return report, sc.Err()
}

// loadReport reads a previously-written benchmark report.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}

// allocGated matches the benchmarks whose allocs/op and bytes/op form the
// allocation gate: the engine executor and ablation suites, whose
// allocation counts are deterministic on fixed data.
var allocGated = regexp.MustCompile(`^Benchmark(Exec|Ablation)`)

// allocGateExempt maps gated benchmarks (without their -N suffix) whose
// allocation counts are not deterministic to the reason. Their drift is
// printed as ALLOC-ADVISORY and never fails.
var allocGateExempt = map[string]string{
	// Its parallel workers race the buffer pool's eviction, and the pool
	// overshoots its budget (bench/README.md "Baseline findings"), so the
	// segments faulted per run vary: 0.97M-2.47M allocs/op over nine runs
	// on one host.
	"BenchmarkExecBufferPoolThrash": "segment faults depend on worker timing",
}

// allocTolerance is the relative allocs/op or bytes/op change, in either
// direction, beyond which a gated benchmark fails: an increase is a
// regression, a decrease a stale baseline that would let the next
// regression hide inside the slack.
const allocTolerance = 0.10

// compareReports diffs two reports by benchmark name and prints one line
// per benchmark with the relative ns/op change. Benchmarks slower by more
// than threshold are marked REGRESSION and make the exit status 1;
// benchmarks present on only one side are reported but never fail the
// diff (suites grow and shrink across PRs). Micro-benchmarks under 100ns
// are skipped for regression purposes: at that scale the delta is noise.
//
// When both reports carry allocs/op (-benchmem runs), allocation counts
// diff too: going from 0 to any allocations is always ALLOC-REGRESSION
// (a zero-alloc hot path lost its guarantee — no noise floor excuses
// that), and a relative increase beyond the same threshold flags as
// well. On top of that, the allocation gate marks ALLOC-GATE any Exec* or
// Ablation* benchmark (bar allocGateExempt) whose allocs/op or bytes/op
// moved more than allocTolerance either way. Allocation counts are
// iteration-exact, so no noise floor applies. Names include go test's -N
// GOMAXPROCS suffix, so runs at different core counts never pair up.
func compareReports(oldPath, newPath string, threshold float64) int {
	r := diffReports(oldPath, newPath, threshold)
	if n := r.nsRegressions + r.allocRegressions + r.gateFailures; n > 0 {
		fmt.Printf("benchjson: %d regression(s) beyond %.0f%% or the allocation gate\n", n, threshold*100)
		return 1
	}
	fmt.Println("benchjson: no regressions beyond threshold")
	return 0
}

// gateReports is compareReports failing only on the allocation gate: ns/op
// on shared runners is too noisy to block a merge, allocation counts are
// not. It also fails when the baseline has gated benchmarks but none
// paired up by name, since a gate that compared nothing guards nothing.
func gateReports(oldPath, newPath string, threshold float64) int {
	r := diffReports(oldPath, newPath, threshold)
	switch {
	case r.gateFailures > 0:
		fmt.Printf("benchjson: %d benchmark(s) moved allocs/op or bytes/op more than %.0f%%; regenerate the baseline if the change is intended\n",
			r.gateFailures, allocTolerance*100)
		return 1
	case r.gated == 0 && r.gatedBaseline > 0:
		fmt.Printf("benchjson: none of the baseline's %d gated benchmarks appear in %s (different -cpu?)\n", r.gatedBaseline, newPath)
		return 1
	}
	fmt.Printf("benchjson: allocation gate passed on %d benchmark(s) (ns/op advisory)\n", r.gated)
	return 0
}

// diffResult counts what diffReports flagged.
type diffResult struct {
	nsRegressions, allocRegressions, gateFailures int
	// gated counts the gated benchmarks compared, gatedBaseline those in
	// the old report.
	gated, gatedBaseline int
}

// diffReports prints the per-benchmark diff of two reports and counts
// its findings (see compareReports).
func diffReports(oldPath, newPath string, threshold float64) diffResult {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	// A core-count mismatch means the ns/op deltas below mix code changes
	// with scheduling effects. That can be intentional (diffing the -cpu 1
	// run against the -cpu 4 run), so it warns rather than flags.
	if oldRep.GoMaxProcs != 0 && newRep.GoMaxProcs != 0 && oldRep.GoMaxProcs != newRep.GoMaxProcs {
		fmt.Printf("benchjson: WARNING: reports ran at different GOMAXPROCS (%d vs %d); ns/op deltas include scheduling effects\n",
			oldRep.GoMaxProcs, newRep.GoMaxProcs)
	}
	if oldRep.NumCPU != 0 && newRep.NumCPU != 0 && oldRep.NumCPU != newRep.NumCPU {
		fmt.Printf("benchjson: WARNING: reports ran on machines with different core counts (%d vs %d CPUs); ns/op deltas include hardware effects\n",
			oldRep.NumCPU, newRep.NumCPU)
	}
	// Likewise for recorded benchmark config (dataset scale, pool budgets):
	// a delta taken under different budgets measures the config change, not
	// the code change.
	for k, nv := range newRep.Config {
		if ov, ok := oldRep.Config[k]; ok && ov != nv {
			fmt.Printf("benchjson: WARNING: reports ran under different %s (%s vs %s); ns/op deltas include configuration effects\n",
				k, ov, nv)
		}
	}
	var r diffResult
	oldBy := make(map[string]Result, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
		if gated, _ := gateStatus(b.Name); gated {
			r.gatedBaseline++
		}
	}
	const noiseFloorNs = 100.0
	for _, nb := range newRep.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Printf("%-60s %12s -> %10.1f ns/op  NEW\n", nb.Name, "-", nb.NsPerOp)
			continue
		}
		delete(oldBy, nb.Name)
		gated, exempt := gateStatus(nb.Name)
		if gated {
			r.gated++
		}
		var marks, allocs string
		if ob.AllocsPerOp != nil && nb.AllocsPerOp != nil {
			oa, na := *ob.AllocsPerOp, *nb.AllocsPerOp
			allocs += fmt.Sprintf("  %.0f -> %.0f allocs/op", oa, na)
			if oa == 0 && na > 0 || oa > 0 && na/oa-1 > threshold {
				marks += "  ALLOC-REGRESSION"
				r.allocRegressions++
			}
		}
		if ob.BytesPerOp != nil && nb.BytesPerOp != nil {
			allocs += fmt.Sprintf("  %.0f -> %.0f B/op", *ob.BytesPerOp, *nb.BytesPerOp)
		}
		if drifted(ob.AllocsPerOp, nb.AllocsPerOp) || drifted(ob.BytesPerOp, nb.BytesPerOp) {
			switch {
			case gated:
				marks += "  ALLOC-GATE"
				r.gateFailures++
			case exempt != "":
				marks += "  ALLOC-ADVISORY (" + exempt + ")"
			}
		}
		change := 0.0
		if ob.NsPerOp > 0 {
			change = nb.NsPerOp/ob.NsPerOp - 1
			if change > threshold && ob.NsPerOp >= noiseFloorNs && nb.NsPerOp >= noiseFloorNs {
				marks += "  REGRESSION"
				r.nsRegressions++
			}
		}
		fmt.Printf("%-60s %10.1f -> %10.1f ns/op  %+6.1f%%%s%s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, change*100, allocs, marks)
	}
	for name := range oldBy {
		fmt.Printf("%-60s missing from %s\n", name, newPath)
	}
	return r
}

// gateStatus reports whether a benchmark is under the allocation gate,
// or, when it would be but is exempt, why not.
func gateStatus(name string) (gated bool, exempt string) {
	if !allocGated.MatchString(name) {
		return false, ""
	}
	exempt = allocGateExempt[procsSuffix.ReplaceAllString(name, "")]
	return exempt == "", exempt
}

// drifted reports whether a per-op allocation figure moved more than
// allocTolerance either way; any change from zero counts. A figure
// missing on either side (a run without -benchmem) never drifts.
func drifted(old, cur *float64) bool {
	if old == nil || cur == nil {
		return false
	}
	if *old == 0 {
		return *cur != 0
	}
	return math.Abs(*cur / *old - 1) > allocTolerance
}
