// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark report, echoing the raw output to stderr so the run stays
// visible. It backs `make bench`, which tracks the serving hot path in
// BENCH_service.json across PRs:
//
//	go test -run xxx -bench . -benchmem -benchtime 1x . | benchjson -out BENCH_service.json
//
// With -compare it instead diffs two reports and flags regressions, which
// backs the non-blocking CI step guarding BENCH_engine.json:
//
//	benchjson -compare old.json new.json            # exit 1 on a >20% ns/op regression
//	benchjson -threshold 0.5 -compare old.json new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
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
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("benchjson: -compare needs exactly two arguments: old.json new.json")
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
// well. Allocation counts are iteration-exact, so no noise floor applies.
func compareReports(oldPath, newPath string, threshold float64) int {
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
	oldBy := make(map[string]Result, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}
	const noiseFloorNs = 100.0
	regressions := 0
	for _, nb := range newRep.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Printf("%-60s %12s -> %10.1f ns/op  NEW\n", nb.Name, "-", nb.NsPerOp)
			continue
		}
		delete(oldBy, nb.Name)
		if ob.NsPerOp <= 0 {
			continue
		}
		change := nb.NsPerOp/ob.NsPerOp - 1
		mark := ""
		if change > threshold && ob.NsPerOp >= noiseFloorNs && nb.NsPerOp >= noiseFloorNs {
			mark = "  REGRESSION"
			regressions++
		}
		allocs := ""
		if ob.AllocsPerOp != nil && nb.AllocsPerOp != nil {
			oa, na := *ob.AllocsPerOp, *nb.AllocsPerOp
			allocs = fmt.Sprintf("  %.0f -> %.0f allocs/op", oa, na)
			switch {
			case oa == 0 && na > 0:
				mark = "  ALLOC-REGRESSION"
				regressions++
			case oa > 0 && na/oa-1 > threshold:
				mark = "  ALLOC-REGRESSION"
				regressions++
			}
		}
		fmt.Printf("%-60s %10.1f -> %10.1f ns/op%s  %+6.1f%%%s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, allocs, change*100, mark)
	}
	for name := range oldBy {
		fmt.Printf("%-60s missing from %s\n", name, newPath)
	}
	if regressions > 0 {
		fmt.Printf("benchjson: %d benchmark(s) regressed more than %.0f%%\n", regressions, threshold*100)
		return 1
	}
	fmt.Println("benchjson: no regressions beyond threshold")
	return 0
}
