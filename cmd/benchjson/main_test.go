package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, results []Result) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(Report{Benchmarks: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func f(v float64) *float64 { return &v }

func TestCompareFlagsNsRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []Result{{Name: "BenchmarkX", NsPerOp: 1000}})
	slow := writeReport(t, dir, "slow.json", []Result{{Name: "BenchmarkX", NsPerOp: 1500}})
	fine := writeReport(t, dir, "fine.json", []Result{{Name: "BenchmarkX", NsPerOp: 1050}})

	if got := compareReports(old, slow, 0.20); got != 1 {
		t.Fatalf("50%% slowdown: exit %d, want 1", got)
	}
	if got := compareReports(old, fine, 0.20); got != 0 {
		t.Fatalf("5%% slowdown: exit %d, want 0", got)
	}
}

func TestCompareWarnsOnCoreCountMismatchWithoutFailing(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, procs, cpus int) string {
		t.Helper()
		path := filepath.Join(dir, name)
		data, err := json.Marshal(Report{
			GoMaxProcs: procs,
			NumCPU:     cpus,
			Benchmarks: []Result{{Name: "BenchmarkX", NsPerOp: 1000}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	one := write("cpu1.json", 1, 1)
	four := write("cpu4.json", 4, 4)
	// Identical ns/op across differing core counts: a warning is printed
	// but the diff still passes — the mismatch is informational only.
	if got := compareReports(one, four, 0.20); got != 0 {
		t.Fatalf("core-count mismatch alone: exit %d, want 0", got)
	}
	// Reports without the fields (older files) stay comparable silently.
	old := writeReport(t, dir, "old.json", []Result{{Name: "BenchmarkX", NsPerOp: 1000}})
	if got := compareReports(old, four, 0.20); got != 0 {
		t.Fatalf("missing core-count fields: exit %d, want 0", got)
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	dir := t.TempDir()
	zero := writeReport(t, dir, "zero.json",
		[]Result{{Name: "BenchmarkHot", NsPerOp: 500, AllocsPerOp: f(0)}})
	leaked := writeReport(t, dir, "leaked.json",
		[]Result{{Name: "BenchmarkHot", NsPerOp: 500, AllocsPerOp: f(1)}})
	// 0 -> any allocations fails even though ns/op is identical.
	if got := compareReports(zero, leaked, 0.20); got != 1 {
		t.Fatalf("0 -> 1 allocs: exit %d, want 1", got)
	}

	ten := writeReport(t, dir, "ten.json",
		[]Result{{Name: "BenchmarkHot", NsPerOp: 500, AllocsPerOp: f(10)}})
	thirteen := writeReport(t, dir, "thirteen.json",
		[]Result{{Name: "BenchmarkHot", NsPerOp: 500, AllocsPerOp: f(13)}})
	eleven := writeReport(t, dir, "eleven.json",
		[]Result{{Name: "BenchmarkHot", NsPerOp: 500, AllocsPerOp: f(11)}})
	if got := compareReports(ten, thirteen, 0.20); got != 1 {
		t.Fatalf("10 -> 13 allocs: exit %d, want 1", got)
	}
	if got := compareReports(ten, eleven, 0.20); got != 0 {
		t.Fatalf("10 -> 11 allocs: exit %d, want 0", got)
	}

	// Missing allocs on one side (no -benchmem) never fails the diff.
	bare := writeReport(t, dir, "bare.json",
		[]Result{{Name: "BenchmarkHot", NsPerOp: 500}})
	if got := compareReports(zero, bare, 0.20); got != 0 {
		t.Fatalf("allocs missing on one side: exit %d, want 0", got)
	}
}

// TestParseBenchReadsGoMaxProcsFromNames parses transcripts captured from
// `go test -bench ... -cpu 4` and `-cpu 1`: the report records the
// benchmarks' GOMAXPROCS, not the parser's own.
func TestParseBenchReadsGoMaxProcsFromNames(t *testing.T) {
	for _, c := range []struct {
		file  string
		procs int
		first string
	}{
		{"testdata/cpu4.txt", 4, "BenchmarkExecLimitShortCircuit-4"},
		{"testdata/cpu1.txt", 1, "BenchmarkExecLimitShortCircuit"},
	} {
		f, err := os.Open(c.file)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := parseBench(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.GoMaxProcs != c.procs {
			t.Errorf("%s: gomaxprocs = %d, want %d", c.file, rep.GoMaxProcs, c.procs)
		}
		if len(rep.Benchmarks) != 2 || rep.Benchmarks[0].Name != c.first {
			t.Fatalf("%s: benchmarks = %+v, want 2 starting with %s", c.file, rep.Benchmarks, c.first)
		}
		if b := rep.Benchmarks[0]; b.Iterations != 20 || b.NsPerOp <= 0 || b.BytesPerOp == nil || b.AllocsPerOp == nil {
			t.Errorf("%s: first result = %+v, want 20 iterations with ns, bytes and allocs per op", c.file, b)
		}
	}
	// A run mixing core counts (`-cpu 1,4`) records no single GOMAXPROCS.
	mixed := "BenchmarkX \t10\t100 ns/op\nBenchmarkX-4 \t10\t50 ns/op\n"
	rep, err := parseBench(strings.NewReader(mixed))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoMaxProcs != 0 || len(rep.Benchmarks) != 2 {
		t.Errorf("mixed run: gomaxprocs = %d over %d results, want 0 over 2", rep.GoMaxProcs, len(rep.Benchmarks))
	}
}

func TestGateFailsOnAllocDriftEitherWay(t *testing.T) {
	dir := t.TempDir()
	report := func(name string, bytes, allocs float64) string {
		return writeReport(t, dir, name, []Result{
			{Name: "BenchmarkExecScan-2", NsPerOp: 5000, BytesPerOp: f(bytes), AllocsPerOp: f(allocs)},
			// Planner benchmarks are outside the gate: their drift is advisory.
			{Name: "BenchmarkPlannerJoin-2", NsPerOp: 5000, BytesPerOp: f(3 * bytes), AllocsPerOp: f(3 * allocs)},
		})
	}
	base := writeReport(t, dir, "base.json", []Result{
		{Name: "BenchmarkExecScan-2", NsPerOp: 5000, BytesPerOp: f(1000), AllocsPerOp: f(100)},
		{Name: "BenchmarkPlannerJoin-2", NsPerOp: 5000, BytesPerOp: f(1000), AllocsPerOp: f(100)},
	})
	for _, c := range []struct {
		name          string
		bytes, allocs float64
		want          int
	}{
		{"bytes +11%", 1110, 100, 1},
		{"bytes +9%", 1090, 100, 0},
		{"bytes -11% (stale baseline)", 890, 100, 1},
		{"allocs +11%", 1000, 111, 1},
		{"allocs -11% (stale baseline)", 1000, 89, 1},
		{"allocs and bytes within 10%", 1050, 95, 0},
	} {
		if got := gateReports(base, report(c.name+".json", c.bytes, c.allocs), 0.20); got != c.want {
			t.Errorf("%s: gate exit %d, want %d", c.name, got, c.want)
		}
	}
	// Plain -compare fails on the gate too.
	if got := compareReports(base, report("plain.json", 1110, 100), 0.20); got != 1 {
		t.Errorf("compare on bytes +11%%: exit %d, want 1", got)
	}
	// Allocations appearing on a zero-alloc gated benchmark fail.
	zero := writeReport(t, dir, "zero.json", []Result{{Name: "BenchmarkAblationX-2", NsPerOp: 500, BytesPerOp: f(0), AllocsPerOp: f(0)}})
	one := writeReport(t, dir, "one.json", []Result{{Name: "BenchmarkAblationX-2", NsPerOp: 500, BytesPerOp: f(16), AllocsPerOp: f(1)}})
	if got := gateReports(zero, one, 0.20); got != 1 {
		t.Errorf("0 -> 1 allocs: gate exit %d, want 1", got)
	}
	// An exempt benchmark's drift is advisory.
	thrash := func(name string, allocs float64) string {
		return writeReport(t, dir, name, []Result{
			{Name: "BenchmarkExecBufferPoolThrash-2", NsPerOp: 1e8, BytesPerOp: f(allocs * 200), AllocsPerOp: f(allocs)},
			{Name: "BenchmarkExecScan-2", NsPerOp: 5000, BytesPerOp: f(1000), AllocsPerOp: f(100)},
		})
	}
	if got := gateReports(thrash("thrash1.json", 1e6), thrash("thrash2.json", 1.5e6), 0.20); got != 0 {
		t.Errorf("exempt benchmark +50%% allocs: gate exit %d, want 0", got)
	}
}

func TestGatePairsOnlySameGoMaxProcs(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "cpu2.json", []Result{
		{Name: "BenchmarkExecScan-2", NsPerOp: 5000, BytesPerOp: f(1000), AllocsPerOp: f(100)},
		{Name: "BenchmarkExecJoin-2", NsPerOp: 5000, BytesPerOp: f(1000), AllocsPerOp: f(100)},
	})
	// BenchmarkExecScan ran at GOMAXPROCS 4 and allocates 5x as much: a
	// different benchmark by name, so it is NEW, not a regression.
	mixed := writeReport(t, dir, "mixed.json", []Result{
		{Name: "BenchmarkExecScan-4", NsPerOp: 5000, BytesPerOp: f(5000), AllocsPerOp: f(500)},
		{Name: "BenchmarkExecJoin-2", NsPerOp: 5000, BytesPerOp: f(1000), AllocsPerOp: f(100)},
	})
	if got := gateReports(old, mixed, 0.20); got != 0 {
		t.Errorf("-4 vs -2 names: gate exit %d, want 0", got)
	}
	// A run that pairs up with none of the baseline compared nothing.
	cpu4 := writeReport(t, dir, "cpu4.json", []Result{
		{Name: "BenchmarkExecScan-4", NsPerOp: 5000, BytesPerOp: f(1000), AllocsPerOp: f(100)},
		{Name: "BenchmarkExecJoin-4", NsPerOp: 5000, BytesPerOp: f(1000), AllocsPerOp: f(100)},
	})
	if got := gateReports(old, cpu4, 0.20); got != 1 {
		t.Errorf("no gated benchmark paired up: gate exit %d, want 1", got)
	}
}

func TestGateIgnoresNsRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []Result{{Name: "BenchmarkExecScan-2", NsPerOp: 1000, BytesPerOp: f(1000), AllocsPerOp: f(100)}})
	slow := writeReport(t, dir, "slow.json", []Result{{Name: "BenchmarkExecScan-2", NsPerOp: 3000, BytesPerOp: f(1000), AllocsPerOp: f(100)}})
	if got := gateReports(old, slow, 0.20); got != 0 {
		t.Errorf("ns/op x3 alone: gate exit %d, want 0", got)
	}
	if got := compareReports(old, slow, 0.20); got != 1 {
		t.Errorf("ns/op x3: compare exit %d, want 1 (advisory step)", got)
	}
}
