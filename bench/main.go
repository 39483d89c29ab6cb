// Command bench is LANTERN's end-to-end benchmark. It builds lanternd from
// the checkout, starts it as a child process per workload, drives it over
// loopback with the client SDK from min(2, nproc) closed-loop clients,
// checks every answer, and reports the end-to-end metrics; a traced replay
// afterwards breaks each workload down by layer. See README.md.
//
// Run every workload (5 s warmup, 30 s measured, traced replay):
//
//	bash bench/run.sh -seed 1 -out bench/out/set1.json
//
// Run one workload, printing one JSON result as the last line:
//
//	bash bench/run.sh --workload classroom --seed 3 --seconds 15 --trace 0
//
// Compare two sets of runs against the bounds in BENCHMARK.json:
//
//	bash bench/run.sh -compare bench/out/set1.json bench/out/set2.json
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	root := fs.String("root", "", "repository checkout to build and measure (default: the directory holding BENCHMARK.json, here or one up)")
	name := fs.String("workload", "", "run only this workload, printing one JSON result as the last line (default: all, with traces)")
	seed := fs.Int64("seed", 1, "request sequence seed")
	seconds := fs.Int("seconds", 30, "measured window per workload, in seconds")
	trace := fs.Int("trace", -1, "1: run the traced replay and print the per-layer metrics; 0: print the end-to-end metrics (default: 1 for all workloads, 0 for one)")
	out := fs.String("out", "", "append the runs to this results file")
	compareMode := fs.Bool("compare", false, "compare two results files given as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	var err error
	if *root, err = findRoot(*root); err != nil {
		return err
	}
	if *compareMode {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two results files")
		}
		return compareFiles(*root, fs.Arg(0), fs.Arg(1))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	wls := workloads()
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		wls = []*workload{w}
	}
	traced := *trace == 1 || (*trace == -1 && *name == "")
	cfg := runConfig{root: *root, build: filepath.Join(*root, ".bench_build"), outDir: filepath.Join(*root, "bench", "out"),
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, warmup: warmup, trace: traced,
		clients: min(maxClients, runtime.NumCPU())}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if cfg.bin, err = buildDaemon(ctx, cfg.root, cfg.build); err != nil {
		return err
	}
	// The first run in a checkout seeds the on-disk data and computes the
	// reference answers of every workload with a query bank, whichever
	// workload it measures, so that only the first run pays for them.
	for _, w := range workloads() {
		fx, err := newFixture(w)
		if err != nil {
			return err
		}
		if len(fx.groups) == 0 {
			continue
		}
		if _, err := cfg.prepare(w); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	var results []runResult
	for _, w := range wls {
		res, err := cfg.runWorkload(ctx, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, *res)
		if *name == "" {
			printRun(os.Stdout, res)
		}
	}
	if *out != "" {
		if err := appendResults(*out, environment(), results); err != nil {
			return err
		}
	}
	if *name != "" {
		return printResultLine(&results[0], traced)
	}
	return nil
}

// findRoot resolves the checkout: the given directory, or the first of
// the working directory and its parent that holds BENCHMARK.json.
func findRoot(root string) (string, error) {
	if root != "" {
		return filepath.Abs(root)
	}
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cannot find the checkout (BENCHMARK.json); pass -root")
}

func environment() envInfo {
	return envInfo{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		OS: runtime.GOOS, Arch: runtime.GOARCH}
}

// printResultLine prints the single-workload result: the end-to-end
// metrics, or with trace the per-layer ones.
func printResultLine(r *runResult, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
		metrics[d.name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func compareFiles(root, pathA, pathB string) error {
	s, err := readSpec(root)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if compare(os.Stdout, s, a, b) {
		return errors.New("some metric is worse than its bound")
	}
	return nil
}

// warmup is the discarded load before each window: in sizing, the first
// un-warmed 15 s window read 15–20% off the later ones.
const warmup = 5 * time.Second

// A run starts the daemon at least setupRunsMin times, and again while the
// starts so far took less than setupBudget in all, up to setupRunsMax
// times; setup_s is the median, and the last start serves the window. The
// in-memory workloads start in tens of milliseconds, so they get more
// starts than query-disk's second-long recovery.
const (
	setupRunsMin = 3
	setupRunsMax = 15
	setupBudget  = time.Second
)

type runConfig struct {
	root, build, outDir, bin string
	seed                     int64
	seconds, warmup          time.Duration
	trace                    bool
	clients                  int
}

// runner is one workload run in progress.
type runner struct {
	runConfig
	w       *workload
	fx      *fixture
	o       *oracle
	dataDir string
}

func (rn *runner) start(ctx context.Context, label string) (*daemon, time.Duration, error) {
	log := filepath.Join(rn.outDir, fmt.Sprintf("lanternd-%s-%s.log", rn.w.name, label))
	return startDaemon(ctx, rn.bin, daemonArgs(rn.w.data, rn.dataDir), log)
}

// prepare readies w's inputs: its seeded data directory, its request
// fixture and its oracle.
func (cfg runConfig) prepare(w *workload) (*runner, error) {
	rn := &runner{runConfig: cfg, w: w}
	cache, err := cacheDir(cfg.root, cfg.build)
	if err != nil {
		return nil, err
	}
	if w.data.SF > 0 {
		if rn.dataDir, err = ensureDataDir(w.data, cache); err != nil {
			return nil, err
		}
	}
	if rn.fx, err = newFixture(w); err != nil {
		return nil, err
	}
	if rn.o, err = newOracle(w, rn.fx, rn.dataDir, cache, cfg.clients); err != nil {
		return nil, err
	}
	return rn, nil
}

func (cfg runConfig) runWorkload(ctx context.Context, w *workload) (*runResult, error) {
	rn, err := cfg.prepare(w)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.name, Seed: cfg.seed, Clients: cfg.clients, Seconds: cfg.seconds.Seconds(),
		WarmupS: cfg.warmup.Seconds(), Dataset: w.data, DaemonFlags: daemonArgs(w.data, rn.dataDir),
		Traced: cfg.trace, Metrics: make(map[string]metricValue)}
	if err := rn.measure(ctx, res); err != nil {
		return nil, err
	}
	if cfg.trace {
		// Phase 1 of the replay gets half the window's length, so a traced
		// run costs about two windows more than an untraced one.
		rep, err := rn.replay(ctx, cfg.seconds/2)
		if err != nil {
			return nil, err
		}
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		res.Failures = append(res.Failures, rep.failures...)
		layerMetrics(rep, res.add)
		if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), w.name, cfg.seed, rep); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	res.ErrorRate = float64(res.Failed) / float64(max(1, res.Attempted))
	return res, nil
}

// add records a metric with the unit and direction its table gives it.
func (r *runResult) add(name string, v float64, n int) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: d.unit, Better: d.better, Samples: n}
				return
			}
		}
	}
	panic("unknown metric " + name)
}

// maxSteal is the largest share of the host's CPU time the hypervisor may
// take from a slice of the window for the slice to count (see "Host speed"
// in README.md).
const maxSteal = 0.02

// measure starts the daemon several times, runs the closed loop on the
// last start, and records the end-to-end and window metrics. Time metrics
// are corrected to the nominal host speed (see reference.go): each start by
// a speed sample taken just before it, the window by the median of the
// samples taken at its boundaries. They are taken over the slices of the
// window the hypervisor left alone, and over at least half of it.
func (rn *runner) measure(ctx context.Context, res *runResult) error {
	var setups []float64
	var spent time.Duration
	var d *daemon
	for i := 0; i < setupRunsMax && (i < setupRunsMin || spent < setupBudget); i++ {
		if d != nil {
			d.stop()
		}
		speed, err := hostSpeed(rn.clients)
		if err != nil {
			return err
		}
		var took time.Duration
		if d, took, err = rn.start(ctx, "window"); err != nil {
			return err
		}
		spent += took
		setups = append(setups, took.Seconds()*correction(speed, rn.w.sensitivity))
	}
	defer d.stop()

	clients := make([]*benchClient, rn.clients)
	for c := range clients {
		clients[c] = newBenchClient(d.base, rn.w.newGen(rn.fx, rn.seed, c, rn.clients), &checker{o: rn.o, c: c})
	}
	// Readings at each boundary of the window.
	var before, after map[string]float64
	var cpus []time.Duration
	var hosts []cpuStat
	var speeds []float64
	var peakPool float64
	var errs []error
	boundary := func() {
		m, err1 := d.metrics()
		cpu, err2 := d.cpuTime()
		host, err3 := readCPUStat()
		speed, err4 := hostSpeed(rn.clients)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			errs = append(errs, err)
			return
		}
		if before == nil {
			before = m
		}
		after = m
		cpus, hosts, speeds = append(cpus, cpu), append(hosts, host), append(speeds, speed)
		peakPool = max(peakPool, m[seriesPoolBytes])
	}
	win := closedLoop(ctx, clients, rn.warmup, rn.seconds, boundary)
	if err := ctx.Err(); err != nil {
		return err
	}
	rss, err := d.peakRSS()
	if err != nil {
		errs = append(errs, err)
	}
	for _, c := range clients {
		c.close()
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("measuring: %w", err)
	}
	d.stop()

	res.Attempted, res.Failed, res.Failures = win.attempted, win.failed(), win.failures
	for _, c := range clients {
		n, bad := rn.o.verifySamples(c.chk.samples)
		res.Verified += n
		res.Failed += len(bad)
		for _, e := range bad {
			if len(res.Failures) < maxFailureNotes {
				res.Failures = append(res.Failures, e.Error())
			}
		}
	}

	// Slice i lies between boundaries i and i+1. Every slice within
	// maxSteal counts; while those make up less than half of the window,
	// the least-stolen of the others count too.
	steal := make([]float64, len(win.slices))
	order := make([]int, len(win.slices))
	var kept, total time.Duration
	for i, d := range win.slices {
		steal[i], order[i] = stealShare(hosts[i], hosts[i+1]), i
		total += d
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(steal[a], steal[b]) })
	keep := make([]bool, len(win.slices))
	for _, i := range order {
		if steal[i] > maxSteal && kept >= total/2 {
			break
		}
		keep[i] = true
		kept += win.slices[i]
	}
	var lats []time.Duration
	for _, a := range win.replies {
		if keep[a.slice] {
			lats = append(lats, a.lat)
		}
	}
	slices.Sort(lats)
	var cpu time.Duration
	for i := range win.slices {
		if keep[i] {
			cpu += cpus[i+1] - cpus[i]
		}
	}
	res.StealShare = stealShare(hosts[0], hosts[len(hosts)-1])
	res.KeptShare = kept.Seconds() / total.Seconds()

	// Durations are multiplied by the correction, rates divided by it.
	res.HostSpeed = median(speeds)
	corr := correction(res.HostSpeed, rn.w.sensitivity)
	ok := len(lats)
	res.add("throughput_rps", float64(ok)/kept.Seconds()/corr, ok)
	res.add("latency_p50_ms", ms(quantile(lats, 0.5))*corr, ok)
	res.add("latency_p95_ms", ms(quantile(lats, 0.95))*corr, ok)
	res.add("cpu_ms_per_req", ms(cpu)/float64(max(1, ok))*corr, ok)
	res.add("peak_rss_mb", float64(rss)/(1<<20), 1)
	res.add("setup_s", median(setups), len(setups))

	// The /metrics deltas span the whole window.
	answered := len(win.replies)
	delta := func(series string) float64 { return after[series] - before[series] }
	hits, misses := delta(seriesCacheHit), delta(seriesCacheMiss)
	res.add("service.cache_hit_ratio", safeDiv(hits, hits+misses), int(hits+misses))
	res.add("service.cache_invalidations_per_1k", 1000*safeDiv(delta(seriesCacheInval), float64(answered)), answered)
	phits, pmisses := delta(seriesPoolHit), delta(seriesPoolMiss)
	res.add("pager.pool_hit_ratio", safeDiv(phits, phits+pmisses), int(phits+pmisses))
	res.add("pager.pool_misses_per_req", safeDiv(pmisses, float64(answered)), answered)
	res.add("pager.pool_peak_bytes_over_budget", safeDiv(peakPool, after[seriesPoolBudget]), int(rn.seconds/time.Second))
	return nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
