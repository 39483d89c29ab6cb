package main

// reference.go measures how fast the host runs while a workload is being
// measured. The virtual machine the benchmark was sized on changes speed by
// up to 2x over minutes, and every time metric moves with it (see "Host
// speed" in README.md). So each run samples the host's speed with fixed
// reference work, in pauses of the load, and corrects its time metrics
// towards a nominal speed. The reference work is standard-library code
// only: no change to the repository makes it faster or slower. It is timed in
// thread CPU time, so a sample counts how fast the CPU runs code, not how
// much of the CPU was left to it: the daemon's own background work, such as
// its garbage collector finishing after a query, belongs to the workload's
// cost and must not read as a slow host. CPU time the hypervisor gives to
// other guests (steal) is read from /proc/stat instead.

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// refNominal is the reference rate, in units per millisecond of thread CPU
// time, that reads as speed 1: the median measured on the 2-vCPU Intel
// Xeon virtual machine the bounds in BENCHMARK.json were set on.
const refNominal = 0.55

// refDuration is how long one speed sample runs the reference work.
const refDuration = 40 * time.Millisecond

// correction is the factor by which a duration measured at host speed s is
// multiplied, and a rate divided, to report it at nominal speed, for a
// workload whose time follows the given share of a change in host speed.
func correction(s, sensitivity float64) float64 { return math.Pow(s, sensitivity) }

// cpuStat is the host's CPU time so far, in USER_HZ ticks: in all, and the
// part the hypervisor gave to other guests while this one wanted to run.
type cpuStat struct{ total, steal int64 }

// readCPUStat reads the aggregate line of /proc/stat.
func readCPUStat() (cpuStat, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; the guest times
	// after them are already counted in user and nice.
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var st cpuStat
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return cpuStat{}, fmt.Errorf("/proc/stat: %w", err)
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st, nil
}

// stealShare is the share of the host's CPU time between a and b that the
// hypervisor took.
func stealShare(a, b cpuStat) float64 {
	return safeDiv(float64(b.steal-a.steal), float64(b.total-a.total))
}

// refStep is a node of a plan-shaped document, the JSON part of the work.
type refStep struct {
	Op       string    `json:"op"`
	Rows     float64   `json:"rows"`
	Attrs    []string  `json:"attrs"`
	Children []refStep `json:"children,omitempty"`
}

// refInputs are the reference work's fixed inputs: a plan-shaped document
// of 121 nodes, and a 64 MiB table, larger than the last-level cache as a
// scanned TPC-H table is.
var refInputs = sync.OnceValues(func() (refStep, []uint64) {
	r := rand.New(rand.NewSource(1))
	var node func(depth int) refStep
	node = func(depth int) refStep {
		s := refStep{Op: "op" + strconv.Itoa(r.Intn(100)), Rows: r.Float64() * 1e6}
		for i := 0; i < 4; i++ {
			s.Attrs = append(s.Attrs, strconv.Itoa(r.Int()))
		}
		for i := 0; depth > 0 && i < 3; i++ {
			s.Children = append(s.Children, node(depth-1))
		}
		return s
	}
	table := make([]uint64, 8<<20)
	for i := range table {
		table[i] = r.Uint64()
	}
	return node(4), table
})

// refUnit is one unit of reference work. It mixes the two kinds of work
// the daemon does: small-object compute, as narration does (a map, a
// sort, a JSON round trip and a hash), and a scan of a large array with
// random probes feeding a hash table, as query execution does.
func refUnit(i int) uint64 {
	doc, table := refInputs()
	keys := make([]string, 512)
	m := make(map[string]int, len(keys))
	for j := range keys {
		keys[j] = strconv.Itoa(j*7919 + i%64)
		m[keys[j]] = j
	}
	r := rand.New(rand.NewSource(int64(i)))
	r.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
	slices.Sort(keys)
	sum := uint64(m[keys[0]])
	raw, _ := json.Marshal(doc) // cannot fail: strings, numbers and slices only
	var back refStep
	if json.Unmarshal(raw, &back) == nil {
		sum += uint64(len(back.Children))
	}
	h := sha256.Sum256(raw)
	sum += uint64(h[0])

	const stretch = 1 << 18 // 2 MiB of the table
	n := uint64(len(table))
	start := uint64(i) * stretch * 7919 % (n - stretch)
	for _, v := range table[start : start+stretch] {
		sum += v
	}
	x := uint64(i)*0x9E3779B97F4A7C15 + 1
	probes := make(map[uint64]uint64, 1024)
	for j := 0; j < 4096; j++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := table[x%n]
		probes[v&1023] += v
	}
	return sum + uint64(len(probes))
}

// refSink keeps the compiler from dropping the reference work.
var refSink uint64

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

// threadCPU is the CPU time the calling thread has used.
func threadCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0, fmt.Errorf("thread CPU time: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// hostSpeed runs reference units on n goroutines, each locked to its own
// thread, for refDuration, and returns their rate per millisecond of
// thread CPU time over refNominal. The caller makes sure nothing else of
// the benchmark runs meanwhile.
func hostSpeed(n int) (float64, error) {
	refInputs()
	deadline := time.Now().Add(refDuration)
	units := make([]int, n)
	sums := make([]uint64, n)
	cpu := make([]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0, err := threadCPU()
			for i := g << 20; err == nil && time.Now().Before(deadline); i++ {
				sums[g] += refUnit(i)
				units[g]++
			}
			c1, err1 := threadCPU()
			cpu[g], errs[g] = c1-c0, errors.Join(err, err1)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	var total int
	var spent time.Duration
	for g := range units {
		total += units[g]
		spent += cpu[g]
		refSink += sums[g]
	}
	if spent <= 0 {
		return 0, errors.New("thread CPU time does not advance")
	}
	return float64(total) / ms(spent) / refNominal, nil
}
