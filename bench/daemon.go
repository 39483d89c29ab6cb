package main

// daemon.go runs lanternd as a child process: build it from the checkout,
// spawn it on a free loopback port with flags it already has, wait for
// /v1/healthz, and read its CPU time, peak RSS and /metrics from outside.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles ./cmd/lanternd of the checkout at root into dir.
func buildDaemon(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "lanternd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/lanternd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building lanternd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemonArgs are the lanternd flags serving d; everything not listed keeps
// the daemon's default (GOMAXPROCS workers, 4x queue, 5 s request timeout).
func daemonArgs(d dataset, dataDir string) []string {
	args := []string{"-db", "tpch", "-seed", strconv.Itoa(dataSeed), "-cache-mb", fmt.Sprint(d.CacheMB)}
	if d.SF > 0 {
		return append(args, "-sf", fmt.Sprint(d.SF), "-data-dir", dataDir,
			"-buffer-pool-mb", fmt.Sprint(d.PoolMB))
	}
	return append(args, "-scale", fmt.Sprint(d.Scale))
}

// daemon is one running lanternd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	hc   *http.Client
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// startDaemon spawns bin with args on a free loopback port and returns
// once /v1/healthz answers 200, with the time that took.
func startDaemon(ctx context.Context, bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even when the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting lanternd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, hc: &http.Client{Timeout: 5 * time.Second}, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	for {
		if ok := d.healthy(); ok {
			return d, time.Since(start), nil
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("lanternd exited before serving (%v); see %s", d.err, logPath)
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

func (d *daemon) healthy() bool {
	resp, err := d.hc.Get(d.base + "/v1/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop asks the daemon to shut down and waits until it has exited,
// killing it if graceful shutdown takes longer than ten seconds.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.hc.CloseIdleConnections()
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime is the daemon's user+system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces:
	// state is field 3, utime 14 and stime 15.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS is the daemon's resident-set high-water mark (VmHWM) in bytes.
func (d *daemon) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// metrics scrapes GET /metrics into a map keyed by series (name plus
// label set, as exposed).
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := d.hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// Series read from /metrics.
const (
	seriesCacheHit   = `lantern_cache_events_total{event="hit"}`
	seriesCacheMiss  = `lantern_cache_events_total{event="miss"}`
	seriesCacheInval = `lantern_cache_events_total{event="invalidation"}`
	seriesPoolHit    = `lantern_bufferpool_events_total{event="hit"}`
	seriesPoolMiss   = `lantern_bufferpool_events_total{event="miss"}`
	seriesPoolBytes  = `lantern_bufferpool_bytes`
	seriesPoolBudget = `lantern_bufferpool_budget_bytes`
)
