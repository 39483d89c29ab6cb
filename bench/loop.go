package main

// loop.go drives the daemon in a closed loop: each client holds one
// keep-alive connection and sends its next request as soon as the previous
// one is answered. Every caller of lanternd waits for its reply, and with
// no more clients than cores the daemon stays busy without a queue
// building, so latency reads as service time and throughput as capacity.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lantern/client"
)

// benchClient is one closed-loop caller.
type benchClient struct {
	next func() request
	sdk  *client.Client
	hc   *http.Client
	bc   *byteCounter
	chk  *checker
}

func newBenchClient(base string, next func() request, chk *checker) *benchClient {
	bc := &byteCounter{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	hc := &http.Client{Transport: bc}
	// Retries would hide failures the benchmark must count.
	return &benchClient{next: next, hc: hc, bc: bc, chk: chk,
		sdk: client.New(base, client.WithHTTPClient(hc), client.WithRetries(0))}
}

func (c *benchClient) close() { c.hc.CloseIdleConnections() }

// send issues req and returns the daemon's envelope. A streamed query's
// rows are collected into the trailer's Rows, where a unary query carries
// its echo.
func (c *benchClient) send(ctx context.Context, req request) (*client.Response, error) {
	if req.Stream {
		qs, err := c.sdk.QueryStream(ctx, &client.QueryRequest{SQL: req.SQL, MaxRows: req.MaxRows})
		if err != nil {
			return nil, err
		}
		defer qs.Close()
		var rows [][]string
		for {
			row, err := qs.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		tr := qs.Trailer()
		if tr == nil {
			return nil, errors.New("stream ended without a trailer")
		}
		tr.Rows = rows
		return &client.Response{Op: client.OpQuery, Query: tr}, nil
	}
	return c.sdk.Do(ctx, &client.Request{Op: req.Op, SQL: req.SQL, Plan: req.Plan, Dialect: req.Dialect,
		Question: req.Question, Stmt: req.Stmt, MaxRows: req.MaxRows})
}

// byteCounter counts response body bytes read through it.
type byteCounter struct {
	base *http.Transport
	n    atomic.Int64
}

func (b *byteCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := b.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &b.n}
	}
	return resp, err
}

func (b *byteCounter) CloseIdleConnections() { b.base.CloseIdleConnections() }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// window is what one measured window observed from the clients' side. The
// window is cut into slices of about a second by pauses; no request
// straddles a pause.
type window struct {
	slices    []time.Duration // length of each slice
	replies   []reply         // correct answers
	attempted int
	failures  []string
}

// reply is the latency of one correct answer and the slice it fell in.
type reply struct {
	slice int
	lat   time.Duration
}

const (
	phaseWarmup = iota
	phaseMeasure
	phaseStop
)

// maxFailureNotes bounds the failure messages a window keeps.
const maxFailureNotes = 5

// closedLoop runs the clients for warmup, then for measure. Once a second
// the clients stop, and once their requests in flight are answered,
// boundary runs; the clients then resume in a new slice. boundary also
// runs as the window opens. Pauses do not count towards the window's
// length, and the window closes at the first boundary after measure.
func closedLoop(ctx context.Context, clients []*benchClient, warmup, measure time.Duration, boundary func()) *window {
	var phase, slice atomic.Int32
	// Clients hold gate for reading while a request is in flight; a
	// boundary holds it for writing.
	var gate sync.RWMutex
	per := make([]window, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(w *window, c *benchClient) {
			defer wg.Done()
			for ctx.Err() == nil {
				req := c.next()
				gate.RLock()
				p, s := phase.Load(), int(slice.Load())
				if p == phaseStop {
					gate.RUnlock()
					return
				}
				start := time.Now()
				resp, err := c.send(ctx, req)
				lat := time.Since(start)
				gate.RUnlock()
				err = c.chk.check(req, resp, err, p == phaseMeasure)
				if p != phaseMeasure {
					continue
				}
				w.attempted++
				if err != nil {
					if len(w.failures) < maxFailureNotes {
						w.failures = append(w.failures, fmt.Sprintf("%s %s: %v", req.Op, req.Class, err))
					}
					continue
				}
				w.replies = append(w.replies, reply{s, lat})
			}
		}(&per[i], c)
	}
	out := &window{}
	sleepCtx(ctx, warmup)
	gate.Lock()
	boundary()
	phase.Store(phaseMeasure)
	start := time.Now()
	gate.Unlock()
	var measured time.Duration
	for done := false; !done; {
		sleepCtx(ctx, min(time.Second, measure-measured))
		gate.Lock()
		d := time.Since(start)
		boundary()
		out.slices = append(out.slices, d)
		measured += d
		if done = measured >= measure || ctx.Err() != nil; done {
			phase.Store(phaseStop)
		} else {
			slice.Add(1)
			start = time.Now()
		}
		gate.Unlock()
	}
	wg.Wait()
	for _, w := range per {
		out.attempted += w.attempted
		out.replies = append(out.replies, w.replies...)
		out.failures = append(out.failures, w.failures...)
	}
	return out
}

func (w *window) failed() int { return w.attempted - len(w.replies) }

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile[T time.Duration | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
