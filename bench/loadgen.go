package main

// loadgen.go is the load generator: a keep-alive HTTP client bounded to
// nproc connections, a closed-loop pass and an open-loop schedule runner.
// All load comes from this process; the servers under test share its cores,
// which is why the connection bound is nproc and not larger.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cdl/internal/core"
	"cdl/internal/obs"
)

// httpTarget is one front door and the client that talks to it over at
// most `conns` keep-alive connections at a time.
type httpTarget struct {
	url    string
	client *http.Client
}

func newHTTPTarget(url string, conns int) *httpTarget {
	return &httpTarget{url: url, client: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
		},
	}}
}

// reconnect drops the idle connections, so the next request dials anew.
func (t *httpTarget) reconnect() { t.client.CloseIdleConnections() }

// post sends one body and returns the whole response body. traceID, when
// set, rides X-Trace-Id and opts the response into span detail.
func (t *httpTarget) post(url string, body []byte, traceID string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, raw)
	}
	return raw, nil
}

// result and response are the fields of the /v1 and /v2 classify and
// resume responses the benchmark reads (the two surfaces share names).
type result struct {
	Label      int     `json:"label"`
	ExitIndex  int     `json:"exit_index"`
	Confidence float64 `json:"confidence"`
	Ops        float64 `json:"ops"`
	EnergyPJ   float64 `json:"energy_pj"`
}

type response struct {
	Results []result   `json:"results"`
	Spans   []obs.Span `json:"spans"`
}

// tally is what one verified request contributed to the exact metrics.
type tally struct {
	images, correct int
	ops, pj         float64
}

// do sends request i of the workload and checks every record against the
// oracle: label, exit index, confidence and op count must be identical.
func (e *env) do(i int, traceID string) (response, error) {
	rq := e.reqs[i]
	raw, err := e.target.post(e.url, rq.body, traceID)
	if err != nil {
		return response{}, err
	}
	var resp response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return response{}, fmt.Errorf("response: %w", err)
	}
	return resp, e.verify(resp.Results, rq.lo, rq.hi)
}

// verify compares returned records for images [lo, hi) with the oracle.
func (e *env) verify(results []result, lo, hi int) error {
	if len(results) != hi-lo {
		return fmt.Errorf("%d results for %d images", len(results), hi-lo)
	}
	for k, r := range results {
		want := e.oracle[lo+k]
		if r.Label != want.Label || r.ExitIndex != want.StageIndex || r.Confidence != want.Confidence || r.Ops != want.Ops {
			return fmt.Errorf("image %d: got label %d exit %d conf %v ops %v, oracle label %d exit %d conf %v ops %v",
				lo+k, r.Label, r.ExitIndex, r.Confidence, r.Ops, want.Label, want.StageIndex, want.Confidence, want.Ops)
		}
	}
	return nil
}

// asResults renders in-process records the way a serving surface returns
// them, energy from the monolithic 45 nm table the serving tiers use, so
// that offline runs share verify and tallyOf. The slice is reused by the
// next call.
func (e *env) asResults(recs []core.ExitRecord) []result {
	e.scratch = e.scratch[:0]
	for _, r := range recs {
		e.scratch = append(e.scratch, result{r.Label, r.StageIndex, r.Confidence, r.Ops, e.exitPJ[r.StageIndex]})
	}
	return e.scratch
}

// tallyOf folds one verified response into the exact metrics.
func (e *env) tallyOf(results []result, lo int) tally {
	t := tally{images: len(results)}
	for k, r := range results {
		if r.Label == e.labels[lo+k] {
			t.correct++
		}
		t.ops += r.Ops
		t.pj += r.EnergyPJ
	}
	return t
}

// failures counts failed requests across client goroutines and keeps the
// first error as the example.
type failures struct {
	mu       sync.Mutex
	failed   int
	firstErr error
}

func (f *failures) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failed++
	if f.firstErr == nil {
		f.firstErr = err
	}
}

// passResult is one closed-loop pass.
type passResult struct {
	elapsed time.Duration
	failures
}

// closedPass runs requests lo..hi-1 once across `clients` goroutines, each
// sending its next request only after the previous reply.
func closedPass(lo, hi, clients int, do func(i int) error) *passResult {
	var next atomic.Int64
	next.Store(int64(lo))
	res := &passResult{}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				if err := do(i); err != nil {
					res.add(err)
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// schedule draws Poisson arrivals at a constant rate over dur: the offsets
// from the phase start at which each request is due.
func schedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// sample is one open-loop request: lat from its due time, svc from the
// moment it was actually sent, late the difference.
type sample struct{ lat, svc, late time.Duration }

func sampleLat(s sample) time.Duration  { return s.lat }
func sampleSvc(s sample) time.Duration  { return s.svc }
func sampleLate(s sample) time.Duration { return s.late }

// openResult is one open-loop phase.
type openResult struct {
	samples []sample
	failures
}

// openLoop sends request k at due[k], on at most `conns` connections. A
// request whose connections are all busy waits for one, and its latency is
// still timed from its due time, so a stall is charged to every request
// that was due during it (no coordinated omission).
func openLoop(due []time.Duration, conns int, do func(k int) error) *openResult {
	res := &openResult{samples: make([]sample, len(due))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(due) {
					return
				}
				dueAt := start.Add(due[k])
				if wait := time.Until(dueAt); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				err := do(k)
				done := time.Now()
				res.samples[k] = sample{lat: done.Sub(dueAt), svc: done.Sub(sent), late: sent.Sub(dueAt)}
				if err != nil {
					res.add(err)
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// column extracts one field of the samples in milliseconds.
func column(samples []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(f(s))
	}
	return out
}
