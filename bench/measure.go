package main

// measure.go is the end-to-end run (--trace 0): repeated set-ups for
// setup_s, then the timed phases with tracing of the benchmark's own off,
// every output checked against the oracle as it arrives.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// minPasses is the fewest passes a saturated phase totals over.
const minPasses = 3

// outcome is what one run reports.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	firstErr  error
	// notes are human-readable lines (sample counts, phase sizes).
	notes []string
}

func (o *outcome) fail(n int, err error) {
	o.failed += n
	if o.firstErr == nil && err != nil {
		o.firstErr = err
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setUp builds the workload setupRepeats times and keeps the last one.
func setUp(w workload, seed int64) (*env, float64, error) {
	var e *env
	times := make([]float64, 0, setupRepeats)
	for r := 0; r < setupRepeats; r++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = newEnv(w, seed); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, median(times), nil
}

// runEndToEnd measures w for about `seconds` seconds.
func runEndToEnd(w workload, seed int64, seconds float64) (*outcome, error) {
	e, setupS, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	o := &outcome{metrics: map[string]float64{"setup_s": setupS}}
	budget := time.Duration(seconds * float64(time.Second))
	if w.offline() {
		e.measureOffline(o, budget)
	} else {
		e.measureServing(o, seed, budget)
	}
	return o, nil
}

// exact folds per-request tallies of one full pass into the metrics that
// must repeat exactly for a seed.
func (e *env) exact(o *outcome, tallies []tally) {
	var sum tally
	for _, t := range tallies {
		sum.images += t.images
		sum.correct += t.correct
		sum.ops += t.ops
		sum.pj += t.pj
	}
	n := float64(sum.images)
	o.metrics["accuracy"] = float64(sum.correct) / n
	o.metrics["norm_ops"] = sum.ops / n / e.baseOps
	o.metrics["pj_per_image"] = sum.pj / n
}

// saturated accumulates the passes of the phase that keeps the machine
// busy: images classified, time inside passes, and the bytes the process
// allocated across the phase.
type saturated struct {
	passes, images int
	busy           time.Duration
	alloc0         uint64
}

func startSaturated() *saturated {
	return &saturated{alloc0: allocBytes()}
}

func (s *saturated) add(images int, elapsed time.Duration) {
	s.passes++
	s.images += images
	s.busy += elapsed
}

// report prints the phase's totals: images over time, bytes over images.
func (s *saturated) report(o *outcome) {
	n := float64(s.images)
	o.metrics["images_per_s"] = n / s.busy.Seconds()
	o.metrics["alloc_kb_per_image"] = float64(allocBytes()-s.alloc0) / 1024 / n
}

// allocBytes reads cumulative allocated bytes; the difference across a
// phase is what that phase allocated, GC timing notwithstanding.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// measureOffline spends two thirds of the budget on whole passes over the
// test split in batches of offlineBatch (images_per_s and
// alloc_kb_per_image are totals over these passes), and the rest on
// batch-of-1 calls (lat_p50_ms is one call).
func (e *env) measureOffline(o *outcome, budget time.Duration) {
	n := len(e.xs)
	batches := (n + offlineBatch - 1) / offlineBatch
	tallies := make([]tally, batches)
	sat := startSaturated()
	deadline := time.Now().Add(budget * 2 / 3)
	for sat.passes < minPasses || time.Now().Before(deadline) {
		t0 := time.Now()
		for b := 0; b < batches; b++ {
			lo, hi := b*offlineBatch, (b+1)*offlineBatch
			if hi > n {
				hi = n
			}
			results := e.asResults(e.sess.ClassifyBatchPolicy(e.xs[lo:hi], e.pol))
			o.attempted++
			if err := e.verify(results, lo, hi); err != nil {
				o.fail(1, err)
				continue
			}
			tallies[b] = e.tallyOf(results, lo)
		}
		sat.add(n, time.Since(t0))
	}
	sat.report(o)
	o.notef("batch phase: %d passes of %d images in batches of %d", sat.passes, n, offlineBatch)
	e.exact(o, tallies)

	var lats []float64
	deadline = time.Now().Add(budget / 3)
	for len(lats) < n || time.Now().Before(deadline) {
		for i, x := range e.xs {
			t0 := time.Now()
			rec := e.sess.ClassifyDelta(x, e.w.Delta)
			lats = append(lats, ms(time.Since(t0)))
			o.attempted++
			if !rec.Equal(e.oracle[i]) {
				o.fail(1, fmt.Errorf("image %d: Session.Classify %+v, oracle %+v", i, rec, e.oracle[i]))
			}
		}
	}
	o.notef("batch-of-1 phase: %d calls", len(lats))
	o.metrics["lat_p50_ms"] = median(lats)
}

// measureServing spends three fifths of the budget on closed-loop passes
// with nproc clients, which between them cover every request of the split
// at least once (images_per_s and alloc_kb_per_image are totals over these
// passes; the exact metrics come from them too), then the rest on the
// open-loop phase at the workload's fixed rate (lat_p50_ms, from due time).
//
// The closed loop runs first, straight after the closed-loop warm-up: run
// after the open-loop phase, the same passes settled 15 % lower in four
// runs of ten on serve-batch16. Each pass takes the next replayRequests
// requests on fresh connections, so that whatever a connection's life pins
// (which goroutines share a processor, when its timers fire) is drawn anew
// (README.md, noise findings).
func (e *env) measureServing(o *outcome, seed int64, budget time.Duration) {
	tallies := make([]tally, len(e.reqs))
	do := func(i int) error {
		resp, err := e.do(i, "")
		if err == nil {
			tallies[i] = e.tallyOf(resp.Results, e.reqs[i].lo)
		}
		return err
	}
	windows := (len(e.reqs) + replayRequests - 1) / replayRequests
	sat := startSaturated()
	deadline := time.Now().Add(budget * 3 / 5)
	for pass := 0; pass < minPasses || pass < windows || time.Now().Before(deadline); pass++ {
		lo := pass % windows * replayRequests
		hi := lo + replayRequests
		if hi > len(e.reqs) {
			hi = len(e.reqs)
		}
		e.target.reconnect()
		t0 := time.Now()
		res := closedPass(lo, hi, e.nproc, do)
		sat.add(e.reqs[hi-1].hi-e.reqs[lo].lo, time.Since(t0))
		o.attempted += hi - lo
		o.fail(res.failed, res.firstErr)
	}
	sat.report(o)
	o.notef("closed loop: %d passes of <=%d requests x %d images, %d clients, fresh connections each pass", sat.passes, replayRequests, e.w.ImagesPerReq, e.nproc)
	e.exact(o, tallies)

	open := e.openPhase(o, seed, budget*2/5)
	o.metrics["lat_p50_ms"] = median(column(open.samples, sampleLat))
}

// openPhase runs the seeded open-loop schedule for dur and charges its
// failures to o.
func (e *env) openPhase(o *outcome, seed int64, dur time.Duration) *openResult {
	due := schedule(rand.New(rand.NewSource(seed)), e.w.Rate, dur)
	open := openLoop(due, e.nproc, func(k int) error {
		_, err := e.do(k%len(e.reqs), "")
		return err
	})
	o.attempted += len(due)
	o.fail(open.failed, open.firstErr)
	o.notef("open loop: %d requests at %.0f req/s on <=%d connections: from due time p50 %.3f p99 %.3f ms, from send p50 %.3f ms, sent late p50 %.3f max %.3f ms",
		len(due), e.w.Rate, e.nproc,
		median(column(open.samples, sampleLat)), quantile(column(open.samples, sampleLat), 0.99),
		median(column(open.samples, sampleSvc)), median(column(open.samples, sampleLate)), quantile(column(open.samples, sampleLate), 1))
	return open
}
