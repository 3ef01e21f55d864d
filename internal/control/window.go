// Package control is the SLO feedback layer that closes the loop between
// live serving load and the paper's §III.B runtime knob: a sliding-window
// telemetry view of each model's recent traffic (Window), a declarative
// target (SLO), and a feedback controller (Controller) that steps the
// model's effective exit policy along a monotone cost axis — degrading
// gracefully to shallower exits under overload instead of shedding, and
// restoring the trained behaviour when the load passes.
//
// The actuation axis deliberately is NOT δ itself: under the paper's
// exactly-one-score exit rule the cost is non-monotone in δ (δ near 0
// makes every class "confident" and forces full depth just like δ=1 —
// see serve.ClassifyRequest). The monotone knob is the cascade depth cap
// (core.ExitPolicy.MaxExit): each Ladder rung removes one exit point, so
// stepping up the ladder strictly reduces worst-case work per input.
// Rung 0 is the identity policy — the trained δ governs, full depth
// available — which is what "recovery" restores.
package control

import (
	"sync"
	"time"
)

// Obs is one classified input's contribution to the telemetry window.
type Obs struct {
	// LatencyMS is the input's queue+service time in milliseconds.
	LatencyMS float64
	// ExitIndex is the exit point the input left the cascade at.
	ExitIndex int
	// EnergyPJ is the input's dynamic 45 nm energy.
	EnergyPJ float64
}

// The telemetry window's geometry: a ring of windowBuckets slots of
// bucketDur each, 5 s of traffic.
const (
	windowBuckets = 10
	bucketDur     = 500 * time.Millisecond
)

// WindowConfig configures a telemetry window.
type WindowConfig struct {
	// Now is the clock (injectable for deterministic tests). Default
	// time.Now.
	Now func() time.Time
}

// wbucket is one ring slot's accumulators.
type wbucket struct {
	start      time.Time // zero = never used
	images     int64
	arrivals   int64
	sheds      int64
	lat        *Histogram
	exitSum    int64
	exitCounts []int64
	energySum  float64
}

func (b *wbucket) reset(start time.Time) {
	b.start = start
	b.images, b.arrivals, b.sheds, b.exitSum, b.energySum = 0, 0, 0, 0, 0
	b.lat.Reset()
	for i := range b.exitCounts {
		b.exitCounts[i] = 0
	}
}

// Window is a sliding-window telemetry accumulator: a time-bucketed ring
// whose Snapshot summarizes only the last windowBuckets×bucketDur of traffic.
// It is the controller's sensor — cumulative metrics can't tell "load
// spiked 2 s ago" from "load spiked an hour ago". All methods are safe
// for concurrent use; the single mutex is taken once per batch of
// observations, not per image, as the serve pool emits once per batch.
type Window struct {
	mu       sync.Mutex
	cfg      WindowConfig
	numExits int
	buckets  [windowBuckets]wbucket // guarded by mu
	cur      int                    // guarded by mu
	// life is the lifetime horizon a Plane binds beside the window and
	// charges in the same Observe pass (nil on a bare window). The pointer
	// is set before the window is published; the horizon is read and
	// written only under mu.
	life *Lifetime
}

// NewWindow returns an empty window for a cascade with numExits exit
// points (exit-depth tallies are sized by it; observations outside the
// range are clamped).
func NewWindow(numExits int, cfg WindowConfig) *Window {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if numExits < 1 {
		numExits = 1
	}
	w := &Window{cfg: cfg, numExits: numExits}
	for i := range w.buckets {
		w.buckets[i].lat = NewHistogram()
		w.buckets[i].exitCounts = make([]int64, numExits)
	}
	w.buckets[0].start = cfg.Now()
	return w
}

// rotate advances the ring to the bucket covering now. Caller holds mu.
func (w *Window) rotate(now time.Time) *wbucket {
	cur := &w.buckets[w.cur]
	for !now.Before(cur.start.Add(bucketDur)) {
		steps := int(now.Sub(cur.start) / bucketDur)
		if steps > len(w.buckets) {
			steps = len(w.buckets)
		}
		start := cur.start
		for s := 1; s <= steps; s++ {
			w.cur = (w.cur + 1) % len(w.buckets)
			w.buckets[w.cur].reset(start.Add(time.Duration(s) * bucketDur))
		}
		// After clearing a full ring the oldest start may still trail now
		// (a long idle gap); realign instead of looping bucket by bucket.
		cur = &w.buckets[w.cur]
		if !now.Before(cur.start.Add(bucketDur)) {
			cur.reset(now)
		}
	}
	return cur
}

// ObserveBatch records one micro-batch of classified inputs.
func (w *Window) ObserveBatch(obs []Obs) {
	if len(obs) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	b := w.rotate(w.cfg.Now())
	for _, o := range obs {
		b.observe(o)
	}
}

// observe adds one classified input to the slot. Caller holds the
// window's mu.
func (b *wbucket) observe(o Obs) {
	b.images++
	b.lat.Observe(o.LatencyMS)
	e := o.ExitIndex
	if e < 0 {
		e = 0
	} else if e >= len(b.exitCounts) {
		e = len(b.exitCounts) - 1
	}
	b.exitSum += int64(e)
	b.exitCounts[e]++
	b.energySum += o.EnergyPJ
}

// Arrivals records n inputs offered to the system (admitted or not) — the
// open-loop demand signal.
func (w *Window) Arrivals(n int) {
	if n <= 0 {
		return
	}
	w.mu.Lock()
	w.rotate(w.cfg.Now()).arrivals += int64(n)
	w.mu.Unlock()
}

// Snapshot is a consistent summary of the window's live span.
type Snapshot struct {
	// SpanSeconds is the wall-clock span the snapshot covers (at most the
	// window size; less right after startup).
	SpanSeconds float64 `json:"span_seconds"`
	// Images is the number of classified inputs observed in the span.
	Images int64 `json:"images"`
	// Arrivals and Sheds are offered vs rejected inputs in the span.
	Arrivals int64 `json:"arrivals"`
	Sheds    int64 `json:"sheds"`
	// ArrivalRatePerSec is Arrivals over the span.
	ArrivalRatePerSec float64 `json:"arrival_rate_per_sec"`
	// Latency quantiles are queue+service time in milliseconds.
	MeanLatencyMS float64 `json:"mean_latency_ms"`
	P50LatencyMS  float64 `json:"p50_latency_ms"`
	P95LatencyMS  float64 `json:"p95_latency_ms"`
	P99LatencyMS  float64 `json:"p99_latency_ms"`
	// MeanExitDepth is the mean exit index — the live measure of how much
	// cascade the traffic is consuming (drops when the controller
	// shallows the exits).
	MeanExitDepth float64 `json:"mean_exit_depth"`
	// ExitCounts is the per-exit-point tally in cascade order.
	ExitCounts []int64 `json:"exit_counts"`
	// MeanEnergyPJ is the mean dynamic energy per image.
	MeanEnergyPJ float64 `json:"mean_energy_pj"`
}

// Snapshot merges the ring's live buckets into one summary.
func (w *Window) Snapshot() Snapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.cfg.Now()
	w.rotate(now)
	horizon := now.Add(-time.Duration(len(w.buckets)) * bucketDur)
	merged := NewHistogram()
	s := Snapshot{ExitCounts: make([]int64, w.numExits)}
	oldest := now
	var exitSum int64
	var energySum float64
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.start.IsZero() || b.start.Before(horizon) {
			continue
		}
		if b.start.Before(oldest) {
			oldest = b.start
		}
		s.Images += b.images
		s.Arrivals += b.arrivals
		s.Sheds += b.sheds
		exitSum += b.exitSum
		energySum += b.energySum
		for e, c := range b.exitCounts {
			s.ExitCounts[e] += c
		}
		merged.Add(b.lat)
	}
	s.SpanSeconds = now.Sub(oldest).Seconds()
	if s.SpanSeconds > 0 {
		s.ArrivalRatePerSec = float64(s.Arrivals) / s.SpanSeconds
	}
	if s.Images > 0 {
		s.MeanLatencyMS = merged.Mean()
		s.P50LatencyMS = merged.Quantile(0.50)
		s.P95LatencyMS = merged.Quantile(0.95)
		s.P99LatencyMS = merged.Quantile(0.99)
		s.MeanExitDepth = float64(exitSum) / float64(s.Images)
		s.MeanEnergyPJ = energySum / float64(s.Images)
	}
	return s
}
