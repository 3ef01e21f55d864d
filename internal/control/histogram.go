package control

// histogram.go is the latency-distribution primitive behind both the
// sliding telemetry window and a plane's lifetime horizon (every tier's
// /statsz histograms): a fixed, log-spaced bucket layout over [1µs, 60s] so that
// Observe is O(log buckets), memory is constant, and quantile estimates
// carry a bounded relative error (one bucket width, ~12%) — exactly the
// precision an SLO controller needs and no more.

import (
	"math"
	"sort"
)

// histBounds are the bucket upper bounds in milliseconds: 1µs growing by
// 1.125× up to 60s. ~150 buckets; a quantile estimate is off by at most one
// growth factor.
var histBounds = func() []float64 {
	const min, max, growth = 1e-3, 60_000.0, 1.125
	var b []float64
	for v := min; v < max; v *= growth {
		b = append(b, v)
	}
	return append(b, max)
}()

// Histogram is a fixed-layout latency histogram in milliseconds. The zero
// value is NOT usable; create with NewHistogram. Not safe for concurrent
// use — callers hold their own lock (the telemetry window's, which also
// guards the lifetime horizon).
type Histogram struct {
	counts []int64
	total  int64
	sum    float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, len(histBounds))}
}

// Observe records one value in milliseconds. Negative and NaN values are
// clamped into the first bucket (they can only arise from clock
// weirdness, and dropping them would skew counts against latencies).
func (h *Histogram) Observe(ms float64) {
	i := 0
	if ms > 0 && !math.IsNaN(ms) {
		i = sort.SearchFloat64s(histBounds, ms)
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
		h.sum += ms
	}
	h.counts[i]++
	h.total++
}

// Add folds another histogram's counts into this one.
func (h *Histogram) Add(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
}

// clone returns a copy of the histogram.
func (h *Histogram) clone() *Histogram {
	c := NewHistogram()
	c.Add(h)
	return c
}

// Reset zeroes the histogram in place (the window reuses bucket storage
// across rotations).
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the mean observed value in milliseconds (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Export returns the histogram's distribution coarsened for external
// exposition: bucket upper bounds (ms) with step adjacent native buckets
// merged per exported bucket, the matching per-bucket (non-cumulative)
// counts, and the running sum and total. With ~150 native buckets, step 8
// yields ~20 exported buckets spanning 1µs→60s at ~2.6× growth — wide
// enough for dashboards, narrow enough to keep scrape cardinality flat.
// step < 1 is treated as 1. Caller holds whatever lock guards Observe.
func (h *Histogram) Export(step int) (bounds []float64, counts []int64, sum float64, total int64) {
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(histBounds); i += step {
		hi := i + step
		if hi > len(histBounds) {
			hi = len(histBounds)
		}
		var c int64
		for j := i; j < hi; j++ {
			c += h.counts[j]
		}
		bounds = append(bounds, histBounds[hi-1])
		counts = append(counts, c)
	}
	return bounds, counts, h.sum, h.total
}

// ExportStep is the exposition granularity of every tier's /metricsz:
// merging 8 adjacent native buckets leaves ~20 log-spaced ones from 1µs to
// 60s (~2.6× growth) — a small scrape that keeps the tail.
const ExportStep = 8

// Buckets is a histogram coarsened for exposition: what Export returns.
type Buckets struct {
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Buckets is Export at ExportStep, for a snapshot to carry.
func (h *Histogram) Buckets() (b Buckets) {
	b.Bounds, b.Counts, b.Sum, b.Count = h.Export(ExportStep)
	return b
}

// Quantile estimates the q-th quantile (q in [0,1]) in milliseconds: the
// upper bound of the bucket holding the q·total-th observation. Returns 0
// when empty. The estimate errs high by at most one bucket's width — the
// conservative direction for SLO checks (never under-reports a violation
// by more than the layout's resolution).
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histBounds[i]
		}
	}
	return histBounds[len(histBounds)-1]
}
