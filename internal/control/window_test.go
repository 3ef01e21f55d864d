package control

import (
	"math"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for deterministic window tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", got)
	}
	// 1000 observations spread uniformly over [1ms, 100ms]: quantile
	// estimates must land within one bucket growth factor (12.5%) of the
	// true value.
	n := 1000
	for i := 0; i < n; i++ {
		h.Observe(1 + 99*float64(i)/float64(n-1))
	}
	if h.Count() != int64(n) {
		t.Fatalf("count %d, want %d", h.Count(), n)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50.5}, {0.95, 95.05}, {0.99, 99.01},
	} {
		got := h.Quantile(tc.q)
		if got < tc.want || got > tc.want*1.13 {
			t.Errorf("p%g = %v, want within [%v, %v]", 100*tc.q, got, tc.want, tc.want*1.13)
		}
	}
	mean := h.Mean()
	if math.Abs(mean-50.5) > 0.5 {
		t.Errorf("mean %v, want ~50.5", mean)
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)         // negative → first bucket
	h.Observe(math.NaN()) // NaN → first bucket
	h.Observe(1e9)        // beyond 60s → last bucket
	if h.Count() != 3 {
		t.Fatalf("count %d, want 3", h.Count())
	}
	if got := h.Quantile(0.01); got != histBounds[0] {
		t.Errorf("p1 = %v, want first bound %v", got, histBounds[0])
	}
	if got := h.Quantile(1); got != histBounds[len(histBounds)-1] {
		t.Errorf("p100 = %v, want last bound %v", got, histBounds[len(histBounds)-1])
	}
}

func TestWindowSlides(t *testing.T) {
	clk := newFakeClock()
	w := NewWindow(3, WindowConfig{Now: clk.now})

	w.Arrivals(10)
	w.ObserveBatch([]Obs{{LatencyMS: 5, ExitIndex: 0, EnergyPJ: 100}, {LatencyMS: 5, ExitIndex: 2, EnergyPJ: 300}})
	clk.advance(bucketDur)
	w.ObserveBatch([]Obs{{LatencyMS: 50, ExitIndex: 1, EnergyPJ: 200}})
	w.rotate(clk.now()).sheds += 2 // what Plane.Observe charges for a 2-image shed

	s := w.Snapshot()
	if s.Images != 3 || s.Arrivals != 10 || s.Sheds != 2 {
		t.Fatalf("images/arrivals/sheds = %d/%d/%d, want 3/10/2", s.Images, s.Arrivals, s.Sheds)
	}
	if want := (0.0 + 2 + 1) / 3; math.Abs(s.MeanExitDepth-want) > 1e-12 {
		t.Errorf("mean exit depth %v, want %v", s.MeanExitDepth, want)
	}
	if want := (100.0 + 300 + 200) / 3; math.Abs(s.MeanEnergyPJ-want) > 1e-12 {
		t.Errorf("mean energy %v, want %v", s.MeanEnergyPJ, want)
	}
	if got := s.ExitCounts; got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Errorf("exit counts %v, want [1 1 1]", got)
	}

	// Slide past the first bucket: its contents must age out.
	clk.advance((windowBuckets - 1) * bucketDur)
	w.ObserveBatch([]Obs{{LatencyMS: 1, ExitIndex: 0}})
	s = w.Snapshot()
	if s.Images != 2 {
		t.Fatalf("after slide: images %d, want 2 (first bucket aged out)", s.Images)
	}
	if s.Arrivals != 0 || s.Sheds != 2 {
		t.Errorf("after slide: arrivals/sheds = %d/%d, want 0/2", s.Arrivals, s.Sheds)
	}

	// A long idle gap clears everything.
	clk.advance(time.Hour)
	s = w.Snapshot()
	if s.Images != 0 || s.Arrivals != 0 || s.Sheds != 0 {
		t.Fatalf("after idle gap: %+v, want empty", s)
	}
}

func TestWindowArrivalRate(t *testing.T) {
	clk := newFakeClock()
	w := NewWindow(2, WindowConfig{Now: clk.now})
	for i := 0; i < 8; i++ {
		w.Arrivals(50)
		clk.advance(bucketDur)
	}
	s := w.Snapshot()
	if s.Arrivals != 400 {
		t.Fatalf("arrivals %d, want 400", s.Arrivals)
	}
	// 400 arrivals over a 4-second live span.
	if math.Abs(s.ArrivalRatePerSec-100) > 1 {
		t.Errorf("arrival rate %v/s, want ~100/s (span %vs)", s.ArrivalRatePerSec, s.SpanSeconds)
	}
}

func TestWindowClampsExitIndex(t *testing.T) {
	clk := newFakeClock()
	w := NewWindow(2, WindowConfig{Now: clk.now})
	w.ObserveBatch([]Obs{{ExitIndex: -3}, {ExitIndex: 99}})
	s := w.Snapshot()
	if s.ExitCounts[0] != 1 || s.ExitCounts[1] != 1 {
		t.Fatalf("exit counts %v, want [1 1]", s.ExitCounts)
	}
}
