package control

// bench_test.go measures the control plane's overhead — the loop rides
// on the serving hot path (window observations per micro-batch) and on a
// periodic tick (snapshot + step), so both must stay trivially cheap
// next to a ~100µs classify. Run them with
// `go test -run '^$' -bench . ./internal/control`.

import "testing"

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) + 0.5)
	}
}

func BenchmarkWindowObserveBatch32(b *testing.B) {
	w := NewWindow(4, WindowConfig{})
	obs := make([]Obs, 32)
	for i := range obs {
		obs[i] = Obs{LatencyMS: float64(i), ExitIndex: i % 4, EnergyPJ: 1e6}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ObserveBatch(obs)
	}
	b.ReportMetric(float64(b.N)*32/b.Elapsed().Seconds(), "obs/s")
}

func BenchmarkWindowSnapshot(b *testing.B) {
	w := NewWindow(4, WindowConfig{})
	obs := make([]Obs, 256)
	for i := range obs {
		obs[i] = Obs{LatencyMS: float64(i % 50), ExitIndex: i % 4, EnergyPJ: 1e6}
	}
	w.ObserveBatch(obs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Snapshot()
	}
}

func BenchmarkControllerStep(b *testing.B) {
	c, err := New(SLO{P99LatencyMs: 15, MaxQueueFrac: 0.8, EnergyBudgetPJ: 2.5e9}, Ladder(3, 0))
	if err != nil {
		b.Fatal(err)
	}
	s := Sample{P99LatencyMS: 12, QueueFrac: 0.3, MeanEnergyPJ: 2e9, Images: 500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Step(s)
	}
}
