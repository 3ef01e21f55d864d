// Package obs is a stub of the real internal/obs surface: just enough for
// the analyzer fixtures to typecheck — the Middleware wrapper, OpsMux, the Prom
// metric sinks and the profiling gate.
package obs

import "net/http"

// SlowLog mirrors the real slow-request logger.
type SlowLog struct{}

// Middleware mirrors the real tracing middleware.
func Middleware(next http.Handler, slow *SlowLog) http.Handler { return next }

// ProfilingEnabled mirrors the real profiling gate.
func ProfilingEnabled() bool { return false }

// Labels mirrors the real metric label set.
type Labels map[string]string

// Prom mirrors the real exposition sink; its methods seed the obshygiene
// metric-name analysis.
type Prom struct{}

// Counter records a counter sample.
func (p *Prom) Counter(name, help string, labels Labels, v float64) {}

// Gauge records a gauge sample.
func (p *Prom) Gauge(name, help string, labels Labels, v float64) {}

// Histogram records a histogram snapshot.
func (p *Prom) Histogram(name, help string, labels Labels, bounds []float64, counts []int64, sum float64, count int64) {
}

// OpsMux mirrors the real ops surface. The obs package itself is exempt
// from the obshygiene rules (it IS the shared surface), so these
// registrations produce no finding.
func OpsMux(mux *http.ServeMux, tier string) {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("GET /alertz", func(w http.ResponseWriter, r *http.Request) {})
	mux.Handle("GET /debug/flightz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
}
