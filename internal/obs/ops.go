package obs

// ops.go is the one ops surface. Every serving tier answers the same six
// operator questions — alive? ready? what happened? (as JSON and as
// Prometheus text) paging? and what did the tail look like? — so the six
// routes are registered once, here, and a tier contributes only the
// bodies.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// OpsSources is what a tier plugs into OpsMux.
type OpsSources struct {
	// Started anchors cdl_uptime_seconds.
	Started time.Time
	// Health is the /healthz body; liveness always answers 200.
	Health func() any
	// Ready is the /readyz body and verdict: 200 when ok, else 503.
	Ready func() (body any, ok bool)
	// Stats is the /statsz document.
	Stats func() any
	// Metrics appends the tier's families to the /metricsz exposition after
	// the shared preamble. It should render from the same snapshot Stats
	// returns, so the two views cannot disagree.
	Metrics func(p *Prom)
	// Alerts is the /alertz document.
	Alerts func() any
	// Flights backs /debug/flightz.
	Flights *FlightSet
}

// jsonBufs holds WriteJSON's encode buffers.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// WriteJSON writes v as a JSON response with the given status — the one
// response writer behind every endpoint on every tier. v is encoded before
// the status goes out: a value JSON cannot carry (a NaN confidence, from
// weights that overflow to Inf − Inf) answers 500 {"error": "encode: …"},
// never the status with an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(struct {
			Error string `json:"error"`
		}{"encode: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// OpsMux registers /healthz, /readyz, /statsz, /metricsz, /alertz and
// /debug/flightz on a tier's data mux (which the tier wraps in Middleware
// like every other route) and returns the routes its admin listener
// mirrors, so the burn-rate state and the tail evidence stay reachable
// when the data port is the thing on fire.
func OpsMux(mux *http.ServeMux, tier string, src OpsSources) []AdminRoute {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, src.Health())
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		body, ok := src.Ready()
		status := http.StatusOK
		if !ok {
			status = http.StatusServiceUnavailable
		}
		WriteJSON(w, status, body)
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, src.Stats())
	})
	mux.HandleFunc("GET /metricsz", func(w http.ResponseWriter, _ *http.Request) {
		p := NewProm()
		p.Gauge("cdl_build_info", "Build identity (constant 1; the identity lives in the labels).", BuildInfoLabels(tier), 1)
		p.Gauge("cdl_uptime_seconds", "Seconds since this tier started.", nil, time.Since(src.Started).Seconds())
		p.Gauge("cdl_tracing_enabled", "Whether request tracing is on (1) or off (0).", nil, BoolGauge(Enabled()))
		p.Gauge("cdl_flight_enabled", "Whether the flight recorder is on (1) or off (0).", nil, BoolGauge(FlightEnabled()))
		if ProfilingEnabled() {
			for _, st := range ProfSnapshot() {
				lbl := Labels{{"phase", st.Name}}
				p.Counter("cdl_phase_time_ms_total", "Cumulative time in each profiled phase (im2col, GEMM, epilogue, classifier, body decode) while profiling is enabled.", lbl, st.TotalMS)
				p.Counter("cdl_phase_calls_total", "Invocations of each profiled phase.", lbl, float64(st.Calls))
			}
		}
		src.Metrics(p)
		w.Header().Set("Content-Type", ContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = p.WriteTo(w)
	})
	routes := []AdminRoute{
		{Pattern: "GET /alertz", Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			WriteJSON(w, http.StatusOK, src.Alerts())
		})},
		{Pattern: "GET /debug/flightz", Handler: src.Flights.Handler()},
	}
	for _, r := range routes {
		mux.Handle(r.Pattern, r.Handler)
	}
	return routes
}
