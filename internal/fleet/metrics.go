package fleet

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cdl/internal/control"
	"cdl/internal/obs"
)

// routerMetrics aggregates the router's own counters: per-model request
// outcomes (keyed by the model label the client addressed) plus fleet-
// level swap counts. Per-backend counters live on the backends themselves.
type routerMetrics struct {
	// flights owns the per-model flight rings the planes record into (the
	// /debug/flightz backing store).
	flights *obs.FlightSet

	mu     sync.Mutex
	models map[string]*modelMetrics // guarded by mu

	swaps        atomic.Int64
	swapFailures atomic.Int64
}

// maxModelSeries caps the per-model metric cardinality: model names come
// straight from URL paths, and an unbounded map would let a client mint
// series at will. Past the cap, new names fold into the overflow bucket.
const maxModelSeries = 256

const overflowModel = "_other"

// modelMetrics is one model's router-side state: the counters only a
// front door has — routed requests, failover retries, sheds, hedges — and
// the model's control plane.
type modelMetrics struct {
	requests    atomic.Int64
	retries     atomic.Int64
	sheds       atomic.Int64
	hedgesSent  atomic.Int64
	hedgeWins   atomic.Int64
	hedgeLosses atomic.Int64

	// plane is the router's view of this model: its window, its lifetime
	// horizon (whose total-latency histogram is the end-to-end router
	// latency /statsz, /metricsz and the hedge deadline read), its flight
	// ring and its availability monitor — a forwarded 200 is good, a shed
	// or a transport failure burns budget. Latency SLOs are the backends'
	// own, on their /alertz.
	plane *control.Plane
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{
		flights: obs.NewFlightSet("fleet", obs.FlightConfig{}),
		models:  make(map[string]*modelMetrics),
	}
}

func (m *routerMetrics) model(name string) *modelMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	mm := m.models[name]
	if mm == nil {
		if len(m.models) >= maxModelSeries {
			name = overflowModel
			if mm = m.models[name]; mm != nil {
				return mm
			}
		}
		mm = &modelMetrics{plane: control.NewPlane(name, m.flights.Recorder(name))}
		mm.plane.Monitor(0)
		m.models[name] = mm
	}
	return mm
}

// sorted returns the per-model state in name order (deterministic,
// golden-testable renderings).
func (m *routerMetrics) sorted() (names []string, models []*modelMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		models = append(models, m.models[name])
	}
	return names, models
}

// ready is the /readyz body and verdict: ready iff at least one backend is
// ready — the router can do useful work. A fleet with zero ready backends
// reports 503 so an outer balancer stops sending it traffic. (/healthz only
// says the router process is up, probe state notwithstanding.)
func (rt *Router) ready() (any, bool) {
	ready := 0
	for _, b := range rt.backends {
		if b.healthy.Load() {
			ready++
		}
	}
	return map[string]any{
		"status":   map[bool]string{true: "ready", false: "unready"}[ready > 0],
		"ready":    ready,
		"backends": len(rt.backends),
	}, ready > 0
}

// BackendStats is one backend's row in the router's /statsz.
type BackendStats struct {
	URL        string `json:"url"`
	Healthy    bool   `json:"healthy"`
	Swapping   bool   `json:"swapping"`
	Inflight   int64  `json:"inflight"`
	Requests   int64  `json:"requests"`
	Errors     int64  `json:"errors"`
	ProbeFails int64  `json:"probe_fails"`
}

// RouterStats is the router's /statsz document.
type RouterStats struct {
	UptimeSeconds float64               `json:"uptime_seconds"`
	Backends      []BackendStats        `json:"backends"`
	Models        map[string]ModelStats `json:"models"`
	HedgesSent    int64                 `json:"hedges_sent"`
	HedgeWins     int64                 `json:"hedge_wins"`
	HedgeLosses   int64                 `json:"hedge_losses"`
	Swaps         int64                 `json:"swaps"`
	SwapFailures  int64                 `json:"swap_failures"`
}

// ModelStats is one model's row in the router's /statsz.
type ModelStats struct {
	Requests    int64   `json:"requests"`
	Retries     int64   `json:"retries"`
	Sheds       int64   `json:"sheds"`
	HedgesSent  int64   `json:"hedges_sent"`
	HedgeWins   int64   `json:"hedge_wins"`
	HedgeLosses int64   `json:"hedge_losses"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
}

// snapshot is one read of the router's state: the /statsz document plus,
// per model in name order, what only /metricsz renders — the lifetime
// latency histogram coarsened for exposition and the model's plane. Both
// views render from it, so they cannot disagree.
type snapshot struct {
	RouterStats
	models []modelRow
}

type modelRow struct {
	name  string
	plane *control.Plane
	lat   control.Buckets
}

func (rt *Router) snapshot() snapshot {
	out := snapshot{RouterStats: RouterStats{
		UptimeSeconds: time.Since(rt.started).Seconds(),
		Models:        make(map[string]ModelStats),
	}}
	for _, b := range rt.backends {
		out.Backends = append(out.Backends, BackendStats{
			URL:        b.url,
			Healthy:    b.healthy.Load(),
			Swapping:   b.swapping.Load(),
			Inflight:   b.inflight.Load(),
			Requests:   b.requests.Load(),
			Errors:     b.errors.Load(),
			ProbeFails: b.probeFails.Load(),
		})
	}
	names, models := rt.metrics.sorted()
	out.models = make([]modelRow, len(models))
	for i, mm := range models {
		row := &out.models[i]
		row.name, row.plane = names[i], mm.plane
		lat := mm.plane.Lifetime(0, 1).Total
		ms := ModelStats{
			Requests:    mm.requests.Load(),
			Retries:     mm.retries.Load(),
			Sheds:       mm.sheds.Load(),
			HedgesSent:  mm.hedgesSent.Load(),
			HedgeWins:   mm.hedgeWins.Load(),
			HedgeLosses: mm.hedgeLosses.Load(),
			P50MS:       lat.Quantile(0.50),
			P95MS:       lat.Quantile(0.95),
			P99MS:       lat.Quantile(0.99),
		}
		row.lat = lat.Buckets()
		out.Models[names[i]] = ms
		out.HedgesSent += ms.HedgesSent
		out.HedgeWins += ms.HedgeWins
		out.HedgeLosses += ms.HedgeLosses
	}
	out.Swaps = rt.metrics.swaps.Load()
	out.SwapFailures = rt.metrics.swapFailures.Load()
	return out
}

// Stats snapshots the router's state (the /statsz payload).
func (rt *Router) Stats() RouterStats { return rt.snapshot().RouterStats }

// prom is the router's share of the /metricsz exposition, rendered from
// the snapshot /statsz returns. Iteration orders are pinned (config order
// for backends, sorted names for models) so the output is deterministic and
// golden-testable.
func (rt *Router) prom(p *obs.Prom) {
	st := rt.snapshot()
	p.Gauge("fleet_backends", "Configured backends.", nil, float64(len(st.Backends)))
	ready := 0
	for _, b := range st.Backends {
		if b.Healthy {
			ready++
		}
	}
	p.Gauge("fleet_backends_ready", "Backends currently passing readiness probes.", nil, float64(ready))
	for _, b := range st.Backends {
		l := obs.Labels{{"backend", b.URL}}
		p.Gauge("fleet_backend_healthy", "1 if the backend passed its last readiness probe.", l, obs.BoolGauge(b.Healthy))
		p.Gauge("fleet_backend_swapping", "1 while the backend drains for a rolling swap.", l, obs.BoolGauge(b.Swapping))
		p.Gauge("fleet_backend_inflight", "Router-side in-flight requests against the backend.", l, float64(b.Inflight))
		p.Counter("fleet_backend_requests_total", "Forwarded attempts answered by the backend.", l, float64(b.Requests))
		p.Counter("fleet_backend_errors_total", "Forwarded attempts that died in transport.", l, float64(b.Errors))
		p.Counter("fleet_backend_probe_fails_total", "Probe rounds that found the backend unready.", l, float64(b.ProbeFails))
	}
	for _, row := range st.models {
		ms := st.Models[row.name]
		l := obs.Labels{{"model", row.name}}
		p.Counter("fleet_requests_total", "Requests routed, by model.", l, float64(ms.Requests))
		p.Counter("fleet_retries_total", "Failover retries after a failed attempt, by model.", l, float64(ms.Retries))
		p.Counter("fleet_sheds_total", "Requests shed (no backend, or backend 503), by model.", l, float64(ms.Sheds))
		p.Counter("fleet_hedges_sent_total", "Hedge attempts launched, by model.", l, float64(ms.HedgesSent))
		p.Counter("fleet_hedge_wins_total", "Hedges whose response was used, by model.", l, float64(ms.HedgeWins))
		p.Counter("fleet_hedge_losses_total", "Hedges whose response was discarded, by model.", l, float64(ms.HedgeLosses))
		p.Histogram("fleet_latency_ms", "End-to-end router latency, by model.", l, row.lat.Bounds, row.lat.Counts, row.lat.Sum, row.lat.Count)
		row.plane.Prom(p, l)
	}
	p.Counter("fleet_swaps_total", "Rolling fleet swaps completed.", nil, float64(st.Swaps))
	p.Counter("fleet_swap_failures_total", "Rolling fleet swaps aborted mid-fleet.", nil, float64(st.SwapFailures))
}
