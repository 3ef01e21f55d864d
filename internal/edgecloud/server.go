package edgecloud

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/energy"
	"cdl/internal/obs"
	"cdl/internal/serve"
	"cdl/internal/tensor"
)

// ServerConfig sizes the edge HTTP front.
type ServerConfig struct {
	// Workers is the number of warm Edge runtimes (each with a private
	// session and transport). Default GOMAXPROCS.
	Workers int
	// ModelName is reported by /healthz.
	ModelName string
	// CloudURL is reported by /healthz (informational; the transports
	// decide where offloads actually go).
	CloudURL string
	// CloudModel is the named cloud registry entry offloads resume on
	// (informational here, like CloudURL: build the transports with
	// NewHTTPModelTransport to actually target it). One multi-model cloud
	// tier can back many edge fronts, each split against its own named
	// cascade.
	CloudModel string

	// SLO, when active, attaches the same feedback controller the cloud
	// registry runs (internal/control) to adapt the edge's offload
	// split: under sustained pressure (busy workers, latency, energy)
	// the controller caps the cascade below the split stage, resolving
	// every input locally instead of queueing on a slow cloud, and
	// restores the configured split when the pressure passes. Only
	// requests without an explicit δ inherit the adapted policy. It
	// ticks every control.TickInterval.
	SLO control.SLO
}

const (
	// maxRequestImages caps the images accepted in one request.
	maxRequestImages = 256
	// acquireTimeout is how long a request may wait for a free edge
	// worker before being shed with 503 — with a slow cloud each offload
	// can hold a worker for the transport's full timeout, and an edge
	// node must shed that backlog rather than queue unboundedly (the
	// same philosophy as serve's bounded queue).
	acquireTimeout = time.Second
)

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Server is the edge node's HTTP front. Its /v1/classify takes a
// serve.ClassifyRequest and answers a serve.ClassifyResponse, with the
// results a monolithic serve.Server gives at that δ, but answers locally
// only when the prefix cascade exits, forwarding the hard residue to the
// cloud tier.
//
// Endpoints:
//
//	POST /v1/classify  serve.ClassifyRequest; per-request δ forwarded on offload
//	GET  /healthz      liveness, model identity, split point, cloud target
//	GET  /statsz       offload fraction and tiered (edge/link/cloud) energy
type Server struct {
	cfg     ServerConfig
	edgeCfg Config
	// graph is the served routing graph; model is its trunk (the whole
	// cascade for linear deployments) — the request surface's input
	// validation is trunk-shaped.
	graph    *core.Graph
	model    *core.CDLN
	inWidth  int
	baseOps  float64
	edges    chan *Edge
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in the tracing middleware
	slow     *obs.SlowLog
	admin    []obs.AdminRoute
	closed   atomic.Bool // flips on Close; /readyz turns 503
	started  time.Time
	mu       sync.Mutex
	acc      *energy.TieredAccumulator // guarded by mu
	requests int64                     // guarded by mu
	invalid  int64                     // guarded by mu
	rejected int64                     // guarded by mu
	cloudErr int64                     // guarded by mu
	images   int64                     // guarded by mu
	local    int64                     // guarded by mu
	offload  int64                     // guarded by mu
	// lat is the cumulative whole-request latency histogram (local exits
	// and cloud round trips alike), guarded by mu.
	lat *control.Histogram

	// name labels the flight ring, /alertz and the plane's metric families:
	// cfg.ModelName, or "edge" when unset. plane is the edge's control
	// plane: telemetry window, flight ring and — with an SLO — the burn-rate
	// monitor and the offload-split controller whose policy no-δ requests
	// inherit.
	name  string
	plane *control.Plane
}

// NewServer builds cfg.Workers Edge runtimes, each with its own transport
// from newTransport (transports with per-connection state must not be
// shared across workers; an HTTPTransport may simply be returned
// repeatedly).
func NewServer(model *core.CDLN, newTransport func() (Transport, error), edgeCfg Config, cfg ServerConfig) (*Server, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return NewGraphServer(core.LinearGraph(model), newTransport, edgeCfg, cfg)
}

// NewGraphServer is NewServer for a routing graph: the split cuts the
// trunk, routed inputs offload at their branch handoff, and the tiered
// accounting charges branch paths as cloud compute.
func NewGraphServer(g *core.Graph, newTransport func() (Transport, error), edgeCfg Config, cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	edgeCfg = edgeCfg.withDefaults()
	costs, err := energy.NewEvaluator().GraphTierCosts(g, edgeCfg.SplitStage, edgeCfg.Link)
	if err != nil {
		return nil, err
	}
	model := g.Trunk()
	s := &Server{
		cfg:     cfg,
		edgeCfg: edgeCfg,
		graph:   g,
		model:   model,
		baseOps: model.BaselineOps(),
		edges:   make(chan *Edge, cfg.Workers),
		started: time.Now(),
		acc:     costs.NewAccumulator(),
		lat:     control.NewHistogram(),
	}
	s.inWidth = 1
	for _, d := range model.Arch.Net.InShape {
		s.inWidth *= d
	}
	for i := 0; i < cfg.Workers; i++ {
		t, err := newTransport()
		if err != nil {
			return nil, err
		}
		e, err := NewGraph(g, t, edgeCfg)
		if err != nil {
			return nil, err
		}
		s.edges <- e
	}
	if s.name = cfg.ModelName; s.name == "" {
		s.name = "edge"
	}
	delta := edgeCfg.Delta
	if delta < 0 {
		delta = model.Delta
	}
	flights := obs.NewFlightSet("edge", obs.FlightConfig{})
	s.plane = control.NewPlane(s.name, flights.Recorder(s.name), g.NumExits(), delta)
	if cfg.SLO.Active() {
		// The edge's queue-occupancy analogue is worker exhaustion: a slow
		// cloud holds every Edge for its transport timeout, so busy-worker
		// fraction is the earliest pressure signal.
		ladder := edgeLadder(g.MaxDepth(), edgeCfg.SplitStage, cfg.SLO.AccuracyFloorDelta)
		err := s.plane.Attach(cfg.SLO, ladder, control.TickInterval, func() float64 {
			return float64(cfg.Workers-len(s.edges)) / float64(cfg.Workers)
		})
		if err != nil {
			return nil, fmt.Errorf("edgecloud: SLO on split %d: %w", edgeCfg.SplitStage, err)
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/classify", s.handleClassify)
	s.admin = obs.OpsMux(s.mux, "edge", obs.OpsSources{
		Started: s.started,
		Health:  s.health,
		Ready: func() (any, bool) {
			ready := !s.closed.Load()
			return map[string]bool{"ready": ready}, ready
		},
		Stats:   func() any { return s.Stats() },
		Metrics: s.prom,
		Alerts:  func() any { return control.Report("edge", s.plane) },
		Flights: flights,
	})
	s.slow = obs.NewSlowLog()
	s.handler = obs.Middleware(s.mux, s.slow)
	return s, nil
}

// edgeLadder restricts the control ladder to rungs an edge can actuate
// alone: the identity policy plus depth caps strictly below the split
// stage (a cap in the cloud's half cannot ride the δ-only offload wire).
// Rung 1 therefore already resolves every input locally — the edge's
// actuation is exactly its offload split.
func edgeLadder(maxDepth, splitStage int, floor float64) []core.ExitPolicy {
	full := control.Ladder(maxDepth, floor)
	out := full[:1:1]
	for _, p := range full[1:] {
		if p.MaxExit < splitStage {
			out = append(out, p)
		}
	}
	return out
}

// Handler returns the HTTP handler: the route mux wrapped in the tracing
// middleware (X-Trace-Id on every response, slow-request logging), exactly
// as on the cloud tier.
func (s *Server) Handler() http.Handler { return s.handler }

// Close stops the SLO control loop and flips /readyz to 503 (idempotent;
// the HTTP layer is the caller's to stop, as with serve.Server).
func (s *Server) Close() {
	s.closed.Store(true)
	s.plane.Detach()
}

// AdminRoutes returns the ops routes the admin listener mirrors
// (obs.ListenAdmin): /alertz and /debug/flightz.
func (s *Server) AdminRoutes() []obs.AdminRoute { return s.admin }

// Reject causes of the edge's own refusals (a malformed request is
// control.CauseInvalid).
const (
	causeWorkersBusy = "workers_busy"
	causeCloudError  = "cloud_error"
)

// refuse charges one request that produced no result to its cause's
// counter and reports it to the plane (always tail-retained).
func (s *Server) refuse(tr *obs.Trace, outcome, cause string, images int) {
	s.mu.Lock()
	switch cause {
	case causeWorkersBusy:
		s.rejected++
	case causeCloudError:
		s.cloudErr++
	default:
		s.invalid++
	}
	s.mu.Unlock()
	s.plane.Observe([]control.Event{{Trace: tr, ExitIndex: -1, BatchSize: images, Outcome: outcome, Cause: cause}})
}

// Stats is the edge /statsz payload.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Invalid       int64   `json:"invalid"`
	// Rejected counts requests shed with 503 because no edge worker
	// freed up within acquireTimeout.
	Rejected int64 `json:"rejected"`
	// CloudErrors counts offloads that failed at the cloud tier (mapped
	// to 502 for the whole request).
	CloudErrors int64 `json:"cloud_errors"`
	Images      int64 `json:"images"`
	LocalExits  int64 `json:"local_exits"`
	Offloads    int64 `json:"offloads"`

	SplitStage int    `json:"split_stage"`
	Encoding   string `json:"encoding"`

	// Latency is the whole-request per-image latency (local exits and
	// cloud round trips alike) over the server's lifetime.
	Latency serve.LatencyStats `json:"latency"`

	// Tier is the tiered energy view: offload fraction, per-tier pJ,
	// wire bytes.
	Tier energy.TieredSummary `json:"tier"`

	// Control is the offload-split controller's state (absent without an
	// SLO).
	Control *control.Status `json:"control,omitempty"`
}

// snapshot reads the live counters once: the /statsz document and the
// latency buckets only /metricsz renders, so the two views cannot disagree.
func (s *Server) snapshot() (Stats, control.Buckets) {
	ctrl := s.plane.Status() // the plane's own lock — fetch outside s.mu
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Requests:      s.requests,
		Invalid:       s.invalid,
		Rejected:      s.rejected,
		CloudErrors:   s.cloudErr,
		Images:        s.images,
		LocalExits:    s.local,
		Offloads:      s.offload,
		SplitStage:    s.edgeCfg.SplitStage,
		Encoding:      s.edgeCfg.Encoding.String(),
		Latency:       serve.SummarizeLatency(s.lat),
		Tier:          s.acc.Summary(),
		Control:       ctrl,
	}, s.lat.Buckets()
}

// Stats snapshots the live counters.
func (s *Server) Stats() Stats {
	st, _ := s.snapshot()
	return st
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	// The cloud tier's own ingress: same method check, body bound, strict
	// decode, image and δ validation, same status codes and error text.
	images, delta, ok := serve.DecodeClassify(w, r, s.inWidth, maxRequestImages, s.model.Arch.Net.InShape)
	tr := obs.FromContext(r.Context())
	if !ok {
		s.refuse(tr, obs.FlightError, control.CauseInvalid, 0)
		return
	}
	// The walk is the images' last reader: it returns with each offload
	// copied out of them and encoded, so they go back on every answer.
	defer serve.ReleaseImages(s.inWidth, images...)
	// Requests without an explicit δ inherit the offload-split
	// controller's current policy (identity = the configured split);
	// an explicit δ always bypasses the controller, as on the cloud
	// tier.
	pol, source := core.ExitPolicy{Delta: s.edgeCfg.Delta, MaxExit: -1}, control.SourceDefault
	if delta != nil {
		pol.Delta, source = *delta, control.SourceExplicit
	} else if p := s.plane.Policy(); p != nil {
		pol.MaxExit, source = p.MaxExit, control.SourceController
	}
	s.plane.Arrivals(len(images))
	start := time.Now()

	// Acquire a worker with a bounded wait: a slow cloud can hold every
	// edge for its transport timeout, and the backlog must be shed, not
	// queued unboundedly.
	var edge *Edge
	select {
	case edge = <-s.edges:
	default:
		timer := time.NewTimer(acquireTimeout)
		defer timer.Stop()
		select {
		case edge = <-s.edges:
		case <-timer.C:
			s.refuse(tr, obs.FlightShed, causeWorkersBusy, len(images))
			serve.WriteShed(w, "all edge workers busy")
			return
		}
	}
	defer func() { s.edges <- edge }()
	if tr != nil {
		edge.AttachTrace(tr)
		// Detach runs before the worker returns to the pool (LIFO defers).
		defer edge.AttachTrace(nil)
	}

	xs := make([]*tensor.T, len(images))
	for i, img := range images {
		xs[i] = tensor.FromSlice(img, s.model.Arch.Net.InShape...)
	}
	// One batched cloud round trip for all of this request's offloads.
	results, err := edge.ClassifyBatchPolicy(xs, pol)
	if err != nil {
		s.refuse(tr, obs.FlightError, causeCloudError, len(images))
		serve.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	elapsedMS := float64(time.Since(start)) / float64(time.Millisecond)

	s.mu.Lock()
	s.requests++
	for _, res := range results {
		s.images++
		if res.Offloaded {
			s.offload++
		} else {
			s.local++
		}
		s.lat.Observe(elapsedMS)
		// Records validated by Edge.ClassifyDelta against the same model.
		_ = s.acc.Add(res.Record, res.WireBytes)
	}
	s.mu.Unlock()
	// One event per image; the node path records which tier resolved it.
	events := make([]control.Event, len(results))
	for i, res := range results {
		events[i] = control.Event{
			Trace: tr, TotalMS: elapsedMS, ExitIndex: res.Record.StageIndex, NodePath: "edge",
			EnergyPJ: res.TotalPJ(), BatchSize: len(results), PolicySource: source, Outcome: obs.FlightOK,
		}
		if res.Offloaded {
			events[i].NodePath = "edge->cloud"
		}
	}
	s.plane.Observe(events)

	resp := serve.ClassifyResponse{Results: make([]serve.ClassifyResult, len(results)), Count: len(results)}
	for i, res := range results {
		rec := res.Record
		out := serve.ClassifyResult{
			Label:      rec.Label,
			Exit:       rec.StageName,
			ExitIndex:  rec.StageIndex,
			Confidence: rec.Confidence,
			Ops:        rec.Ops,
			// Whole-system energy: edge compute + link + cloud compute —
			// a monolithic server reports the same exit's pipeline energy,
			// an edge front adds the transmission surcharge.
			EnergyPJ: res.TotalPJ(),
		}
		if s.baseOps > 0 {
			out.NormalizedOps = rec.Ops / s.baseOps
		}
		resp.Results[i] = out
	}
	if tr != nil && tr.Propagated() {
		// The client opted in by sending X-Trace-Id: return the stitched
		// cross-tier timeline (edge prefix, offload hop, cloud spans).
		resp.TraceID = tr.ID()
		resp.Spans = tr.Spans()
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// healthResponse is the edge /healthz payload.
type healthResponse struct {
	Status        string  `json:"status"`
	Role          string  `json:"role"`
	Model         string  `json:"model,omitempty"`
	Arch          string  `json:"arch"`
	Stages        int     `json:"stages"`
	SplitStage    int     `json:"split_stage"`
	Delta         float64 `json:"delta"`
	Encoding      string  `json:"encoding"`
	Cloud         string  `json:"cloud,omitempty"`
	CloudModel    string  `json:"cloud_model,omitempty"`
	Workers       int     `json:"workers"`
	SLO           string  `json:"slo,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// health is the /healthz body: liveness, model identity, split point and
// cloud target. /readyz is separate: an edge front builds its whole worker
// pool before serving, so it is ready from construction until Close.
func (s *Server) health() any {
	delta := s.edgeCfg.Delta
	if delta < 0 {
		delta = s.model.Delta
	}
	return healthResponse{
		Status:        "ok",
		Role:          "edge",
		Model:         s.cfg.ModelName,
		Arch:          s.model.Arch.Name,
		Stages:        len(s.model.Stages),
		SplitStage:    s.edgeCfg.SplitStage,
		Delta:         delta,
		Encoding:      s.edgeCfg.Encoding.String(),
		Cloud:         s.cfg.CloudURL,
		CloudModel:    s.cfg.CloudModel,
		Workers:       s.cfg.Workers,
		SLO:           s.cfg.SLO.String(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
}

// prom is the edge tier's share of the /metricsz exposition: request and
// offload counters, the tiered (edge/link/cloud) energy split and the
// whole-request latency histogram, rendered from the snapshot /statsz
// returns, then the plane's alert/flight/control families. Label values
// come only from fixed vocabulary (tier names, the model name), never
// request content.
func (s *Server) prom(p *obs.Prom) {
	busy := float64(s.cfg.Workers - len(s.edges))
	st, lat := s.snapshot()
	p.Gauge("cdl_edge_workers", "Warm edge runtimes.", nil, float64(s.cfg.Workers))
	p.Gauge("cdl_edge_busy_workers", "Edge runtimes currently holding a request (the edge's queue-pressure signal).", nil, busy)
	p.Counter("cdl_edge_requests_total", "Classify requests admitted.", nil, float64(st.Requests))
	p.Counter("cdl_edge_invalid_requests_total", "Requests rejected with 4xx.", nil, float64(st.Invalid))
	p.Counter("cdl_edge_rejected_total", "Requests shed with 503 + Retry-After (no worker freed within the acquire timeout).", nil, float64(st.Rejected))
	p.Counter("cdl_edge_cloud_errors_total", "Offloads that failed at the cloud tier (502 for the whole request).", nil, float64(st.CloudErrors))
	p.Counter("cdl_edge_images_total", "Images classified.", nil, float64(st.Images))
	p.Counter("cdl_edge_local_exits_total", "Images resolved by the local prefix cascade.", nil, float64(st.LocalExits))
	p.Counter("cdl_edge_offloads_total", "Images shipped across the link as intermediate activations.", nil, float64(st.Offloads))
	p.Gauge("cdl_edge_split_stage", "Cascade stages the edge owns.", nil, float64(st.SplitStage))
	p.Gauge("cdl_edge_offload_fraction", "Fraction of images that crossed the link.", nil, st.Tier.OffloadFraction)
	p.Counter("cdl_edge_wire_bytes_total", "Total encoded payload bytes shipped.", nil, float64(st.Tier.WireBytes))
	p.Counter("cdl_tier_energy_pj_total", "Cumulative 45 nm energy by tier (edge compute, link transfer, cloud compute).", obs.Labels{{"tier", "edge"}}, st.Tier.EdgePJ)
	p.Counter("cdl_tier_energy_pj_total", "", obs.Labels{{"tier", "link"}}, st.Tier.LinkPJ)
	p.Counter("cdl_tier_energy_pj_total", "", obs.Labels{{"tier", "cloud"}}, st.Tier.CloudPJ)
	p.Gauge("cdl_energy_pj_per_image", "Mean whole-system energy per image (pJ), link surcharge included.", nil, st.Tier.MeanTotalPJ)
	p.Histogram("cdl_edge_latency_ms", "Whole-request per-image latency (local exits and cloud round trips alike), milliseconds.", nil, lat.Bounds, lat.Counts, lat.Sum, lat.Count)
	s.plane.Prom(p, obs.Labels{{"model", s.name}})
}

// ListenAndServe runs the edge front on addr until stop is closed, then
// shuts down gracefully, with the same slow-client hardening as the cloud
// server (serve.ListenHardened). The SLO control loop (when configured)
// stops with the HTTP layer.
func (s *Server) ListenAndServe(addr string, stop <-chan struct{}) error {
	return serve.ListenHardened(addr, s.handler, stop, s.Close)
}
