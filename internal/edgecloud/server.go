package edgecloud

import (
	"fmt"
	"math"
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
	// MaxRequestImages caps the images accepted in one request. Default
	// 256.
	MaxRequestImages int
	// ModelName is reported by /healthz.
	ModelName string
	// CloudURL is reported by /healthz (informational; the transports
	// decide where offloads actually go).
	CloudURL string
	// CloudModel is the named cloud registry entry offloads resume on
	// (informational here, like CloudURL: build the transports with
	// NewHTTPModelTransport to actually target it). Empty means the
	// cloud's default model — one multi-model cloud tier can back many
	// edge fronts, each split against its own named cascade.
	CloudModel string
	// AcquireTimeout is how long a request may wait for a free edge
	// worker before being shed with 503 — with a slow cloud each offload
	// can hold a worker for the transport's full timeout, and an edge
	// node must shed that backlog rather than queue unboundedly (the
	// same philosophy as serve's bounded queue). Default 1s.
	AcquireTimeout time.Duration

	// SLO, when active, attaches the same feedback controller the cloud
	// registry runs (internal/control) to adapt the edge's offload
	// split: under sustained pressure (busy workers, latency, energy)
	// the controller caps the cascade below the split stage, resolving
	// every input locally instead of queueing on a slow cloud, and
	// restores the configured split when the pressure passes. Only
	// requests without an explicit δ inherit the adapted policy.
	SLO control.SLO
	// ControlInterval is the controller tick period. Default 200ms.
	ControlInterval time.Duration
	// ControlWindow is the sliding telemetry span. Default 5s.
	ControlWindow time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxRequestImages <= 0 {
		c.MaxRequestImages = 256
	}
	if c.AcquireTimeout == 0 {
		c.AcquireTimeout = time.Second
	}
	if c.ControlInterval <= 0 {
		c.ControlInterval = 200 * time.Millisecond
	}
	if c.ControlWindow <= 0 {
		c.ControlWindow = 5 * time.Second
	}
	return c
}

// Server is the edge node's HTTP front. It speaks the same /v1/classify
// JSON schema as the monolithic serve.Server — a client cannot tell an
// edge front from a full backend — but answers locally only when the
// prefix cascade exits, forwarding the hard residue to the cloud tier.
//
// Endpoints:
//
//	POST /v1/classify  same schema as serve; per-request δ forwarded on offload
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

	// The SLO control plane (nil/zero when no SLO is configured): the
	// telemetry window, the controller behind ctrlMu, and the policy
	// no-δ requests currently inherit.
	window     *control.Window
	ctrlMu     sync.Mutex
	ctrl       *control.Controller // guarded by ctrlMu
	lastSample control.Sample      // guarded by ctrlMu
	lastSnap   control.Snapshot    // guarded by ctrlMu
	controlled atomic.Pointer[core.ExitPolicy]
	stopCtrl   chan struct{}
	ctrlDone   chan struct{}
	closeOnce  sync.Once

	// Flight recorder and burn-rate monitor (the edge observability
	// plane): flights backs /debug/flightz, flight is the single model's
	// ring, alert is nil without an SLO (no latency target to classify
	// against). flightName labels both surfaces.
	flights    *obs.FlightSet
	flight     *obs.FlightRecorder
	flightName string
	alert      *control.AlertMonitor
	ctrlRung   atomic.Int32
	// liveP99Bits/liveP99AtNS cache the window's p99 for the flight
	// recorder's anomaly gate (refreshed at most every 250ms).
	liveP99Bits atomic.Uint64
	liveP99AtNS atomic.Int64
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
	s.flightName = cfg.ModelName
	if s.flightName == "" {
		s.flightName = "edge"
	}
	s.flights = obs.NewFlightSet("edge", obs.FlightConfig{})
	s.flight = s.flights.Recorder(s.flightName)
	if cfg.SLO.Active() {
		ladder := edgeLadder(g.MaxDepth(), edgeCfg.SplitStage, cfg.SLO.AccuracyFloorDelta)
		ctrl, err := control.New(cfg.SLO, ladder, control.Config{Interval: cfg.ControlInterval})
		if err != nil {
			return nil, fmt.Errorf("edgecloud: SLO on split %d: %w", edgeCfg.SplitStage, err)
		}
		buckets := 10
		s.window = control.NewWindow(g.NumExits(), control.WindowConfig{
			Buckets: buckets, BucketDur: cfg.ControlWindow / time.Duration(buckets),
		})
		s.ctrl = ctrl
		s.alert = control.NewAlertMonitor(control.AlertConfig{})
		s.stopCtrl = make(chan struct{})
		s.ctrlDone = make(chan struct{})
		go s.controlLoop()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/classify", s.handleClassify)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.mux.HandleFunc("GET /alertz", s.handleAlertz)
	s.mux.Handle("GET /debug/flightz", s.flights.Handler())
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
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		if s.stopCtrl != nil {
			close(s.stopCtrl)
			<-s.ctrlDone
		}
	})
}

// controlLoop ticks the offload-split controller until Close.
func (s *Server) controlLoop() {
	defer close(s.ctrlDone)
	t := time.NewTicker(s.cfg.ControlInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCtrl:
			return
		case <-t.C:
			s.controlTick()
		}
	}
}

// controlTick runs one telemetry → decision → actuation pass. The edge's
// queue-occupancy analogue is worker exhaustion: a slow cloud holds every
// Edge for its transport timeout, so busy-worker fraction is the earliest
// pressure signal.
func (s *Server) controlTick() {
	snap := s.window.Snapshot()
	sample := control.Sample{
		P99LatencyMS: snap.P99LatencyMS,
		QueueFrac:    float64(s.cfg.Workers-len(s.edges)) / float64(s.cfg.Workers),
		MeanEnergyPJ: snap.MeanEnergyPJ,
		Images:       snap.Images,
		Arrivals:     snap.Arrivals,
	}
	s.ctrlMu.Lock()
	dec := s.ctrl.Step(sample)
	s.lastSample, s.lastSnap = sample, snap
	s.ctrlMu.Unlock()
	s.ctrlRung.Store(int32(dec.Rung))
	if dec.Action == control.ActionShallow {
		// The controller just tightened the offload split — freeze the
		// flight evidence that drove the degradation.
		s.flight.Snapshot("rung_down", s.flightName, dec.Rung, snap.P99LatencyMS, time.Now().UnixNano())
	}
	cur := s.controlled.Load()
	if cur == nil || !cur.Equal(dec.Policy) {
		p := dec.Policy
		s.controlled.Store(&p)
	}
}

// FlightzHandler returns the /debug/flightz query handler for the admin
// listener (obs.AdminRoute).
func (s *Server) FlightzHandler() http.Handler { return s.flights.Handler() }

// AlertzHandler returns the /alertz burn-rate view for the admin
// listener.
func (s *Server) AlertzHandler() http.Handler { return http.HandlerFunc(s.handleAlertz) }

// AlertReport assembles the edge tier's /alertz document (empty Models
// when no SLO — an unmonitored edge never pages).
func (s *Server) AlertReport() control.AlertzReport {
	rep := control.AlertzReport{Tier: "edge", Models: make(map[string]control.AlertStatus)}
	if s.alert != nil {
		st := s.alert.Status()
		rep.Models[s.flightName] = st
		rep.Active = st.Active
	}
	return rep
}

func (s *Server) handleAlertz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, s.AlertReport())
}

// liveP99 returns the cached window p99 (0 without an SLO window),
// re-snapshotting at most every 250ms.
func (s *Server) liveP99(nowNS int64) float64 {
	if s.window == nil {
		return 0
	}
	const refreshNS = int64(250 * time.Millisecond)
	if at := s.liveP99AtNS.Load(); nowNS-at > refreshNS && s.liveP99AtNS.CompareAndSwap(at, nowNS) {
		s.liveP99Bits.Store(math.Float64bits(s.window.Snapshot().P99LatencyMS))
	}
	return math.Float64frombits(s.liveP99Bits.Load())
}

// flightShed records one rejected or failed request (always
// tail-retained) and charges its images against the burn-rate monitor.
func (s *Server) flightShed(tr *obs.Trace, outcome, cause string, images int) {
	s.alert.Observe(0, int64(images))
	if !obs.FlightEnabled() {
		return
	}
	rec := obs.FlightRecord{
		Model:       s.flightName,
		Rung:        int(s.ctrlRung.Load()),
		ExitIndex:   -1,
		BatchSize:   images,
		Outcome:     outcome,
		RejectCause: cause,
		Anomalies:   []string{obs.AnomalyShed},
		StartUnixNS: time.Now().UnixNano(),
	}
	if outcome == obs.FlightError {
		rec.Anomalies = []string{obs.AnomalyError}
	}
	if tr != nil {
		rec.TraceID = tr.ID()
		rec.Spans = tr.Spans()
	}
	s.flight.Record(rec)
}

// observeFlight offers one finished request's images to the flight
// recorder and classifies them against the burn-rate monitor. The node
// path records which tier resolved each image — "edge" for local exits,
// "edge->cloud" for offloads.
func (s *Server) observeFlight(tr *obs.Trace, explicit bool, results []Result, elapsedMS float64) {
	if s.alert != nil {
		var good, bad int64
		for range results {
			if elapsedMS > s.cfg.SLO.P99LatencyMs {
				bad++
			} else {
				good++
			}
		}
		s.alert.Observe(good, bad)
	}
	if !obs.FlightEnabled() {
		return
	}
	now := time.Now()
	nowNS := now.UnixNano()
	p99 := s.liveP99(nowNS)
	deepest := s.graph.NumExits() - 1
	rung := int(s.ctrlRung.Load())
	source := "default"
	switch {
	case explicit:
		source = "explicit"
	case s.controlled.Load() != nil:
		source = "controller"
	}
	startNS := nowNS - int64(elapsedMS*float64(time.Millisecond))
	for _, res := range results {
		rec := obs.FlightRecord{
			Model:        s.flightName,
			Rung:         rung,
			PolicySource: source,
			ExitIndex:    res.Record.StageIndex,
			NodePath:     "edge",
			TotalMS:      elapsedMS,
			BatchSize:    len(results),
			EnergyPJ:     res.TotalPJ(),
			Outcome:      obs.FlightOK,
			StartUnixNS:  startNS,
		}
		if res.Offloaded {
			rec.NodePath = "edge->cloud"
		}
		if (p99 > 0 && elapsedMS > p99) || (s.alert != nil && elapsedMS > s.cfg.SLO.P99LatencyMs) {
			rec.Anomalies = append(rec.Anomalies, obs.AnomalyP99)
		}
		if res.Record.StageIndex == deepest {
			rec.Anomalies = append(rec.Anomalies, obs.AnomalyDeepExit)
		}
		if tr != nil {
			rec.TraceID = tr.ID()
			if len(rec.Anomalies) > 0 {
				rec.Spans = tr.Spans()
			}
		}
		s.flight.Record(rec)
	}
}

// controlStatus snapshots the controller (nil when no SLO is attached),
// in the same wire shape as the cloud registry's.
func (s *Server) controlStatus() *serve.ControlStatus {
	s.ctrlMu.Lock()
	defer s.ctrlMu.Unlock()
	if s.ctrl == nil {
		return nil
	}
	st := s.ctrl.State()
	delta := st.Policy.Delta
	if delta < 0 {
		if delta = s.edgeCfg.Delta; delta < 0 {
			delta = s.model.Delta
		}
	}
	return &serve.ControlStatus{
		Model:       s.cfg.ModelName,
		SLO:         st.SLO,
		Rung:        st.Rung,
		MaxRung:     st.MaxRung,
		Delta:       delta,
		MaxExit:     st.Policy.MaxExit,
		LastAction:  string(st.LastAction),
		Ticks:       st.Ticks,
		Violations:  st.Violations,
		RecoverHold: st.RecoverHold,
		QueueFrac:   s.lastSample.QueueFrac,
		Window:      s.lastSnap,
	}
}

// Stats is the edge /statsz payload.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Invalid       int64   `json:"invalid"`
	// Rejected counts requests shed with 503 because no edge worker
	// freed up within AcquireTimeout.
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
	Control *serve.ControlStatus `json:"control,omitempty"`
}

// Stats snapshots the live counters.
func (s *Server) Stats() Stats {
	ctrl := s.controlStatus()
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
	}
}

func (s *Server) observeInvalid() {
	s.mu.Lock()
	s.invalid++
	s.mu.Unlock()
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	// The cloud tier's own ingress: same method check, body bound, strict
	// decode, image and δ validation, same status codes and error text.
	images, delta, ok := serve.DecodeClassify(w, r, s.inWidth, s.cfg.MaxRequestImages, s.model.Arch.Net.InShape)
	if !ok {
		s.observeInvalid()
		return
	}
	// Requests without an explicit δ inherit the offload-split
	// controller's current policy (identity = the configured split);
	// an explicit δ always bypasses the controller, as on the cloud
	// tier.
	pol := core.ExitPolicy{Delta: s.edgeCfg.Delta, MaxExit: -1}
	if delta != nil {
		pol.Delta = *delta
	} else if p := s.controlled.Load(); p != nil {
		pol.MaxExit = p.MaxExit
	}
	if s.window != nil {
		s.window.Arrivals(len(images))
	}
	start := time.Now()

	// Acquire a worker with a bounded wait: a slow cloud can hold every
	// edge for its transport timeout, and the backlog must be shed, not
	// queued unboundedly.
	var edge *Edge
	select {
	case edge = <-s.edges:
	default:
		timer := time.NewTimer(s.cfg.AcquireTimeout)
		defer timer.Stop()
		select {
		case edge = <-s.edges:
		case <-timer.C:
			s.mu.Lock()
			s.rejected++
			s.mu.Unlock()
			if s.window != nil {
				s.window.Sheds(len(images))
			}
			s.flightShed(obs.FromContext(r.Context()), obs.FlightShed, "workers_busy", len(images))
			serve.WriteShed(w, "all edge workers busy")
			return
		}
	}
	defer func() { s.edges <- edge }()
	tr := obs.FromContext(r.Context())
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
		s.mu.Lock()
		s.cloudErr++
		s.mu.Unlock()
		s.flightShed(tr, obs.FlightError, "cloud_error", len(images))
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
	if s.window != nil {
		samples := make([]control.Obs, len(results))
		for i, res := range results {
			samples[i] = control.Obs{LatencyMS: elapsedMS, ExitIndex: res.Record.StageIndex, EnergyPJ: res.TotalPJ()}
		}
		s.window.ObserveBatch(samples)
	}
	s.observeFlight(tr, delta != nil, results, elapsedMS)

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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	delta := s.edgeCfg.Delta
	if delta < 0 {
		delta = s.model.Delta
	}
	serve.WriteJSON(w, http.StatusOK, healthResponse{
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
	})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, s.Stats())
}

// handleReadyz is the readiness probe: an edge front builds its whole
// worker pool before serving, so it is ready from construction until
// Close. /healthz stays pure liveness.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]bool{"ready": true})
}

// handleMetricsz is the edge tier's Prometheus-text exposition: request
// and offload counters, the tiered (edge/link/cloud) energy split, the
// whole-request latency histogram and the offload-split controller state.
// Label values come only from fixed vocabulary (tier names), never request
// content.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	ctrl := s.controlStatus() // ctrlMu domain — fetch outside s.mu
	busy := float64(s.cfg.Workers - len(s.edges))
	p := obs.NewProm()
	p.Gauge("cdl_build_info", "Build identity (constant 1; the identity lives in the labels).", obs.BuildInfoLabels("edge"), 1)
	p.Gauge("cdl_uptime_seconds", "Seconds since the edge front started.", nil, time.Since(s.started).Seconds())
	p.Gauge("cdl_tracing_enabled", "Whether request tracing is on (1) or off (0).", nil, func() float64 {
		if obs.Enabled() {
			return 1
		}
		return 0
	}())
	p.Gauge("cdl_flight_enabled", "Whether the flight recorder is on (1) or off (0).", nil, func() float64 {
		if obs.FlightEnabled() {
			return 1
		}
		return 0
	}())
	p.Gauge("cdl_edge_workers", "Warm edge runtimes.", nil, float64(s.cfg.Workers))
	p.Gauge("cdl_edge_busy_workers", "Edge runtimes currently holding a request (the edge's queue-pressure signal).", nil, busy)

	s.mu.Lock()
	tier := s.acc.Summary()
	p.Counter("cdl_edge_requests_total", "Classify requests admitted.", nil, float64(s.requests))
	p.Counter("cdl_edge_invalid_requests_total", "Requests rejected with 4xx.", nil, float64(s.invalid))
	p.Counter("cdl_edge_rejected_total", "Requests shed with 503 + Retry-After (no worker freed within the acquire timeout).", nil, float64(s.rejected))
	p.Counter("cdl_edge_cloud_errors_total", "Offloads that failed at the cloud tier (502 for the whole request).", nil, float64(s.cloudErr))
	p.Counter("cdl_edge_images_total", "Images classified.", nil, float64(s.images))
	p.Counter("cdl_edge_local_exits_total", "Images resolved by the local prefix cascade.", nil, float64(s.local))
	p.Counter("cdl_edge_offloads_total", "Images shipped across the link as intermediate activations.", nil, float64(s.offload))
	p.Gauge("cdl_edge_split_stage", "Cascade stages the edge owns.", nil, float64(s.edgeCfg.SplitStage))
	p.Gauge("cdl_edge_offload_fraction", "Fraction of images that crossed the link.", nil, tier.OffloadFraction)
	p.Counter("cdl_edge_wire_bytes_total", "Total encoded payload bytes shipped.", nil, float64(tier.WireBytes))
	p.Counter("cdl_tier_energy_pj_total", "Cumulative 45 nm energy by tier (edge compute, link transfer, cloud compute).", obs.Labels{{"tier", "edge"}}, tier.EdgePJ)
	p.Counter("cdl_tier_energy_pj_total", "", obs.Labels{{"tier", "link"}}, tier.LinkPJ)
	p.Counter("cdl_tier_energy_pj_total", "", obs.Labels{{"tier", "cloud"}}, tier.CloudPJ)
	p.Gauge("cdl_energy_pj_per_image", "Mean whole-system energy per image (pJ), link surcharge included.", nil, tier.MeanTotalPJ)
	bounds, counts, sum, total := s.lat.Export(8)
	p.Histogram("cdl_edge_latency_ms", "Whole-request per-image latency (local exits and cloud round trips alike), milliseconds.", nil, bounds, counts, sum, total)
	s.mu.Unlock()

	if ctrl != nil {
		p.Gauge("cdl_control_rung", "Offload-split controller's current actuation rung (0 = configured split).", nil, float64(ctrl.Rung))
		p.Gauge("cdl_control_max_rung", "Deepest actuation rung the controller may take.", nil, float64(ctrl.MaxRung))
		p.Gauge("cdl_control_max_exit", "Current depth cap (-1 = none).", nil, float64(ctrl.MaxExit))
		p.Gauge("cdl_control_queue_frac", "Busy-worker fraction at the controller's last tick.", nil, ctrl.QueueFrac)
		p.Counter("cdl_control_violations_total", "Controller ticks that observed an SLO violation.", nil, float64(ctrl.Violations))
	}
	if s.alert != nil {
		st := s.alert.Status()
		active := 0.0
		if st.Active {
			active = 1
		}
		p.Gauge("cdl_alert_active", "Whether any burn-rate window is firing (the page signal).", nil, active)
		p.Gauge("cdl_alert_fast_burn_rate", "Error-budget burn rate over the fast window (1.0 = exactly on budget).", nil, st.Fast.BurnRate)
		p.Gauge("cdl_alert_slow_burn_rate", "Error-budget burn rate over the slow window.", nil, st.Slow.BurnRate)
		p.Counter("cdl_alert_bad_total", "Requests that burned error budget (latency above target, or shed).", nil, float64(st.TotalBad))
		p.Counter("cdl_alert_good_total", "Requests that met the latency target.", nil, float64(st.TotalGood))
	}
	fst := s.flight.Stats()
	p.Counter("cdl_flight_seen_total", "Requests offered to the flight recorder.", nil, float64(fst.Seen))
	p.Counter("cdl_flight_anomalous_total", "Requests tail-retained with full span trees.", nil, float64(fst.Anomalous))
	p.Gauge("cdl_flight_buffered", "Records currently live in the flight ring.", nil, float64(fst.Buffered))
	w.Header().Set("Content-Type", obs.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = p.WriteTo(w)
}

// ListenAndServe runs the edge front on addr until stop is closed, then
// shuts down gracefully, with the same slow-client hardening as the cloud
// server (serve.ListenHardened). The SLO control loop (when configured)
// stops with the HTTP layer.
func (s *Server) ListenAndServe(addr string, stop <-chan struct{}) error {
	return serve.ListenHardened(addr, s.handler, stop, s.Close)
}
