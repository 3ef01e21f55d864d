// Package serve is the CDLN inference server: an HTTP JSON API over a
// registry of named, versioned models, each backed by a pool of pre-cloned
// per-worker replicas (core.Session), a bounded work queue with
// micro-batching, and live exit/OPS/energy statistics.
//
// The serving design is the paper's thesis operationalized: easy inputs
// exit the cascade early, so most requests cost a fraction of a full
// forward pass, and the per-request exit policy exposes §III.B's runtime
// accuracy/efficiency knob to clients per call as a structured ExitPolicy
// (δ, per-stage deltas, depth caps, op budgets, detail levels).
//
// Endpoints:
//
//	GET  /v2/models                      list models + metadata (stages, δ, op costs)
//	GET  /v2/models/{model}              one model's metadata
//	PUT  /v2/models/{model}              load-from-path hot-swap (admin surface)
//	PUT  /v2/models/{model}/branches/{b} hot-swap one branch subnetwork of a routed model
//	POST /v2/models/{model}/classify     classify on a named model under an ExitPolicy
//	POST /v2/models/{model}/resume       resume an edge-offloaded cascade past its split stage
//	GET  /v2/models/{model}/slo          attached SLO + controller state (rung, δ, window)
//	PUT  /v2/models/{model}/slo          attach/retarget the SLO feedback controller
//	DELETE /v2/models/{model}/slo        detach the controller (restore trained behaviour)
//	GET  /healthz                        liveness and the first entry's identity
//	GET  /statsz                         the first entry's exit distribution, latency histograms,
//	                                     normalized OPS, 45 nm energy, shed causes, controller state
//
// Every data route names its model; a bare model path given to cdlserve
// is registered as DefaultModelName. Hot-swapping a model under load drops
// no requests: a request that races the swap retries transparently against
// the successor version. Request contexts are threaded through the pool
// into the workers, so a cancelled or deadline-expired request is dropped
// before it burns a replica.
//
// /v2/models/{model}/resume is the cloud half of the edge–cloud split
// (internal/edgecloud): an edge node runs the cascade prefix, exits easy
// inputs locally, and ships only the hard residue here as wire-encoded
// intermediate activations. The edge node is itself a Server whose
// registry holds split entries (RegisterSplit) beside any local ones.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/obs"
)

// Config sizes the server (and every model pool in its registry).
type Config struct {
	// Workers is the replica-pool size per model: one core.Session (and one
	// worker goroutine) each. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds each model's work queue in images; requests beyond
	// it are rejected with 503. Default 1024.
	QueueDepth int
	// MaxBatch is the micro-batch size B: a worker drains up to B queued
	// images before touching shared state, and never waits for more.
	// Default 32. One request carries at most MaxBatch×8 images, and no
	// more than QueueDepth.
	MaxBatch int

	// ControlInterval is the SLO controller tick period for entries with
	// an attached SLO (Registry.SetSLO / PUT /v2/models/{name}/slo).
	// Default control.TickInterval.
	ControlInterval time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.ControlInterval <= 0 {
		c.ControlInterval = control.TickInterval
	}
	return c
}

// maxResumeWireSize is the largest wire-encoded activation any valid
// resume payload for this model can carry (the lossless encoding of the
// widest resume point on any graph node — trunk split stages and branch
// entry handoffs alike), used to bound request bodies before decoding.
func maxResumeWireSize(g *core.Graph) int {
	size := 0
	for ni, node := range g.Nodes {
		model := node.Model
		for split := 0; split <= len(model.Stages); split++ {
			if ni != 0 && split > 0 {
				// A branch payload always hands off at its entry (stage 0);
				// deeper branch splits never appear on the wire.
				break
			}
			shape := model.Arch.Net.ShapeAt(model.SplitPos(split))
			n := 1
			for _, d := range shape {
				n *= d
			}
			if s := wire.EncodedSizeAt(ni, len(shape), n, wire.EncodingFloat64); s > size {
				size = s
			}
		}
	}
	return size
}

// Server serves classification over a model registry. Create with New (one
// in-memory model) or NewWithRegistry (multi-model), expose via Handler
// (or ListenAndServe) and stop with Close.
type Server struct {
	cfg Config
	// maxImages caps the images in one request: MaxBatch×8, clamped to
	// QueueDepth (admission is all-or-nothing against the queue, so a
	// larger request could never be accepted).
	maxImages int
	reg       *Registry
	mux       *http.ServeMux
	handler   http.Handler // mux wrapped in the tracing middleware
	admin     []obs.AdminRoute
	started   time.Time
}

// New builds a single-model server: the model is registered in-memory
// under DefaultModelName in a fresh registry.
func New(model *core.CDLN, cfg Config) (*Server, error) {
	reg := NewRegistry(cfg)
	if _, err := reg.Register(DefaultModelName, model); err != nil {
		return nil, err
	}
	return NewWithRegistry(reg)
}

// NewWithRegistry serves an existing registry (which must hold at least
// one model) and takes ownership of it: Server.Close closes the registry.
func NewWithRegistry(reg *Registry) (*Server, error) {
	if len(reg.Models()) == 0 {
		return nil, fmt.Errorf("serve: registry has no models")
	}
	cfg := reg.Config()
	s := &Server{cfg: cfg, maxImages: min(cfg.MaxBatch*8, cfg.QueueDepth), reg: reg, started: time.Now()}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v2/models", s.handleModelsList)
	s.mux.HandleFunc("GET /v2/models/{model}", s.handleModelGet)
	s.mux.HandleFunc("PUT /v2/models/{model}", s.handleModelPut)
	s.mux.HandleFunc("PUT /v2/models/{model}/branches/{branch}", s.handleBranchPut)
	s.mux.HandleFunc("POST /v2/models/{model}/classify", s.handleInfer(false, func() wireRequest { return new(V2ClassifyRequest) }))
	s.mux.HandleFunc("POST /v2/models/{model}/resume", s.handleInfer(true, func() wireRequest { return new(V2ResumeRequest) }))
	s.mux.HandleFunc("GET /v2/models/{model}/slo", s.handleSLOGet)
	s.mux.HandleFunc("PUT /v2/models/{model}/slo", s.handleSLOPut)
	s.mux.HandleFunc("DELETE /v2/models/{model}/slo", s.handleSLODelete)
	s.admin = obs.OpsMux(s.mux, "serve", obs.OpsSources{
		Started: s.started,
		Health:  s.health,
		Ready:   s.ready,
		Stats:   func() any { return s.Stats() },
		Metrics: func(p *obs.Prom) {
			for _, m := range reg.Models() {
				m.prom(p)
			}
		},
		Alerts:  func() any { return reg.alertReport() },
		Flights: reg.flights,
	})
	s.handler = obs.Middleware(s.mux, obs.NewSlowLog())
	return s, nil
}

// Registry returns the server's model registry (for programmatic
// registration and hot-swap alongside the HTTP admin surface).
func (s *Server) Registry() *Registry { return s.reg }

// ClassifyV1 is the frozen POST /v1/classify (edgecloud.NewServer mounts
// it; cdlserve does not): a ClassifyRequest on the first registered
// entry, answered as a ClassifyResponse, through the one data handler.
func (s *Server) ClassifyV1() http.Handler {
	return s.handleInfer(false, func() wireRequest { return new(ClassifyRequest) })
}

// Handle adds a route to the server's mux, behind the tracing middleware.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// Handler returns the HTTP handler (also what ListenAndServe mounts): the
// route mux wrapped in the tracing middleware, which assigns or adopts the
// X-Trace-Id of every request — error and shed responses included — and
// rate-limit-logs slow requests with their span timelines.
func (s *Server) Handler() http.Handler { return s.handler }

// Stats snapshots the first registered entry's live counters (the /statsz
// payload; per-model views are on /v2/models), including the SLO controller
// state when one is attached.
func (s *Server) Stats() Stats {
	m, err := s.reg.Get("")
	if err != nil {
		return Stats{}
	}
	return m.Stats()
}

// Close drains every model's queue and stops the workers. Call after the
// HTTP layer has stopped accepting requests (http.Server.Shutdown);
// classify requests racing Close receive 503.
func (s *Server) Close() { s.reg.Close() }

// AdminRoutes returns the ops routes the admin listener mirrors
// (obs.ListenAdmin): /alertz and /debug/flightz, so the burn-rate state
// and the tail evidence stay reachable when the data port is saturated.
func (s *Server) AdminRoutes() []obs.AdminRoute { return s.admin }

// ListenHardened runs handler on addr until stop is closed, then shuts down
// gracefully (drain HTTP, then run afterStop if non-nil — the hook every
// tier uses to drain its worker pools). The cloud server, the edge front
// and the fleet router all listen through it, under fixed slow-client
// limits: a server built to shed load deliberately must not let a slowloris
// client pin its connections for free. Bounding body reads is the handlers'
// job (MaxBytesReader).
func ListenHardened(addr string, handler http.Handler, stop <-chan struct{}, afterStop func()) error {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,  // how long a client may take to send its headers
		IdleTimeout:       60 * time.Second, // keep-alive connections idle this long are closed
		MaxHeaderBytes:    64 << 10,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	stopped := func() {
		if afterStop != nil {
			afterStop()
		}
	}
	select {
	case err := <-errCh:
		stopped()
		return err
	case <-stop:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := httpSrv.Shutdown(ctx)
	stopped()
	if err != nil {
		return err
	}
	if lerr := <-errCh; !errors.Is(lerr, http.ErrServerClosed) {
		return lerr
	}
	return nil
}

// ListenAndServe runs the server on addr until stop is closed, then shuts
// down gracefully: stop accepting, wait for in-flight requests, drain the
// pools. The listener is hardened against slow clients (ListenHardened);
// body reads are bounded by the handlers.
func (s *Server) ListenAndServe(addr string, stop <-chan struct{}) error {
	return ListenHardened(addr, s.handler, stop, s.Close)
}

// ClassifyRequest is the edge front's POST /v1/classify payload
// (ClassifyV1; cdlserve's routes take V2ClassifyRequest): exactly
// one of Image (a single flattened image) or Images (a batch) must be set.
// Pixel counts must match the model's input shape. Delta, when non-nil,
// overrides the model's confidence threshold δ for every image in the
// request — the paper's §III.B runtime knob. It must be a finite number in
// [0,1]; NaN and ±Inf are rejected with 400 rather than passed into the
// exit rule (NaN compares false against every score, which would silently
// disable early exit). δ=1 disables early exit entirely (maximum accuracy
// of the baseline, baseline-like cost); moderate δ trades depth for cost.
// Note the default threshold rule (exit iff exactly one score clears δ) is
// not monotone at the low end: δ near 0 makes every class "confident" and
// so forces full depth too.
type ClassifyRequest struct {
	Image  []float64   `json:"image,omitempty"`
	Images [][]float64 `json:"images,omitempty"`
	Delta  *float64    `json:"delta,omitempty"`
}

// ClassifyResult is one image's outcome.
type ClassifyResult struct {
	// Label is the predicted class.
	Label int `json:"label"`
	// Exit names the exit point taken ("O1".."On", "FC", or a
	// branch-qualified "branch/O1" on routed models); ExitIndex is its
	// global index in the routing graph's exit numbering (the cascade
	// index for linear models).
	Exit      string `json:"exit"`
	ExitIndex int    `json:"exit_index"`
	// Node is the routing-graph node that resolved the input (0 = trunk,
	// omitted for linear models).
	Node int `json:"node,omitempty"`
	// Confidence is the winning score at the exit point.
	Confidence float64 `json:"confidence"`
	// Ops and EnergyPJ are the dynamic cost of this input; NormalizedOps is
	// Ops over one full baseline pass (1.0 = no early-exit benefit).
	Ops           float64 `json:"ops"`
	NormalizedOps float64 `json:"normalized_ops"`
	EnergyPJ      float64 `json:"energy_pj"`
}

// ClassifyResponse is the edge front's /v1/classify response; Results is
// in request order. TraceID and Spans appear only when the client sent an
// X-Trace-Id header (opting into tracing detail).
type ClassifyResponse struct {
	Results []ClassifyResult `json:"results"`
	Count   int              `json:"count"`
	TraceID string           `json:"trace_id,omitempty"`
	Spans   []obs.Span       `json:"spans,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ParseDeltaOverride validates an optional per-request δ override (a
// policy's "delta", which /v1/classify's bare δ becomes). nil keeps the
// model's trained thresholds (reported as −1, the Session sentinel);
// otherwise the value must be a finite number in [0,1] — NaN in particular
// would flow into every score comparison and silently disable early exit.
func ParseDeltaOverride(d *float64) (float64, error) {
	if d == nil {
		return -1, nil
	}
	v := *d
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
		return 0, fmt.Errorf("delta %v must be a finite value in [0,1]", v)
	}
	return v, nil
}

// requestError is a handler-level rejection with its HTTP status.
type requestError struct {
	status int
	msg    string
}

func badRequest(format string, args ...any) *requestError {
	return &requestError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// maxDispatchAttempts bounds the hot-swap retry loop: each retry means a
// swap landed between model resolution and submission, so more than a few
// in one request means the registry is churning faster than it can serve —
// shed the request instead of spinning.
const maxDispatchAttempts = 4

// shedRetryAfterSeconds is the Retry-After hint on every 503 shed: the
// bounded queue drains in well under a second at any serviceable load, so
// an immediate-but-not-instant retry is the right client behaviour for
// all three shed causes.
const shedRetryAfterSeconds = "1"

// WriteShed writes a 503 with the Retry-After header — the contract that
// lets load generators (and the SLO controller's telemetry) distinguish
// deliberate load shedding from hard failure. Shared with the fleet
// router, whose sheds follow the same protocol.
func WriteShed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", shedRetryAfterSeconds)
	WriteError(w, http.StatusServiceUnavailable, msg)
}

// dispatch resolves name, prepares jobs via build, submits them and waits.
// When a hot swap closes the resolved model's pool between resolution and
// submission, it transparently retries against the successor version
// (re-running build, so inputs are re-validated against the new model).
// On success it returns the model that served the request and the records,
// in job order; on failure it has already written the error response and
// charged the refusal to the model (Model.refuse). Either way it returns
// only once no worker holds a job of the request.
//
// build runs against a specific model version and returns the request's
// jobs, built afresh in the arena a (request.newJobs: tensor, record and
// WaitGroup wired; inputs and shared policy set; dispatch adds the context
// and trace), or a rejection, counted as invalid on that model.
func (s *Server) dispatch(w http.ResponseWriter, ctx context.Context, name string, resume bool, a *request, build func(m *Model) ([]*job, *requestError)) (*Model, []core.ExitRecord, bool) {
	var m *Model
	lastJobs := 1
	tr := obs.TraceOf(w)
	for attempt := 0; attempt < maxDispatchAttempts; attempt++ {
		var ok bool
		if m, ok = s.lookup(w, name); !ok {
			return nil, nil, false
		}
		jobs, rerr := build(m)
		if rerr != nil {
			m.refuse(tr, obs.FlightError, control.CauseInvalid, 0)
			WriteError(w, rerr.status, rerr.msg)
			return nil, nil, false
		}
		for _, j := range jobs {
			j.ctx, j.tr = ctx, tr
		}
		lastJobs = len(jobs)
		if attempt == 0 {
			// Offered load (admitted or not) feeds the telemetry window
			// once per request, whatever the dispatch outcome.
			m.plane.Arrivals(len(jobs))
		}
		switch err := m.pool.submit(ctx, jobs); {
		case err == nil:
			a.wg.Wait()
			if cerr := ctx.Err(); cerr != nil {
				// The request died while queued or mid-batch; whatever
				// subset was classified, the client is gone or out of time
				// — never ship a partial response. The worker already
				// emitted one event per image, dropped or classified.
				m.metrics.observeRefused(rejectCause(cerr))
				status := http.StatusServiceUnavailable
				if errors.Is(cerr, context.DeadlineExceeded) {
					status = http.StatusGatewayTimeout
				}
				WriteError(w, status, fmt.Sprintf("request abandoned: %v", cerr))
				return nil, nil, false
			}
			for _, j := range jobs {
				if j.err != nil {
					// A group this request rode in failed its walk on the
					// other tier: the whole request is a 502, and no sink
					// heard of that group's images.
					m.refuse(tr, obs.FlightError, causeCloudError, len(jobs))
					WriteError(w, http.StatusBadGateway, j.err.Error())
					return nil, nil, false
				}
			}
			m.metrics.observeRequest(resume)
			return m, a.records, true
		case errors.Is(err, ErrOverloaded):
			m.refuse(tr, obs.FlightShed, causeQueueFull, len(jobs))
			WriteShed(w, err.Error())
			return nil, nil, false
		case errors.Is(err, ErrClosed):
			// Either a hot swap retired this version (a successor exists:
			// retry against it) or the server is shutting down (shed).
			if cur, gerr := s.reg.Get(name); gerr == nil && cur != m {
				continue
			}
			m.refuse(tr, obs.FlightShed, causeClosed, len(jobs))
			WriteShed(w, err.Error())
			return nil, nil, false
		default:
			// Context error at admission: nothing was enqueued.
			m.refuse(tr, obs.FlightError, rejectCause(err), len(jobs))
			if errors.Is(err, context.DeadlineExceeded) {
				WriteError(w, http.StatusGatewayTimeout, fmt.Sprintf("request abandoned: %v", err))
			} else {
				WriteShed(w, fmt.Sprintf("request abandoned: %v", err))
			}
			return nil, nil, false
		}
	}
	m.refuse(tr, obs.FlightShed, causeChurn, lastJobs)
	WriteShed(w, "model reloading too fast; retry")
	return nil, nil, false
}

// finishTrace returns the body detail (ID + span timeline) for clients that
// opted in, by sending X-Trace-Id themselves or by asking for detail level
// "trace": the only requests whose spans the data path renders. Every
// other request keeps its exact pre-tracing body. The response header
// already carries the ID: the middleware set it.
func finishTrace(tr *obs.Trace, detail string) (string, []obs.Span) {
	if tr == nil || !tr.Propagated() && detail != DetailTrace {
		return "", nil
	}
	return tr.ID(), tr.Spans()
}

// NormalizeImages validates the request's single/batch forms against the
// model's input width and the per-request cap, returning the pixel slices.
// Every image route runs it, so both tiers accept and reject exactly the
// same requests. Pixels must be finite: standard JSON
// cannot carry NaN/±Inf, but the type is also used by in-process callers,
// and a NaN pixel would flow through every stage score and silently
// disable the exit rule (NaN compares false against δ) — reject it here,
// like ParseDeltaOverride does for δ.
func (req *ClassifyRequest) NormalizeImages(inWidth, maxImages int, inShape []int) ([][]float64, error) {
	images, err := oneOrMany(req.Image, req.Image != nil, req.Images, "image", maxImages)
	if err != nil {
		return nil, err
	}
	for i, img := range images {
		if len(img) != inWidth {
			return nil, fmt.Errorf("image %d has %d pixels, model wants %d (shape %v)",
				i, len(img), inWidth, inShape)
		}
		for p, v := range img {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("image %d pixel %d is %v; pixels must be finite", i, p, v)
			}
		}
	}
	return images, nil
}

// healthResponse is the /healthz payload.
type healthResponse struct {
	Status        string     `json:"status"`
	Model         string     `json:"model,omitempty"`
	Arch          string     `json:"arch"`
	Stages        int        `json:"stages"`
	Delta         float64    `json:"delta"`
	Split         *SplitInfo `json:"split,omitempty"`
	Workers       int        `json:"workers"`
	Models        int        `json:"models"`
	Default       string     `json:"default_model"`
	UptimeSeconds float64    `json:"uptime_seconds"`
}

// health is the /healthz body: liveness and the first registered entry's
// identity.
func (s *Server) health() any {
	resp := healthResponse{
		Status:        "ok",
		Workers:       s.cfg.Workers,
		Models:        len(s.reg.Models()),
		Default:       s.reg.DefaultName(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if m, err := s.reg.Get(""); err == nil {
		// The identity fields all describe the first registered entry,
		// labelled by its file or, without one, its name.
		resp.Model = cmp.Or(m.path, m.name)
		resp.Arch = m.cdln.Arch.Name
		resp.Stages = len(m.cdln.Stages)
		resp.Delta = m.delta()
		resp.Split = m.splitInfo()
	}
	return resp
}

// readyResponse is the /readyz payload.
type readyResponse struct {
	Ready   bool   `json:"ready"`
	Default string `json:"default_model,omitempty"`
}

// ready is the readiness probe: ok only while the registry's first entry
// can serve (its warmed pool exists, not mid-Close).
// /healthz stays pure liveness — it answers 200 whenever the process can
// answer at all, so orchestrators restart on liveness and un-route on
// readiness.
func (s *Server) ready() (any, bool) {
	if s.reg.Ready() {
		return readyResponse{Ready: true, Default: s.reg.DefaultName()}, true
	}
	return readyResponse{Ready: false}, false
}

// WriteJSON writes v as a JSON response with the given status
// (obs.WriteJSON, the one response writer of every tier).
func WriteJSON(w http.ResponseWriter, status int, v any) { obs.WriteJSON(w, status, v) }

// WriteError writes the shared {"error": msg} body.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorResponse{msg})
}

// lookup resolves a route's {model} to its current version; for a name the
// registry does not hold it has written the 404 and returns ok=false.
func (s *Server) lookup(w http.ResponseWriter, name string) (m *Model, ok bool) {
	m, err := s.reg.Get(name)
	if err != nil {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q (have: %s)", name, s.reg.names()))
	}
	return m, err == nil
}
