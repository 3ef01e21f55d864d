package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"cdl/internal/control"
	"cdl/internal/hop"
	"cdl/internal/obs"
	"cdl/internal/serve"
)

// Config sizes the router.
type Config struct {
	// Backends are the cdlserve base URLs the router fans across. At
	// least one is required; identity (and therefore ring placement) is
	// the URL string.
	Backends []string

	// ProbeInterval is the health (/readyz) and alert (/alertz) refresh
	// period. Default 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe HTTP exchange. Default 2s.
	ProbeTimeout time.Duration
	// RequestTimeout bounds one forwarded backend attempt (connect +
	// headers + body). Default 30s.
	RequestTimeout time.Duration

	// Replicas is the ring's virtual-node count per backend. Default 128.
	Replicas int
	// LoadFactor is the bounded-load constant c: a backend is skipped (in
	// favour of the next ring node) while its router-side in-flight count
	// exceeds c × the fleet-wide mean. Default 2.0; values < 1 are
	// treated as 1 (a factor below the mean would reject everything).
	LoadFactor float64

	// Hedge enables hedged requests: when a classify/resume attempt is
	// still unanswered after the per-model hedge deadline, the same input
	// is re-sent to the next ring node and the first answer wins. Default
	// off (enable explicitly; duplicate work must be opted into).
	Hedge bool
	// HedgeMin/HedgeMax clamp the hedge deadline (the model's
	// router-observed hedgeQuantile latency). Defaults 5ms / 1s. Setting
	// HedgeMin == HedgeMax pins a fixed deadline (tests do).
	HedgeMin, HedgeMax time.Duration
}

const (
	// maxBodyBytes bounds an accepted request body (and a backend's
	// answer).
	maxBodyBytes = 32 << 20
	// hedgeQuantile is the per-model router-observed latency quantile used
	// as the hedge deadline.
	hedgeQuantile = 0.95
	// hedgeMinSamples is how many router-observed latencies a model needs
	// before its own quantile drives the deadline; below it HedgeMax is used.
	hedgeMinSamples = 50
)

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = 2.0
	}
	if c.LoadFactor < 1 {
		c.LoadFactor = 1
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 5 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = time.Second
	}
	if c.HedgeMax < c.HedgeMin {
		c.HedgeMax = c.HedgeMin
	}
	return c
}

// Router is the fleet front door. Create with New, expose via Handler or
// ListenAndServe, stop with Close.
type Router struct {
	cfg      Config
	backends []*backend
	ring     *Ring
	metrics  *routerMetrics

	// probeClient (the cold /readyz and /alertz path, under its own
	// timeout) and data (every forward, under RequestTimeout) are separate,
	// so a hung backend pins neither a probe nor a request goroutine.
	probeClient *http.Client
	data        *hop.Client

	mux     *http.ServeMux
	handler http.Handler
	admin   []obs.AdminRoute

	stop    chan struct{}
	wg      sync.WaitGroup
	started time.Time
}

// New builds a router over cfg.Backends and runs one synchronous probe
// round before returning, so a router with any reachable backend starts
// ready. The probe loop keeps refreshing in the background until Close.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("fleet: no backends configured")
	}
	backends := make([]*backend, len(cfg.Backends))
	names := make([]string, len(cfg.Backends))
	for i, raw := range cfg.Backends {
		b, err := newBackend(raw)
		if err != nil {
			return nil, err
		}
		backends[i] = b
		names[i] = b.url
	}
	ring, err := NewRing(names, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:      cfg,
		backends: backends,
		ring:     ring,
		metrics:  newRouterMetrics(),
		probeClient: &http.Client{
			Timeout: cfg.ProbeTimeout,
			Transport: &http.Transport{
				DialContext:           (&net.Dialer{Timeout: cfg.ProbeTimeout}).DialContext,
				MaxIdleConnsPerHost:   2,
				IdleConnTimeout:       30 * time.Second,
				ResponseHeaderTimeout: cfg.ProbeTimeout,
			},
		},
		data:    hop.NewClient(maxBodyBytes),
		stop:    make(chan struct{}),
		started: time.Now(),
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v2/models/{model}/classify", func(w http.ResponseWriter, r *http.Request) {
		rt.handleData(w, r, r.PathValue("model"), routeClassify)
	})
	rt.mux.HandleFunc("POST /v2/models/{model}/resume", func(w http.ResponseWriter, r *http.Request) {
		rt.handleData(w, r, r.PathValue("model"), routeResume)
	})
	rt.mux.HandleFunc("GET /v2/models", rt.handleProxyGet)
	rt.mux.HandleFunc("GET /v2/models/{model}", rt.handleProxyGet)
	rt.mux.HandleFunc("GET /v2/models/{model}/slo", rt.handleProxyGet)
	rt.mux.HandleFunc("PUT /v2/models/{model}", rt.handleRollingSwap)
	rt.mux.HandleFunc("PUT /v2/models/{model}/branches/{branch}", rt.handleRollingSwap)
	rt.admin = obs.OpsMux(rt.mux, "fleet", obs.OpsSources{
		Started: rt.started,
		Health:  func() any { return map[string]string{"status": "ok"} },
		Ready:   rt.ready,
		Stats:   func() any { return rt.Stats() },
		Metrics: rt.prom,
		Alerts:  func() any { return rt.AlertReport() },
		Flights: rt.metrics.flights,
	})
	rt.handler = obs.Middleware(rt.mux, obs.NewSlowLog())

	rt.probeRound()
	rt.wg.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Handler returns the front-door handler: the route mux wrapped in the
// same tracing middleware both serving tiers use (X-Trace-Id adopted or
// generated, echoed on every response path, slow requests sampled).
func (rt *Router) Handler() http.Handler { return rt.handler }

// Close stops the probe loop and releases pooled connections. In-flight
// forwards complete on their own contexts.
func (rt *Router) Close() {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
	}
	rt.wg.Wait()
	rt.probeClient.CloseIdleConnections()
	rt.data.CloseIdle()
}

// ListenAndServe runs the router on addr until stop is closed, then shuts
// down gracefully, reusing the serving tier's hardened listener.
func (rt *Router) ListenAndServe(addr string, stop <-chan struct{}) error {
	return serve.ListenHardened(addr, rt.handler, stop, rt.Close)
}

// The data routes, by their index in routes (a pick span's Stage).
const (
	routeClassify = iota
	routeResume
)

var routes = [...]string{"classify", "resume"}

// stackFleet is the largest fleet whose pick allocates nothing: pickChain's
// ring sequence and spill lists, and its callers' chains, are stack arrays
// of this size.
const stackFleet = 8

// The router's spans, recorded under the backend they name (a hedge
// neither attempt answered names its primary): Label is the model, a pick's
// or retry's Stage its route (−1: a hedged pick names none), a hedge's
// Branch its winner (0 the primary, 1 the hedge, −1 neither).
const (
	spanPick uint8 = iota
	spanRetry
	spanHedge
)

// SpanName renders the router's spans recorded under b (obs.Namer).
func (b *backend) SpanName(ev obs.Event) (name, detail string) {
	if ev.Kind == spanHedge {
		if ev.Branch < 0 {
			return "router:hedge", "model=" + ev.Label + " winner=none"
		}
		return "router:hedge", "model=" + ev.Label + " winner=" + [...]string{"primary", "hedge"}[ev.Branch] + " backend=" + b.url
	}
	if detail = "backend=" + b.url + " model=" + ev.Label; ev.Stage >= 0 {
		detail += " route=" + routes[ev.Stage]
	}
	return [...]string{spanPick: "router:pick", spanRetry: "router:retry"}[ev.Kind], detail
}

// pickChain orders the backends for one key: ring sequence, filtered to
// healthy + non-draining + under the bounded-load cap (the router's own
// in-flight count) first, then healthy non-draining overloaded ones (load
// spill must degrade to "serve anyway", never to "reject while capacity
// exists"), then draining ones as a last resort. Unhealthy backends are
// excluded entirely — transport errors rejoin them only via the probe loop.
// A backend that is saturated all the same answers 503, and dispatch walks
// on down the chain.
// The chain is appended to chain.
func (rt *Router) pickChain(chain []*backend, key uint64) []*backend {
	var seqBuf [stackFleet]int
	var overBuf, drainBuf [stackFleet]*backend
	overloaded, draining := overBuf[:0], drainBuf[:0]
	limit := rt.loadCap()
	for _, mi := range rt.ring.AppendSeq(seqBuf[:0], key) {
		b := rt.backends[mi]
		if !b.healthy.Load() {
			continue
		}
		switch {
		case b.swapping.Load():
			draining = append(draining, b)
		case b.inflight.Load() >= limit:
			overloaded = append(overloaded, b)
		default:
			chain = append(chain, b)
		}
	}
	chain = append(chain, overloaded...)
	return append(chain, draining...)
}

// loadCap is the bounded-load threshold: c × ceil((total in flight + 1) /
// healthy backends), counting the incoming request itself so an idle
// fleet never rounds the cap down to zero.
func (rt *Router) loadCap() int64 {
	total, healthy := int64(0), int64(0)
	for _, b := range rt.backends {
		if b.healthy.Load() {
			healthy++
			total += b.inflight.Load()
		}
	}
	if healthy == 0 {
		return 1
	}
	mean := float64(total+1) / float64(healthy)
	cap := int64(rt.cfg.LoadFactor * mean)
	if cap < 1 {
		cap = 1
	}
	return cap
}

// attemptResult is one forwarded attempt's outcome.
type attemptResult struct {
	backend *backend
	status  int
	answer  hop.Response // its Body is the caller's to release
	err     error
	// hedged/hedgeWon carry the hedge outcome up to the flight recorder:
	// hedged is true when a hedge was launched for this request, hedgeWon
	// when the hedge's response (not the primary's) was the one used.
	hedged   bool
	hedgeWon bool
}

// decisive reports whether the result should be returned to the client
// rather than retried on the next ring node: any real HTTP response except
// a 503 shed (which overflow can still absorb elsewhere).
func (a attemptResult) decisive() bool {
	return a.err == nil && a.status != http.StatusServiceUnavailable
}

// release gives the answer's pooled body back.
func (a attemptResult) release() {
	if a.answer.Body != nil {
		a.answer.Body.Release()
	}
}

// send forwards one attempt to b and reads the answer whole. A body goes
// under the client's own Content-Type (the router never reads it, and a
// backend picks its decoder by it). The trace ID is propagated to the
// backend only when the client itself supplied one — otherwise backend
// response bodies would grow trace fields the client never asked for.
func (rt *Router) send(ctx context.Context, b *backend, method, path, contentType string, body *hop.Body, traceID string) attemptResult {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	req := hop.Request{Method: method, Base: b.url, Path: path, ContentType: cmp.Or(contentType, "application/json"), TraceID: traceID, Timeout: rt.cfg.RequestTimeout}
	if body != nil {
		req.Body = body.Bytes()
	}
	resp, err := rt.data.Do(ctx, &req)
	if err != nil {
		b.errors.Add(1)
		return attemptResult{backend: b, err: err}
	}
	b.requests.Add(1)
	return attemptResult{backend: b, status: resp.Status, answer: resp}
}

// writeResult relays a backend response to the client: status, body, and
// the headers that carry contract (Content-Type; Retry-After on sheds is
// propagated, not swallowed — the backend's own backoff hint must reach
// the client).
func writeResult(w http.ResponseWriter, res attemptResult) {
	w.Header().Set("Content-Type", cmp.Or(res.answer.ContentType, "application/json"))
	if ra := res.answer.RetryAfter; ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.answer.Body.Bytes())
}

// handleData is the classify/resume data path: hash, pick, forward with
// hedging and failover. Every outcome is one event on the model's plane,
// emitted before the response is written.
func (rt *Router) handleData(w http.ResponseWriter, r *http.Request, model string, route int) {
	mm := rt.metrics.model(model)
	tr := obs.TraceOf(w)
	refused := control.Event{Trace: tr, ExitIndex: -1, Outcome: obs.FlightError, Cause: control.CauseInvalid}
	// The bound alone decides 413: a declared length over it is refused
	// unread. Each hedged attempt holds its own reference.
	body := hop.NewBody()
	defer body.Release()
	var err error
	if r.ContentLength > maxBodyBytes {
		err = &http.MaxBytesError{Limit: maxBodyBytes}
	} else {
		err = body.Fill(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	}
	if err != nil {
		mm.plane.Observe([]control.Event{refused})
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			serve.WriteError(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		serve.WriteError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	key := HashRequest(model, body.Bytes())
	var chainBuf [stackFleet]*backend
	chain := rt.pickChain(chainBuf[:0], key)
	if len(chain) == 0 {
		// Rejected before any backend attempt.
		mm.sheds.Add(1)
		refused.Outcome, refused.Cause = obs.FlightShed, "no_backend"
		mm.plane.Observe([]control.Event{refused})
		serve.WriteShed(w, "no ready backend")
		return
	}
	traceID := ""
	if tr.Propagated() {
		traceID = tr.ID()
	}
	start := time.Now()
	res := rt.dispatch(r.Context(), chain, r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"), body, model, route, traceID, tr)
	elapsedMS := float64(time.Since(start)) / float64(time.Millisecond)
	mm.observe(tr, res, elapsedMS)
	defer res.release()
	if res.err != nil {
		w.Header().Set("Retry-After", "1")
		serve.WriteError(w, http.StatusBadGateway, fmt.Sprintf("all backends failed: %v", res.err))
		return
	}
	writeResult(w, res)
}

// observe charges one dispatched request to the model's counters and emits
// its wide event. The event carries what the front door knows — the backend
// the answer came from as the node path, the hedge outcome and the
// end-to-end router latency; a 200 is served, a 503 a shed, a transport
// failure or another backend 5xx an error, and a relayed 4xx the client's
// own (tail-retained, no budget burned).
func (mm *modelMetrics) observe(tr *obs.Trace, res attemptResult, elapsedMS float64) {
	ev := control.Event{Trace: tr, TotalMS: elapsedMS, ExitIndex: -1, Outcome: obs.FlightOK}
	if res.backend != nil {
		ev.NodePath = res.backend.url
	}
	switch {
	case res.err != nil:
		mm.sheds.Add(1)
		ev.Outcome, ev.Cause = obs.FlightError, "transport"
	case res.status == http.StatusServiceUnavailable:
		mm.sheds.Add(1)
		ev.Outcome, ev.Cause = obs.FlightShed, "backend_shed"
	case res.status >= http.StatusInternalServerError:
		ev.Outcome, ev.Cause = obs.FlightError, "backend_error"
	case res.status != http.StatusOK:
		ev.Outcome, ev.Cause = obs.FlightError, control.CauseInvalid
	default:
		mm.observeLatency(elapsedMS)
		if res.hedged && res.hedgeWon {
			ev.Outcome = obs.FlightHedgeWin
		} else if res.hedged {
			ev.Outcome = obs.FlightHedgeLoss
		}
	}
	if res.err == nil {
		mm.requests.Add(1)
	}
	mm.plane.Observe([]control.Event{ev})
}

// AdminRoutes returns the ops routes the admin listener mirrors
// (obs.ListenAdmin): /alertz and /debug/flightz.
func (rt *Router) AdminRoutes() []obs.AdminRoute { return rt.admin }

// AlertReport rolls the fleet's burn-rate state into one view: the
// router's own per-model availability monitors plus every backend's
// last-probed /alertz report. The fleet pages when anything underneath
// pages — its own monitors or any backend's.
func (rt *Router) AlertReport() FleetAlertz {
	_, models := rt.metrics.sorted()
	planes := make([]*control.Plane, len(models))
	for i, mm := range models {
		planes[i] = mm.plane
	}
	out := FleetAlertz{AlertzReport: control.Report("fleet", planes...)}
	for _, b := range rt.backends {
		rep := b.alertz.Load()
		if rep == nil {
			continue
		}
		if out.Backends == nil {
			out.Backends = make(map[string]control.AlertzReport)
		}
		out.Backends[b.url] = *rep
		out.Active = out.Active || rep.Active
	}
	return out
}

// dispatch runs the attempt chain: the primary attempt is hedged (when
// enabled), later attempts are straight failover. A transport error marks
// the backend down on the spot — rerouting does not wait for the probe
// loop — and moves on; a 503 is remembered (for Retry-After propagation)
// while overflow tries the rest of the chain.
func (rt *Router) dispatch(ctx context.Context, chain []*backend, method, path, contentType string, body *hop.Body, model string, route int, traceID string, tr *obs.Trace) attemptResult {
	var last attemptResult
	haveLast := false
	for i := 0; i < len(chain); i++ {
		b := chain[i]
		var res attemptResult
		start := time.Now()
		if i == 0 && rt.cfg.Hedge && len(chain) > 1 {
			res = rt.hedged(ctx, b, chain[1], method, path, contentType, body, model, traceID, tr)
		} else {
			res = rt.send(ctx, b, method, path, contentType, body, traceID)
			kind := spanPick
			if i > 0 {
				kind = spanRetry
				rt.metrics.model(model).retries.Add(1)
			}
			tr.Add(b, obs.Event{Kind: kind, Stage: int32(route), Label: model}, start, time.Now())
		}
		// A decisive answer ends the chain, and so does a client that is
		// gone or out of time: stop burning backends.
		if res.decisive() || res.err != nil && ctx.Err() != nil {
			last.release()
			return res
		}
		if res.err != nil {
			res.backend.healthy.Store(false)
		}
		last.release()
		last, haveLast = res, true
	}
	if !haveLast {
		return attemptResult{err: errors.New("no backend attempted")}
	}
	return last
}

// handleProxyGet forwards a read-only request to the first healthy
// backend in ring order of the path (cheap spread without affinity
// requirements).
func (rt *Router) handleProxyGet(w http.ResponseWriter, r *http.Request) {
	var chainBuf [stackFleet]*backend
	chain := rt.pickChain(chainBuf[:0], HashKey(r.URL.Path))
	if len(chain) == 0 {
		serve.WriteShed(w, "no ready backend")
		return
	}
	var res attemptResult
	for _, b := range chain {
		res = rt.send(r.Context(), b, http.MethodGet, r.URL.RequestURI(), "", nil, "")
		if res.err == nil {
			writeResult(w, res)
			res.release()
			return
		}
		b.healthy.Store(false)
	}
	w.Header().Set("Retry-After", "1")
	serve.WriteError(w, http.StatusBadGateway, fmt.Sprintf("all backends failed: %v", res.err))
}
