package control

// plane.go is the one place a finished request is accounted. Every
// serving tier (serve's registry entries, the edge front, the fleet
// router) owns one Plane per model and reports each request through a
// single call, Observe; inside it "feeds the telemetry window", "burns
// error budget", "is anomalous" and "becomes a flight record" are each
// decided once, so the window, the burn-rate monitor and the flight ring
// cannot disagree about what a request, a shed or an anomaly is. The same
// pass charges the bound version's lifetime horizon (Lifetime), the one
// fold every tier's /statsz and /metricsz render. The Plane also runs the
// SLO feedback loop (sample → Controller.Step → actuate) and renders the
// alert/flight/control metric families.

import (
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cdl/internal/core"
	"cdl/internal/obs"
)

// Reject causes the plane itself distinguishes (tiers add their own:
// "queue_full", "cloud_error", "backend_shed", …). CauseInvalid marks a
// request the client got wrong (4xx): tail-retained like every refusal, it
// is the one refusal that spends no error budget. CauseDeadline tags the
// record AnomalyDeadline instead of AnomalyError.
const (
	CauseInvalid  = "invalid"
	CauseDeadline = "deadline"
)

// Policy sources of an event: who chose the request's exit policy — the
// client ("explicit"), the SLO controller's current rung, or nobody (the
// trained identity policy).
const (
	SourceExplicit   = "explicit"
	SourceController = "controller"
	SourceDefault    = "default"
)

// Event is one finished request as any tier saw it: one classified image
// (serve and the edge emit one per image, the router one per forwarded
// request) or one refusal. Outcome is an obs.Flight* value: FlightOK,
// FlightHedgeWin and FlightHedgeLoss are served; FlightShed and
// FlightError are refusals and carry a Cause.
type Event struct {
	Trace            *obs.Trace
	TotalMS, QueueMS float64
	// ExitIndex is −1 when the input never exited (a refusal, or a tier
	// that does not see exits).
	ExitIndex int
	NodePath  string
	EnergyPJ  float64
	// BatchSize is the micro-batch a served image rode in; on a refusal it
	// is how many images the request carried, each charged to the budget.
	BatchSize    int
	PolicySource string
	Version      int
	Outcome      string
	Cause        string
	// Dropped marks an image a worker dropped un-run because its request's
	// context died: a refusal in every sink but the lifetime's per-cause
	// count, where the request counts once (Plane.Abandoned).
	Dropped bool
}

func (ev *Event) served() bool {
	return ev.Outcome == obs.FlightOK || ev.Outcome == obs.FlightHedgeWin || ev.Outcome == obs.FlightHedgeLoss
}

// images is how many inputs the event stands for.
func (ev *Event) images() int64 {
	if ev.served() || ev.BatchSize < 1 {
		return 1
	}
	return int64(ev.BatchSize)
}

// burns is the single error-budget rule: a served image burns when an
// attached latency target exists and it missed it; a refusal (shed,
// deadline, cancellation, transport or cloud error) always burns, unless
// the client caused it.
func (ev *Event) burns(targetMS float64) bool {
	if ev.served() {
		return targetMS > 0 && ev.TotalMS > targetMS
	}
	return ev.Cause != CauseInvalid
}

// budget pairs the burn-rate monitor with the latency target its
// classification uses — one atomic pointer, so Observe reads a consistent
// pair.
type budget struct {
	mon      *AlertMonitor
	targetMS float64
}

const (
	// liveP99RefreshNS is how often Observe re-snapshots the window for the
	// anomaly gate: often enough to track load swings, rare enough that the
	// scan never shows on the request path.
	liveP99RefreshNS = int64(250 * time.Millisecond)
	// liveP99MinSamples keeps the gate shut until the window holds enough
	// latencies — against fewer, every early request would look like a tail.
	liveP99MinSamples = 50
)

// Plane is one model's control plane: telemetry window, burn-rate monitor
// and latency target, flight ring, and the attached SLO controller with
// the policy it currently actuates. All methods are safe for concurrent
// use.
type Plane struct {
	name   string
	flight *obs.FlightRecorder

	window  atomic.Pointer[Window]
	budget  atomic.Pointer[budget]
	policy  atomic.Pointer[core.ExitPolicy]
	rung    atomic.Int32
	p99Bits atomic.Uint64
	p99AtNS atomic.Int64

	// life serializes Attach/Detach (held across the loop's exit); mu
	// guards the controller state the loop, Status and Detach share.
	life       sync.Mutex
	mu         sync.Mutex
	ctrl       *Controller // guarded by mu
	delta      float64     // guarded by mu; the bound model's trained δ
	lastSnap   Snapshot    // guarded by mu
	lastSample Sample      // guarded by mu
	stop, done chan struct{}
}

// NewPlane returns an idle plane recording into flight, bound to version 0
// of a model with one exit point (a tier that sees no exits, the router);
// a serve entry binds each of its versions.
func NewPlane(name string, flight *obs.FlightRecorder) *Plane {
	p := &Plane{name: name, flight: flight}
	p.Bind(0, 1, 0)
	return p
}

// Bind points the plane at a model version: telemetry restarts in a fresh
// window and a fresh lifetime horizon, sized for its numExits exit points,
// and delta (its trained δ) is what Status reports while the controller
// leaves δ alone. Only events of this version reach the new horizon, so a
// retired version's in-flight tail never lands in its successor's
// counters. Monitor, controller and flight ring carry over — they are the
// entry's, not the version's.
func (p *Plane) Bind(version, numExits int, delta float64) {
	w := NewWindow(numExits, WindowConfig{})
	w.life = newLifetime(version, w.numExits)
	p.window.Store(w)
	p.mu.Lock()
	p.delta = delta
	p.mu.Unlock()
}

// Lifetime is a bound model version's lifetime horizon, what /statsz and
// /metricsz render: counts and latency histograms, nothing summed in
// arrival order. Every ops and energy aggregate is derived from Exits when
// it is read (Σₑ Exits[e] × price[e], in exit order), so a run reports the
// same bits whatever order it served its images in.
type Lifetime struct {
	// Version is the bound model version, Since when it was bound.
	Version int
	Since   time.Time
	// Requests counts the admitted requests, Resumes those of them that
	// arrived as edge offloads (Plane.Admitted).
	Requests, Resumes int64
	// Images counts the served events, Exits them by exit index.
	Images int64
	Exits  []int64
	// Refused counts refused requests by cause: every refusal event but a
	// Dropped image, and every request Abandoned after its images were
	// emitted.
	Refused map[string]int64
	// Queue, Service and Total are the served events' queue wait, service
	// time (total − queue) and total latency, in ms.
	Queue, Service, Total *Histogram
}

func newLifetime(version, numExits int) *Lifetime {
	return &Lifetime{
		Version: version, Since: time.Now(),
		Exits:   make([]int64, numExits),
		Refused: make(map[string]int64),
		Queue:   NewHistogram(), Service: NewHistogram(), Total: NewHistogram(),
	}
}

// charge adds one event of the horizon's version. Caller holds the
// window's mu.
func (l *Lifetime) charge(ev *Event) {
	switch {
	case ev.served():
		l.Images++
		if ev.ExitIndex >= 0 && ev.ExitIndex < len(l.Exits) {
			l.Exits[ev.ExitIndex]++
		}
		l.Queue.Observe(ev.QueueMS)
		l.Service.Observe(ev.TotalMS - ev.QueueMS)
		l.Total.Observe(ev.TotalMS)
	case !ev.Dropped:
		l.Refused[ev.Cause]++
	}
}

// Cost prices the horizon's served images: Σₑ Exits[e] × price[e], summed
// in exit order, so it has the same bits whatever order they were served
// in.
func (l *Lifetime) Cost(price []float64) float64 {
	var sum float64
	for e, c := range l.Exits {
		sum += float64(c) * price[e]
	}
	return sum
}

// Lifetime copies the lifetime horizon of version; a version no longer (or
// not yet) bound reads an empty horizon of numExits exits.
func (p *Plane) Lifetime(version, numExits int) Lifetime {
	w := p.window.Load()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.life.Version != version {
		return *newLifetime(version, numExits)
	}
	l := *w.life
	l.Exits, l.Refused = slices.Clone(l.Exits), maps.Clone(l.Refused)
	l.Queue, l.Service, l.Total = l.Queue.clone(), l.Service.clone(), l.Total.clone()
	return l
}

// LatencyQuantile reads the count and quantile q of the bound version's
// lifetime total latency without copying the horizon.
func (p *Plane) LatencyQuantile(q float64) (count int64, ms float64) {
	w := p.window.Load()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.life.Total.Count(), w.life.Total.Quantile(q)
}

// Admitted counts one answered request of version on its lifetime horizon
// (resume: it arrived as an offload). Observe sees a request's images,
// never the request.
func (p *Plane) Admitted(version int, resume bool) {
	p.settle(version, func(l *Lifetime) {
		l.Requests++
		if resume {
			l.Resumes++
		}
	})
}

// Abandoned counts one request of version, by cause, whose context died
// after its images were emitted, served or Dropped.
func (p *Plane) Abandoned(version int, cause string) {
	p.settle(version, func(l *Lifetime) { l.Refused[cause]++ })
}

// settle applies f to version's horizon while it is the bound one.
func (p *Plane) settle(version int, f func(*Lifetime)) {
	w := p.window.Load()
	w.mu.Lock()
	if w.life.Version == version {
		f(w.life)
	}
	w.mu.Unlock()
}

// Arrivals records n inputs offered to the tier, admitted or not.
func (p *Plane) Arrivals(n int) { p.window.Load().Arrivals(n) }

// Window snapshots the telemetry window.
func (p *Plane) Window() Snapshot { return p.window.Load().Snapshot() }

// Policy returns the exit policy the attached controller currently
// actuates, nil for the trained behaviour. The pointer is stable between
// controller actions.
func (p *Plane) Policy() *core.ExitPolicy { return p.policy.Load() }

// Observe is the one emission. Each event feeds the telemetry window
// (served images: latency, exit depth, energy; sheds: the shed count) and,
// when it is of the bound version, the lifetime horizon (Lifetime), is
// classified against the error budget by Event.burns, and becomes a
// flight record that is tail-retained when it burned budget, exceeded the
// live window p99 (≥ 50 samples), took the deepest exit, lost a hedge or
// was refused. A tier calls Observe BEFORE it releases the request's
// waiter, so a client holding its response can already read its own
// request in every sink.
func (p *Plane) Observe(events []Event) {
	nowNS := time.Now().UnixNano()
	w, b := p.window.Load(), p.budget.Load()
	targetMS := 0.0
	if b != nil {
		targetMS = b.targetMS
	}
	var good, bad int64
	w.mu.Lock()
	slot := w.rotate(w.cfg.Now())
	for i := range events {
		ev := &events[i]
		switch {
		case ev.served():
			slot.observe(Obs{LatencyMS: ev.TotalMS, ExitIndex: ev.ExitIndex, EnergyPJ: ev.EnergyPJ})
		case ev.Outcome == obs.FlightShed:
			slot.sheds += ev.images()
		}
		if ev.Version == w.life.Version {
			w.life.charge(ev)
		}
		if ev.burns(targetMS) {
			bad += ev.images()
		} else if ev.served() {
			good++
		}
	}
	w.mu.Unlock()
	if b != nil {
		b.mon.Observe(good, bad)
	}
	if !obs.FlightEnabled() {
		// The kill switch skips record assembly only: SLO accounting and
		// the window never go dark with it.
		return
	}
	p99 := p.liveP99(w, nowNS)
	rung := int(p.rung.Load())
	// One copy of a trace's spans per call, shared by the records of its
	// images (a request's events are adjacent; records are read-only).
	var spansOf *obs.Trace
	var spans []obs.Span
	for i := range events {
		ev := &events[i]
		rec := obs.FlightRecord{
			Model: p.name, Version: ev.Version, PolicySource: ev.PolicySource, Rung: rung,
			ExitIndex: ev.ExitIndex, NodePath: ev.NodePath, QueueMS: ev.QueueMS, TotalMS: ev.TotalMS,
			BatchSize: ev.BatchSize, EnergyPJ: ev.EnergyPJ, Outcome: ev.Outcome, RejectCause: ev.Cause,
			StartUnixNS: nowNS - int64(ev.TotalMS*float64(time.Millisecond)),
		}
		if ev.QueueMS > 0 {
			rec.ServiceMS = ev.TotalMS - ev.QueueMS
		}
		switch {
		case ev.served():
			if ev.burns(targetMS) || (p99 > 0 && ev.TotalMS > p99) {
				rec.Anomalies = append(rec.Anomalies, obs.AnomalyP99)
			}
			if ev.ExitIndex == w.numExits-1 {
				rec.Anomalies = append(rec.Anomalies, obs.AnomalyDeepExit)
			}
			if ev.Outcome == obs.FlightHedgeLoss {
				// The answer was the primary's: an OK request that burned
				// duplicate work.
				rec.Outcome = obs.FlightOK
				rec.Anomalies = append(rec.Anomalies, obs.AnomalyHedge)
			}
		case ev.Outcome == obs.FlightShed:
			rec.Anomalies = []string{obs.AnomalyShed}
		case ev.Cause == CauseDeadline:
			rec.Anomalies = []string{obs.AnomalyDeadline}
		default:
			rec.Anomalies = []string{obs.AnomalyError}
		}
		if ev.Trace != nil {
			rec.TraceID = ev.Trace.ID()
			if rec.Anomalous() {
				if ev.Trace != spansOf {
					spansOf, spans = ev.Trace, ev.Trace.Spans()
				}
				rec.Spans = spans
			}
		}
		p.flight.Record(rec)
	}
}

// liveP99 is the single cached window p99 behind the anomaly gate.
func (p *Plane) liveP99(w *Window, nowNS int64) float64 {
	if at := p.p99AtNS.Load(); nowNS-at > liveP99RefreshNS && p.p99AtNS.CompareAndSwap(at, nowNS) {
		p99 := 0.0
		if s := w.Snapshot(); s.Images >= liveP99MinSamples {
			p99 = s.P99LatencyMS
		}
		p.p99Bits.Store(math.Float64bits(p99))
	}
	return math.Float64frombits(p.p99Bits.Load())
}

// Monitor starts burn-rate accounting against a p99 latency target in
// milliseconds (0 = availability only: served is good, refused is bad). A
// monitor already running keeps its history and only changes target.
func (p *Plane) Monitor(targetMS float64) {
	b := &budget{targetMS: targetMS}
	if old := p.budget.Load(); old != nil {
		b.mon = old.mon
	} else {
		b.mon = NewAlertMonitor()
	}
	p.budget.Store(b)
}

// Alert returns the burn-rate monitor's state; ok is false while nothing
// is monitored (an unmonitored model never pages).
func (p *Plane) Alert() (st AlertStatus, ok bool) {
	b := p.budget.Load()
	if b == nil {
		return AlertStatus{}, false
	}
	return b.mon.Status(), true
}

// Report rolls the planes' monitors into one tier's /alertz document.
func Report(tier string, planes ...*Plane) AlertzReport {
	rep := AlertzReport{Tier: tier, Models: make(map[string]AlertStatus)}
	for _, p := range planes {
		if st, ok := p.Alert(); ok {
			rep.Models[p.name] = st
			rep.Active = rep.Active || st.Active
		}
	}
	return rep
}

// Attach starts the feedback controller on the plane, or re-targets the
// one running (its state restarts at rung 0, the loop and the burn-rate
// history carry on). queueFrac is the tier's occupancy signal, sampled
// once per tick: queue depth on every serve entry, the edge front's
// included.
func (p *Plane) Attach(slo SLO, ladder []core.ExitPolicy, interval time.Duration, queueFrac func() float64) error {
	ctrl, err := New(slo, ladder)
	if err != nil {
		return err
	}
	p.life.Lock()
	defer p.life.Unlock()
	p.mu.Lock()
	p.ctrl = ctrl
	p.mu.Unlock()
	p.Monitor(slo.P99LatencyMs)
	if p.stop == nil {
		p.stop, p.done = make(chan struct{}), make(chan struct{})
		go p.loop(interval, queueFrac, p.stop, p.done)
	}
	return nil
}

// Detach stops the controller loop, drops the monitor and restores the
// trained policy. Reports whether a controller was attached.
func (p *Plane) Detach() bool {
	p.life.Lock()
	defer p.life.Unlock()
	if p.stop == nil {
		return false
	}
	close(p.stop)
	<-p.done
	p.stop, p.done = nil, nil
	p.mu.Lock()
	p.ctrl = nil
	p.policy.Store(nil)
	p.rung.Store(0)
	p.mu.Unlock()
	p.budget.Store(nil)
	return true
}

// loop is the one controller ticker.
func (p *Plane) loop(interval time.Duration, queueFrac func() float64, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			p.Tick(queueFrac())
		}
	}
}

// Tick runs one telemetry → decision → actuation pass; the loop calls it
// every interval, tests call it directly for deterministic actuation.
func (p *Plane) Tick(queueFrac float64) {
	snap := p.Window()
	sample := Sample{
		P99LatencyMS: snap.P99LatencyMS,
		QueueFrac:    queueFrac,
		MeanEnergyPJ: snap.MeanEnergyPJ,
		Images:       snap.Images,
		Arrivals:     snap.Arrivals,
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ctrl == nil {
		return
	}
	dec := p.ctrl.Step(sample)
	p.lastSnap, p.lastSample = snap, sample
	p.rung.Store(int32(dec.Rung))
	if dec.Action == ActionShallow {
		// The controller just degraded service to protect the SLO — freeze
		// the flight evidence that drove it before the ring churns past it.
		p.flight.Snapshot("rung_down", p.name, dec.Rung, snap.P99LatencyMS, time.Now().UnixNano())
	}
	// Publish only on change so the shared pointer stays stable between
	// actions (serve's cross-request batch grouping is by pointer first).
	if cur := p.policy.Load(); cur == nil || !cur.Equal(dec.Policy) {
		pol := dec.Policy
		p.policy.Store(&pol)
	}
}

// Status is the controller's observable state: the /slo GET body and the
// /statsz "control" section of serve and the edge alike.
type Status struct {
	Model string `json:"model"`
	SLO   SLO    `json:"slo"`
	// Rung/MaxRung locate the current policy on the actuation ladder
	// (0 = trained behaviour).
	Rung    int `json:"rung"`
	MaxRung int `json:"max_rung"`
	// Delta is the effective confidence threshold (the trained δ unless a
	// request overrides it — the controller never moves δ, see
	// core.DepthCapped). MaxExit is the current depth cap (−1 = none).
	Delta      float64 `json:"delta"`
	MaxExit    int     `json:"max_exit"`
	LastAction string  `json:"last_action"`
	Ticks      int64   `json:"ticks"`
	Violations int64   `json:"violations"`
	// RecoverHold is the current (possibly backed-off) recovery wait.
	RecoverHold int `json:"recover_hold"`
	// QueueFrac is the occupancy the last tick observed.
	QueueFrac float64 `json:"queue_frac"`
	// Window is the telemetry snapshot behind the last decision.
	Window Snapshot `json:"window"`
}

// Status assembles the controller's state, nil when none is attached.
func (p *Plane) Status() *Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ctrl == nil {
		return nil
	}
	st := p.ctrl.State()
	delta := st.Policy.Delta
	if delta < 0 {
		delta = p.delta
	}
	return &Status{
		Model:       p.name,
		SLO:         st.SLO,
		Rung:        st.Rung,
		MaxRung:     st.MaxRung,
		Delta:       delta,
		MaxExit:     st.Policy.MaxExit,
		LastAction:  string(st.LastAction),
		Ticks:       st.Ticks,
		Violations:  st.Violations,
		RecoverHold: st.RecoverHold,
		QueueFrac:   p.lastSample.QueueFrac,
		Window:      p.lastSnap,
	}
}

// Prom renders the plane's alert, flight and control families — the only
// place any tier's /metricsz gets them. An unmonitored plane exports no
// cdl_alert_* series and an uncontrolled one no cdl_control_*: absence is
// the signal.
func (p *Plane) Prom(pr *obs.Prom, labels obs.Labels) {
	if st, ok := p.Alert(); ok {
		pr.Gauge("cdl_alert_active", "Whether any burn-rate window is firing for this model (the page signal).", labels, obs.BoolGauge(st.Active))
		pr.Gauge("cdl_alert_fast_burn_rate", "Error-budget burn rate over the fast window (1.0 = exactly on budget).", labels, st.Fast.BurnRate)
		pr.Gauge("cdl_alert_slow_burn_rate", "Error-budget burn rate over the slow window.", labels, st.Slow.BurnRate)
		pr.Gauge("cdl_alert_error_budget", "Tolerated bad-request fraction.", labels, st.ErrorBudget)
		pr.Counter("cdl_alert_bad_total", "Requests that burned error budget (latency above target, shed, deadline or transport error).", labels, float64(st.TotalBad))
		pr.Counter("cdl_alert_good_total", "Requests served within the latency target.", labels, float64(st.TotalGood))
	}
	fst := p.flight.Stats()
	pr.Counter("cdl_flight_seen_total", "Requests offered to the flight recorder.", labels, float64(fst.Seen))
	pr.Counter("cdl_flight_anomalous_total", "Requests tail-retained with full span trees.", labels, float64(fst.Anomalous))
	pr.Gauge("cdl_flight_buffered", "Records currently live in the flight ring.", labels, float64(fst.Buffered))
	if ctrl := p.Status(); ctrl != nil {
		pr.Gauge("cdl_control_rung", "SLO controller's current actuation rung (0 = trained behaviour).", labels, float64(ctrl.Rung))
		pr.Gauge("cdl_control_max_rung", "Deepest actuation rung the controller may take.", labels, float64(ctrl.MaxRung))
		pr.Gauge("cdl_control_delta", "Effective confidence threshold under the controller.", labels, ctrl.Delta)
		pr.Gauge("cdl_control_max_exit", "Current depth cap (-1 = none).", labels, float64(ctrl.MaxExit))
		pr.Gauge("cdl_control_queue_frac", "Queue occupancy at the controller's last tick.", labels, ctrl.QueueFrac)
		pr.Counter("cdl_control_violations_total", "Controller ticks that observed an SLO violation.", labels, float64(ctrl.Violations))
	}
}
