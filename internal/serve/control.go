// control.go wires the SLO controller (internal/control) into the model
// registry: per-entry attachment (SetSLO/ClearSLO), the tick loop that
// closes the feedback path telemetry → decision → actuation, and the
// /v2/models/{name}/slo admin surface.
//
// Actuation is deliberately narrow: the controller only rewrites the
// *default* policy — the one a request inherits when it carries no
// explicit δ or policy of its own. A request that states its policy
// always wins, so the /v1 and /v2 golden behaviour is untouched and a
// client that needs the trained cascade can pin it per call. The
// controller survives hot-swaps (it is keyed by entry name, not model
// version) and rebinds to the successor version on its next tick,
// rebuilding the ladder if the new cascade's stage count differs.
package serve

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
)

// identityPolicy is the shared inherit target when no controller is
// attached: the model's trained behaviour. Never mutated.
var identityPolicy = core.DefaultExitPolicy()

// alertSink pairs an entry's burn-rate monitor with the latency target
// its good/bad classification uses — published to the model as one
// atomic pointer so the batch path reads a consistent pair.
type alertSink struct {
	mon         *control.AlertMonitor
	p99TargetMS float64
}

// servePolicy is the policy a request without an explicit one inherits:
// the controller's current rung, or the identity policy. The returned
// pointer is shared across requests between controller ticks, so the
// pool's identity-based batch grouping keeps working across requests.
func (m *Model) servePolicy() *core.ExitPolicy {
	if p := m.controlled.Load(); p != nil {
		return p
	}
	return &identityPolicy
}

// entryControl is one registry entry's attached controller: the loop
// goroutine's state plus everything the admin surface reports.
type entryControl struct {
	name string

	mu           sync.Mutex
	ctrl         *control.Controller // guarded by mu
	boundVersion int                 // guarded by mu
	// boundDepth is the routing graph's max path depth the ladder was
	// built for (the stage count on linear models). guarded by mu.
	boundDepth int
	lastSnap   control.Snapshot // guarded by mu
	lastSample control.Sample   // guarded by mu
	// sink is the burn-rate monitor published to the model. The monitor
	// survives SLO re-targets (its history is the point), but the sink
	// wrapper is rebuilt so the latency target tracks the SLO. guarded
	// by mu.
	sink *alertSink

	stop chan struct{}
	done chan struct{}
}

// SetSLO attaches (or re-targets) a feedback controller on entry name.
// The controller starts at the identity policy and adapts from the next
// tick; re-attaching resets the controller state but keeps the loop.
func (r *Registry) SetSLO(name string, slo control.SLO) error {
	if err := slo.Validate(); err != nil {
		return err
	}
	m, err := r.Get(name)
	if err != nil {
		return err
	}
	name = m.Name() // resolve "" to the default entry
	r.ctrlMu.Lock()
	defer r.ctrlMu.Unlock()
	if r.closedCtrl {
		return ErrClosed
	}
	ec := r.ctrls[name]
	fresh := ec == nil
	if fresh {
		ec = &entryControl{name: name, stop: make(chan struct{}), done: make(chan struct{})}
		if r.ctrls == nil {
			r.ctrls = make(map[string]*entryControl)
		}
		r.ctrls[name] = ec
	}
	ec.mu.Lock()
	err = ec.bind(m, slo, r.cfg.ControlInterval)
	ec.mu.Unlock()
	if err != nil {
		if fresh {
			delete(r.ctrls, name)
		}
		return err
	}
	if fresh {
		go r.controlLoop(ec)
	}
	return nil
}

// bind (re)builds the controller for a model version. The actuation
// ladder spans the routing graph's max path depth, so on a routed model
// the deepest rungs shed branch depth before trunk depth. Caller holds
// ec.mu.
func (ec *entryControl) bind(m *Model, slo control.SLO, interval time.Duration) error {
	ladder := control.Ladder(m.graph.MaxDepth(), slo.AccuracyFloorDelta)
	ctrl, err := control.New(slo, ladder, control.Config{Interval: interval})
	if err != nil {
		return err
	}
	ec.ctrl = ctrl
	ec.boundVersion = m.version
	ec.boundDepth = m.graph.MaxDepth()
	var mon *control.AlertMonitor
	if ec.sink != nil {
		mon = ec.sink.mon
	}
	if mon == nil {
		mon = control.NewAlertMonitor(control.AlertConfig{})
	}
	ec.sink = &alertSink{mon: mon, p99TargetMS: slo.P99LatencyMs}
	m.alert.Store(ec.sink)
	return nil
}

// ClearSLO detaches entry name's controller and restores the identity
// inherit policy. Reports whether a controller was attached.
func (r *Registry) ClearSLO(name string) bool {
	if m, err := r.Get(name); err == nil {
		name = m.Name()
		defer func() {
			m.controlled.Store(nil)
			m.alert.Store(nil)
			m.ctrlRung.Store(0)
		}()
	}
	r.ctrlMu.Lock()
	ec := r.ctrls[name]
	delete(r.ctrls, name)
	r.ctrlMu.Unlock()
	if ec == nil {
		return false
	}
	close(ec.stop)
	<-ec.done
	return true
}

// closeControllers stops every control loop (Registry.Close).
func (r *Registry) closeControllers() {
	r.ctrlMu.Lock()
	ctrls := make([]*entryControl, 0, len(r.ctrls))
	for _, ec := range r.ctrls {
		ctrls = append(ctrls, ec)
	}
	r.ctrls = nil
	r.closedCtrl = true
	r.ctrlMu.Unlock()
	for _, ec := range ctrls {
		close(ec.stop)
		<-ec.done
	}
}

// controlLoop ticks one entry's controller until ClearSLO/Close.
func (r *Registry) controlLoop(ec *entryControl) {
	defer close(ec.done)
	t := time.NewTicker(r.cfg.ControlInterval)
	defer t.Stop()
	for {
		select {
		case <-ec.stop:
			return
		case <-t.C:
			r.controlTick(ec)
		}
	}
}

// controlTick runs one telemetry → decision → actuation pass.
func (r *Registry) controlTick(ec *entryControl) {
	m, err := r.Get(ec.name)
	if err != nil {
		// The entry vanished (registry closing); the loop will be
		// stopped by closeControllers.
		return
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if ec.ctrl == nil {
		return
	}
	if m.version != ec.boundVersion {
		// A hot-swap published a new version. Telemetry restarts with
		// the fresh model's window; the controller state carries over
		// unless the graph's depth changed, in which case the ladder
		// no longer matches and is rebuilt from rung 0.
		if m.graph.MaxDepth() != ec.boundDepth {
			if err := ec.bind(m, ec.ctrl.SLO(), r.cfg.ControlInterval); err != nil {
				// The new shape leaves nothing to actuate; park at
				// identity until the SLO is re-targeted.
				m.controlled.Store(nil)
				return
			}
		}
		ec.boundVersion = m.version
		// The successor copied the old model's sink at swap, but re-assert
		// it in case attach raced the publication.
		m.alert.Store(ec.sink)
	}
	snap := m.window.Snapshot()
	sample := control.Sample{
		P99LatencyMS: snap.P99LatencyMS,
		QueueFrac:    float64(m.pool.depth()) / float64(r.cfg.QueueDepth),
		MeanEnergyPJ: snap.MeanEnergyPJ,
		Images:       snap.Images,
		Arrivals:     snap.Arrivals,
	}
	dec := ec.ctrl.Step(sample)
	ec.lastSnap, ec.lastSample = snap, sample
	m.ctrlRung.Store(int32(dec.Rung))
	if dec.Action == control.ActionShallow {
		// The controller just degraded service to protect the SLO —
		// freeze the flight evidence that drove it before the ring
		// churns past the offending requests.
		m.flight.Snapshot("rung_down", m.name, dec.Rung, snap.P99LatencyMS, time.Now().UnixNano())
	}
	// Publish only on change so the shared pointer stays stable between
	// actions (cross-request batch grouping is by pointer first).
	cur := m.controlled.Load()
	if cur == nil || !cur.Equal(dec.Policy) {
		p := dec.Policy
		m.controlled.Store(&p)
	}
}

// AlertReport assembles the serve tier's /alertz document: one
// AlertStatus per entry with an attached monitor, plus the rolled-up
// page signal.
func (r *Registry) AlertReport() control.AlertzReport {
	rep := control.AlertzReport{Tier: "serve", Models: make(map[string]control.AlertStatus)}
	for _, m := range r.Models() {
		sink := m.alert.Load()
		if sink == nil {
			continue
		}
		st := sink.mon.Status()
		rep.Models[m.name] = st
		if st.Active {
			rep.Active = true
		}
	}
	return rep
}

// ControlStatus is the controller's observable state: the /slo GET body
// and the /statsz "control" section.
type ControlStatus struct {
	Model string      `json:"model"`
	SLO   control.SLO `json:"slo"`
	// Rung/MaxRung locate the current policy on the actuation ladder
	// (0 = trained behaviour).
	Rung    int `json:"rung"`
	MaxRung int `json:"max_rung"`
	// Delta is the effective confidence threshold (the trained δ unless
	// a request overrides it — the controller never moves δ, see
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
	Window control.Snapshot `json:"window"`
}

// controlStatus assembles the status for entry name, or nil when no
// controller is attached.
func (r *Registry) controlStatus(name string) *ControlStatus {
	if m, err := r.Get(name); err == nil {
		name = m.Name()
	}
	r.ctrlMu.Lock()
	ec := r.ctrls[name]
	r.ctrlMu.Unlock()
	if ec == nil {
		return nil
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if ec.ctrl == nil {
		return nil
	}
	st := ec.ctrl.State()
	delta := st.Policy.Delta
	if delta < 0 {
		if m, err := r.Get(name); err == nil {
			delta = m.cdln.Delta
		}
	}
	return &ControlStatus{
		Model:       ec.name,
		SLO:         st.SLO,
		Rung:        st.Rung,
		MaxRung:     st.MaxRung,
		Delta:       delta,
		MaxExit:     st.Policy.MaxExit,
		LastAction:  string(st.LastAction),
		Ticks:       st.Ticks,
		Violations:  st.Violations,
		RecoverHold: st.RecoverHold,
		QueueFrac:   ec.lastSample.QueueFrac,
		Window:      ec.lastSnap,
	}
}

// SLOResponse is the GET/PUT /v2/models/{model}/slo payload: the
// attached SLO (null when none) and the controller's live state.
type SLOResponse struct {
	Model   string         `json:"model"`
	SLO     *control.SLO   `json:"slo,omitempty"`
	Control *ControlStatus `json:"control,omitempty"`
}

func (s *Server) handleSLOGet(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r.PathValue("model"))
	if !ok {
		return
	}
	resp := SLOResponse{Model: m.Name()}
	if st := s.reg.controlStatus(m.Name()); st != nil {
		resp.SLO, resp.Control = &st.SLO, st
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSLOPut(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r.PathValue("model"))
	if !ok {
		return
	}
	var slo control.SLO
	if rerr := decodeBody(w, r, http.MethodPut, 1<<16, &slo); rerr != nil {
		WriteError(w, rerr.status, rerr.msg)
		return
	}
	if err := s.reg.SetSLO(m.Name(), slo); err != nil {
		status := http.StatusBadRequest
		if err == ErrClosed {
			status = http.StatusServiceUnavailable
		}
		WriteError(w, status, err.Error())
		return
	}
	resp := SLOResponse{Model: m.Name(), SLO: &slo}
	if st := s.reg.controlStatus(m.Name()); st != nil {
		resp.Control = st
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSLODelete(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r.PathValue("model"))
	if !ok {
		return
	}
	if !s.reg.ClearSLO(m.Name()) {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("model %q has no SLO attached", m.Name()))
		return
	}
	WriteJSON(w, http.StatusOK, SLOResponse{Model: m.Name()})
}
