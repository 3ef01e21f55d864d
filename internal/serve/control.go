// control.go wires the SLO controller into the model registry: per-entry
// attachment (SetSLO/ClearSLO) on the entry's control.Plane — which runs
// the feedback loop telemetry → decision → actuation — and the
// /v2/models/{name}/slo admin surface.
//
// Actuation is deliberately narrow: the controller only rewrites the
// *default* policy — the one a request inherits when it carries no
// explicit δ or policy of its own. A request that states its policy
// always wins, so the golden behaviour is untouched and a client that
// needs the trained cascade can pin it per call. The
// controller survives hot-swaps (the plane is keyed by entry name, not
// model version); a swap that changes the graph's depth rebuilds the
// ladder from rung 0.
package serve

import (
	"errors"
	"fmt"
	"net/http"

	"cdl/internal/control"
	"cdl/internal/core"
)

// identityPolicy is the shared inherit target when no controller is
// attached: the model's trained behaviour (a split entry has its own, at
// its δ). Never mutated.
var identityPolicy = core.DefaultExitPolicy()

// servePolicy is the policy a request without an explicit one inherits —
// the controller's current rung, or the identity policy — and its source.
// The returned pointer is shared across requests between controller ticks,
// so the pool's identity-based batch grouping keeps working across
// requests.
func (m *Model) servePolicy() (*core.ExitPolicy, string) {
	if p := m.plane.Policy(); p != nil {
		return p, control.SourceController
	}
	return m.identity, control.SourceDefault
}

// SetSLO attaches (or re-targets) a feedback controller on entry name.
// The controller starts at the identity policy and adapts from the next
// tick; re-attaching resets the controller state but keeps the loop. The
// actuation ladder spans the routing graph's max path depth, so on a
// routed model the deepest rungs shed branch depth before trunk depth.
func (r *Registry) SetSLO(name string, slo control.SLO) error {
	if err := slo.Validate(); err != nil {
		return err
	}
	// Close flips closed under the write lock before it detaches the
	// planes, so a loop started under this read lock is always stopped; and
	// a swap publishes under the write lock, so the ladder is built for the
	// version that is current when the controller attaches.
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return ErrClosed
	}
	m, err := r.getLocked(name)
	if err != nil {
		return err
	}
	name = m.name // resolve "" to the first registered entry
	// Every rung keeps the entry's δ: a split entry's identity has its own.
	ladder := control.Ladder(m.graph.MaxDepth(), slo.AccuracyFloorDelta)
	for i := range ladder {
		ladder[i].Delta = m.identity.Delta
	}
	return m.plane.Attach(slo, ladder, r.cfg.ControlInterval, func() float64 {
		cur, err := r.Get(name)
		if err != nil {
			return 0
		}
		return float64(cur.pool.depth()) / float64(r.cfg.QueueDepth)
	})
}

// ClearSLO detaches entry name's controller and restores the identity
// inherit policy. Reports whether a controller was attached.
func (r *Registry) ClearSLO(name string) bool {
	m, err := r.Get(name)
	return err == nil && m.plane.Detach()
}

// alertReport assembles the serve tier's /alertz document: one
// AlertStatus per entry with an attached monitor, plus the rolled-up page
// signal.
func (r *Registry) alertReport() control.AlertzReport {
	models := r.Models()
	planes := make([]*control.Plane, len(models))
	for i, m := range models {
		planes[i] = m.plane
	}
	return control.Report("serve", planes...)
}

// SLOResponse is the GET/PUT /v2/models/{model}/slo payload: the
// attached SLO (null when none) and the controller's live state.
type SLOResponse struct {
	Model   string          `json:"model"`
	SLO     *control.SLO    `json:"slo,omitempty"`
	Control *control.Status `json:"control,omitempty"`
}

func (s *Server) handleSLOGet(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r.PathValue("model"))
	if !ok {
		return
	}
	resp := SLOResponse{Model: m.Name()}
	if st := m.plane.Status(); st != nil {
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
	if rerr := decodeBody(w, r, http.MethodPut, 1<<16, &slo, nil); rerr != nil {
		WriteError(w, rerr.status, rerr.msg)
		return
	}
	if err := s.reg.SetSLO(m.Name(), slo); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		WriteError(w, status, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, SLOResponse{Model: m.Name(), SLO: &slo, Control: m.plane.Status()})
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
