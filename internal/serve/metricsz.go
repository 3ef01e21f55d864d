package serve

// metricsz.go is the Prometheus-text exposition of the serving stack's
// live counters: GET /metricsz renders every registry entry's metrics —
// request/shed counters, the exit-depth distribution, per-branch ops and
// energy, the latency histograms and the SLO controller's rung — in text
// format 0.0.4, built from the same state /statsz reports. Per-model
// sections are snapshot-consistent: each model's counters are read under
// its metrics lock in one critical section, so a scrape racing a classify
// storm never shows a request whose images are missing.
//
// Cardinality policy: label values come only from the model's own shape —
// entry names, graph node names, exit names, shed causes, profiling phases
// — never from request content, so series count is bounded by the
// registry. Histograms are exported at 1/8 of the native resolution (~20
// log-spaced buckets from 1µs to 60s, ~2.6× growth) to keep the scrape
// small without losing the tail.

import (
	"net/http"
	"time"

	"cdl/internal/control"
	"cdl/internal/obs"
)

// histExportStep merges this many adjacent native histogram buckets per
// exported bucket (see control.Histogram.Export).
const histExportStep = 8

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	p := obs.NewProm()
	p.Gauge("cdl_build_info", "Build identity (constant 1; the identity lives in the labels).", obs.BuildInfoLabels("serve"), 1)
	p.Gauge("cdl_uptime_seconds", "Seconds since the server started.", nil, time.Since(s.started).Seconds())
	p.Gauge("cdl_tracing_enabled", "Whether request tracing is on (1) or off (0).", nil, boolGauge(obs.Enabled()))
	p.Gauge("cdl_flight_enabled", "Whether the flight recorder is on (1) or off (0).", nil, boolGauge(obs.FlightEnabled()))
	if obs.ProfilingEnabled() {
		for _, st := range obs.ProfSnapshot() {
			lbl := obs.Labels{{"phase", st.Name}}
			p.Counter("cdl_phase_time_ms_total", "Cumulative time in each compute phase (im2col, GEMM, epilogue, classifier) while profiling is enabled.", lbl, st.TotalMS)
			p.Counter("cdl_phase_calls_total", "Invocations of each profiled compute phase.", lbl, float64(st.Calls))
		}
	}
	for _, m := range s.reg.Models() {
		// Controller state comes from the control mutex domain — fetch it
		// before entering the metrics critical section.
		ctrl := s.reg.controlStatus(m.name)
		m.metrics.promInto(p, m.name, m.version, m.pool.depth(), m.workers, ctrl)
		promAlert(p, m.name, m.alert.Load())
		promFlight(p, m.name, m.flight)
	}
	w.Header().Set("Content-Type", obs.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = p.WriteTo(w)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// promAlert renders one model's burn-rate monitor (entries without an
// attached SLO export nothing — absence is the "unmonitored" signal).
func promAlert(p *obs.Prom, name string, sink *alertSink) {
	if sink == nil {
		return
	}
	st := sink.mon.Status()
	model := obs.Labels{{"model", name}}
	p.Gauge("cdl_alert_active", "Whether any burn-rate window is firing for this model (the page signal).", model, boolGauge(st.Active))
	p.Gauge("cdl_alert_fast_burn_rate", "Error-budget burn rate over the fast window (1.0 = exactly on budget).", model, st.Fast.BurnRate)
	p.Gauge("cdl_alert_slow_burn_rate", "Error-budget burn rate over the slow window.", model, st.Slow.BurnRate)
	p.Gauge("cdl_alert_error_budget", "Tolerated bad-request fraction.", model, st.ErrorBudget)
	p.Counter("cdl_alert_bad_total", "Requests that burned error budget (latency above target, or shed).", model, float64(st.TotalBad))
	p.Counter("cdl_alert_good_total", "Requests that met the latency target.", model, float64(st.TotalGood))
}

// promFlight renders one model's flight-recorder retention counters.
func promFlight(p *obs.Prom, name string, f *obs.FlightRecorder) {
	if f == nil {
		return
	}
	st := f.Stats()
	model := obs.Labels{{"model", name}}
	p.Counter("cdl_flight_seen_total", "Requests offered to the flight recorder.", model, float64(st.Seen))
	p.Counter("cdl_flight_anomalous_total", "Requests tail-retained with full span trees.", model, float64(st.Anomalous))
	p.Gauge("cdl_flight_buffered", "Records currently live in the flight ring.", model, float64(st.Buffered))
}

// promInto renders one model's counters into the exposition. Everything
// guarded by the metrics mutex is read in a single critical section; the
// controller status was snapshotted by the caller.
func (m *metrics) promInto(p *obs.Prom, name string, version, queueDepth, workers int, ctrl *ControlStatus) {
	model := obs.Labels{{"model", name}}
	cause := func(c string) obs.Labels { return obs.Labels{{"model", name}, {"cause", c}} }

	m.mu.Lock()
	defer m.mu.Unlock()

	p.Gauge("cdl_model_version", "Version of the entry currently serving this name (bumps on hot-swap).", model, float64(version))
	p.Counter("cdl_requests_total", "Admitted classify and resume requests.", model, float64(m.requests))
	p.Counter("cdl_resume_requests_total", "Admitted resume requests (edge-offloaded activations; included in cdl_requests_total).", model, float64(m.resumes))
	p.Counter("cdl_images_total", "Images classified.", model, float64(m.images))
	p.Counter("cdl_rejected_total", "Requests shed with 503 + Retry-After, by cause.", cause("queue_full"), float64(m.rejFull))
	p.Counter("cdl_rejected_total", "", cause("closed"), float64(m.rejClosed))
	p.Counter("cdl_rejected_total", "", cause("churn"), float64(m.rejChurn))
	p.Counter("cdl_invalid_requests_total", "Requests rejected with 4xx.", model, float64(m.invalid))
	p.Counter("cdl_cancelled_requests_total", "Requests whose context died before completion.", model, float64(m.cancelled))
	p.Gauge("cdl_queue_depth", "Jobs waiting in the bounded work queue right now.", model, float64(queueDepth))
	p.Gauge("cdl_workers", "Replica workers draining this model's queue.", model, float64(workers))

	// Exit-depth distribution with each exit's energy cost: together these
	// are the paper's conditional-depth story as time series.
	energies := m.acc.ExitEnergies()
	for e, en := range m.exitNames {
		lbl := obs.Labels{{"model", name}, {"exit", en}}
		p.Counter("cdl_exit_images_total", "Images resolved at each exit point (the exit-depth distribution).", lbl, float64(m.exitCounts[e]))
		p.Gauge("cdl_exit_energy_pj", "45 nm energy cost of resolving an image at this exit (pJ).", lbl, energies[e])
	}

	// Per-branch aggregation (trunk-only for linear cascades): images that
	// resolved on each routing-graph node and their cumulative whole-path
	// ops and energy, so rate() yields per-branch ops/s and pJ/s.
	branchImages := make([]int64, len(m.nodeNames))
	branchOps := make([]float64, len(m.nodeNames))
	branchPJ := make([]float64, len(m.nodeNames))
	for e, cnt := range m.exitCounts {
		ni := m.exitNode[e]
		branchImages[ni] += cnt
		branchOps[ni] += float64(cnt) * m.exitOps[e]
		branchPJ[ni] += float64(cnt) * energies[e]
	}
	for ni, bn := range m.nodeNames {
		lbl := obs.Labels{{"model", name}, {"branch", bn}}
		p.Counter("cdl_branch_images_total", "Images resolved on each routing-graph node.", lbl, float64(branchImages[ni]))
		p.Counter("cdl_branch_ops_total", "Cumulative dynamic operations of images resolved on each node (whole root-to-exit path).", lbl, branchOps[ni])
		p.Counter("cdl_branch_energy_pj_total", "Cumulative 45 nm energy (pJ) of images resolved on each node.", lbl, branchPJ[ni])
	}

	meanOps, meanPJ, normOps := 0.0, 0.0, 0.0
	if m.images > 0 {
		meanOps = m.totalOps / float64(m.images)
		meanPJ = m.acc.MeanEnergy()
		if m.baselineOps > 0 {
			normOps = meanOps / m.baselineOps
		}
	}
	p.Gauge("cdl_ops_per_image", "Mean dynamic operations per classified image.", model, meanOps)
	p.Gauge("cdl_normalized_ops", "Mean ops per image over one full baseline pass (1.0 = no early-exit benefit).", model, normOps)
	p.Gauge("cdl_energy_pj_per_image", "Mean 45 nm energy per classified image (pJ).", model, meanPJ)
	p.Gauge("cdl_baseline_ops", "Dynamic operations of one unconditioned baseline pass.", model, m.baselineOps)
	p.Gauge("cdl_baseline_energy_pj", "45 nm energy of one unconditioned baseline pass (pJ).", model, m.acc.BaselineEnergy())

	promHistogram(p, "cdl_queue_latency_ms", "Per-image queue wait (enqueue to micro-batch start), milliseconds.", model, m.queueLat)
	promHistogram(p, "cdl_service_latency_ms", "Per-image micro-batch service time, milliseconds.", model, m.serviceLat)
	promHistogram(p, "cdl_total_latency_ms", "Per-image end-to-end latency inside the pool, milliseconds.", model, m.totalLat)

	if ctrl != nil {
		p.Gauge("cdl_control_rung", "SLO controller's current actuation rung (0 = trained behaviour).", model, float64(ctrl.Rung))
		p.Gauge("cdl_control_max_rung", "Deepest actuation rung the controller may take.", model, float64(ctrl.MaxRung))
		p.Gauge("cdl_control_delta", "Effective confidence threshold under the controller.", model, ctrl.Delta)
		p.Gauge("cdl_control_max_exit", "Current depth cap (-1 = none).", model, float64(ctrl.MaxExit))
		p.Gauge("cdl_control_queue_frac", "Queue occupancy at the controller's last tick.", model, ctrl.QueueFrac)
		p.Counter("cdl_control_violations_total", "Controller ticks that observed an SLO violation.", model, float64(ctrl.Violations))
	}
}

// promHistogram exports one lifetime latency histogram. Callers hold the
// lock guarding its Observe calls.
func promHistogram(p *obs.Prom, name, help string, labels obs.Labels, h *control.Histogram) {
	bounds, counts, sum, total := h.Export(histExportStep)
	p.Histogram(name, help, labels, bounds, counts, sum, total)
}
