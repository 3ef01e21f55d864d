package serve

// metricsz.go is the serve tier's share of the Prometheus-text exposition
// (obs.OpsMux owns the route and the shared preamble): every registry
// entry's request/shed counters, exit-depth distribution, per-branch ops
// and energy and latency histograms, rendered from the same snapshot
// /statsz reports, followed by the entry's alert/flight/control families
// from its control.Plane.
//
// Cardinality policy: label values come only from the model's own shape —
// entry names, graph node names, exit names, shed causes, profiling phases
// — never from request content, so series count is bounded by the
// registry.

import "cdl/internal/obs"

// prom renders one snapshot of the model's counters into the exposition.
func (m *Model) prom(p *obs.Prom) {
	s := m.snapshot()
	model := obs.Labels{{"model", m.name}}
	cause := func(c string) obs.Labels { return obs.Labels{{"model", m.name}, {"cause", c}} }

	p.Gauge("cdl_model_version", "Version of the entry currently serving this name (bumps on hot-swap).", model, float64(m.version))
	p.Counter("cdl_requests_total", "Admitted classify and resume requests.", model, float64(s.Requests))
	p.Counter("cdl_resume_requests_total", "Admitted resume requests (edge-offloaded activations; included in cdl_requests_total).", model, float64(s.ResumeRequests))
	p.Counter("cdl_images_total", "Images classified.", model, float64(s.Images))
	p.Counter("cdl_rejected_total", "Requests shed with 503 + Retry-After, by cause.", cause(causeQueueFull), float64(s.RejectedQueueFull))
	p.Counter("cdl_rejected_total", "", cause(causeClosed), float64(s.RejectedClosed))
	p.Counter("cdl_rejected_total", "", cause(causeChurn), float64(s.RejectedChurn))
	p.Counter("cdl_invalid_requests_total", "Requests rejected with 4xx.", model, float64(s.Invalid))
	p.Counter("cdl_cancelled_requests_total", "Requests whose context died before completion.", model, float64(s.Cancelled))
	p.Gauge("cdl_queue_depth", "Jobs waiting in the bounded work queue right now.", model, float64(s.QueueDepth))
	p.Gauge("cdl_workers", "Replica workers draining this model's queue.", model, float64(s.Workers))

	// Exit-depth distribution with each exit's energy cost: together these
	// are the paper's conditional-depth story as time series.
	for _, e := range s.Exits {
		lbl := obs.Labels{{"model", m.name}, {"exit", e.Name}}
		p.Counter("cdl_exit_images_total", "Images resolved at each exit point (the exit-depth distribution).", lbl, float64(e.Count))
		p.Gauge("cdl_exit_energy_pj", "45 nm energy cost of resolving an image at this exit (pJ).", lbl, e.EnergyPJ)
	}
	// Cumulative per-node totals (trunk-only for linear cascades), so rate()
	// yields per-branch ops/s and pJ/s.
	for _, n := range s.nodes {
		lbl := obs.Labels{{"model", m.name}, {"branch", n.name}}
		p.Counter("cdl_branch_images_total", "Images resolved on each routing-graph node.", lbl, float64(n.images))
		p.Counter("cdl_branch_ops_total", "Cumulative dynamic operations of images resolved on each node (whole root-to-exit path).", lbl, n.ops)
		p.Counter("cdl_branch_energy_pj_total", "Cumulative 45 nm energy (pJ) of images resolved on each node.", lbl, n.pj)
	}

	p.Gauge("cdl_ops_per_image", "Mean dynamic operations per classified image.", model, s.MeanOps)
	p.Gauge("cdl_normalized_ops", "Mean ops per image over one full baseline pass (1.0 = no early-exit benefit).", model, s.NormalizedOps)
	p.Gauge("cdl_energy_pj_per_image", "Mean 45 nm energy per classified image (pJ).", model, s.MeanEnergyPJ)
	p.Gauge("cdl_baseline_ops", "Dynamic operations of one unconditioned baseline pass.", model, s.BaselineOps)
	p.Gauge("cdl_baseline_energy_pj", "45 nm energy of one unconditioned baseline pass (pJ).", model, s.BaselineEnergyPJ)

	if t := s.Tier; t != nil {
		// A split entry's tier view: what crossed the link, what it cost
		// there, and the walks the other tier failed.
		p.Gauge("cdl_split_stage", "Trunk stages a split entry walks before it offloads.", model, float64(t.SplitStage))
		p.Counter("cdl_offloads_total", "Images shipped across the link as intermediate activations.", model, float64(t.Offloaded))
		p.Gauge("cdl_offload_fraction", "Fraction of images that crossed the link.", model, t.OffloadFraction)
		p.Counter("cdl_wire_bytes_total", "Encoded payload bytes shipped.", model, float64(t.WireBytes))
		tier := func(n string) obs.Labels { return obs.Labels{{"model", m.name}, {"tier", n}} }
		p.Counter("cdl_tier_energy_pj_total", "Cumulative 45 nm energy by tier (edge compute, link transfer, cloud compute).", tier("edge"), t.EdgePJ)
		p.Counter("cdl_tier_energy_pj_total", "", tier("link"), t.LinkPJ)
		p.Counter("cdl_tier_energy_pj_total", "", tier("cloud"), t.CloudPJ)
		p.Counter("cdl_cloud_errors_total", "Requests answered 502 because their group's walk failed on the other tier.", model, float64(s.CloudErrors))
	}

	p.Histogram("cdl_queue_latency_ms", "Per-image queue wait (enqueue to micro-batch start), milliseconds.", model, s.queue.Bounds, s.queue.Counts, s.queue.Sum, s.queue.Count)
	p.Histogram("cdl_service_latency_ms", "Per-image micro-batch service time, milliseconds.", model, s.service.Bounds, s.service.Counts, s.service.Sum, s.service.Count)
	p.Histogram("cdl_total_latency_ms", "Per-image end-to-end latency inside the pool, milliseconds.", model, s.total.Bounds, s.total.Counts, s.total.Sum, s.total.Count)

	m.plane.Prom(p, model)
}
