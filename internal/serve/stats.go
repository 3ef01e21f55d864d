package serve

import (
	"time"

	"cdl/internal/control"
	"cdl/internal/energy"
)

// Reject causes of a request that produced no result. The three shed
// causes — a full queue (back off and retry), a draining server (fail
// over), reload churn (transient) — ship 503 + Retry-After; the rest are
// the client's: a malformed request (control.CauseInvalid), or a context
// that died first.
const (
	causeQueueFull = "queue_full"
	causeClosed    = "closed"
	causeChurn     = "churn"
	causeCancelled = "cancelled"
)

// ExitStat is one exit point's share of the served traffic.
type ExitStat struct {
	Name     string  `json:"name"`
	Count    int64   `json:"count"`
	Fraction float64 `json:"fraction"`
	EnergyPJ float64 `json:"energy_pj"`
}

// BranchStat aggregates the exit distribution by routing-graph node: how
// much of the served traffic resolved on the trunk versus each branch
// subnetwork, and what it cost there. Present in /statsz only for routed
// models (a linear cascade is all trunk).
type BranchStat struct {
	Name     string  `json:"name"`
	Count    int64   `json:"count"`
	Fraction float64 `json:"fraction"`
	// MeanOps/MeanEnergyPJ are per image resolved on this node (whole-path
	// cost, trunk prefix included).
	MeanOps      float64 `json:"mean_ops"`
	MeanEnergyPJ float64 `json:"mean_energy_pj"`
}

// LatencyStats summarizes one latency histogram in milliseconds.
type LatencyStats struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// summarizeLatency folds a latency histogram into the wire shape.
func summarizeLatency(h *control.Histogram) LatencyStats {
	return LatencyStats{
		Count:  h.Count(),
		MeanMS: h.Mean(),
		P50MS:  h.Quantile(0.50),
		P95MS:  h.Quantile(0.95),
		P99MS:  h.Quantile(0.99),
	}
}

// Stats is the /statsz payload: a consistent snapshot of the counters.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	// ResumeRequests counts the admitted resume requests — traffic
	// arriving as edge-offloaded intermediate activations rather than raw
	// images (already included in Requests).
	ResumeRequests int64 `json:"resume_requests"`
	Rejected       int64 `json:"rejected"`
	// The per-cause breakdown of Rejected: a full work queue (back off
	// and retry), a draining server (fail over), hot-swap churn
	// (transient). All three ship a Retry-After header.
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedClosed    int64 `json:"rejected_closed"`
	RejectedChurn     int64 `json:"rejected_churn"`
	Invalid           int64 `json:"invalid"`
	// Cancelled counts requests whose context was cancelled or timed out
	// before classification completed (dropped before burning a replica
	// when the cancellation beat the worker to the job).
	Cancelled int64 `json:"cancelled"`
	// CloudErrors counts a split entry's requests answered 502 because
	// the walk of a group they were in failed on the other tier.
	CloudErrors int64 `json:"cloud_errors,omitempty"`
	Images      int64 `json:"images"`
	QueueDepth  int   `json:"queue_depth"`
	Workers     int   `json:"workers"`

	// Per-image latency over the server's lifetime, split into queue
	// wait and micro-batch service time (TotalLatency is their sum as
	// observed end to end inside the pool).
	QueueLatency   LatencyStats `json:"queue_latency"`
	ServiceLatency LatencyStats `json:"service_latency"`
	TotalLatency   LatencyStats `json:"total_latency"`

	Exits []ExitStat `json:"exits"`
	// Branches is the exit distribution aggregated by routing-graph node
	// (trunk + branch subnetworks); absent for linear cascades.
	Branches []BranchStat `json:"branches,omitempty"`

	MeanOps       float64 `json:"mean_ops"`
	BaselineOps   float64 `json:"baseline_ops"`
	NormalizedOps float64 `json:"normalized_ops"`
	OpsSpeedup    float64 `json:"ops_improvement_x"`

	MeanEnergyPJ     float64 `json:"mean_energy_pj"`
	TotalEnergyPJ    float64 `json:"total_energy_pj"`
	BaselineEnergyPJ float64 `json:"baseline_energy_pj"`
	NormalizedEnergy float64 `json:"normalized_energy"`
	EnergySpeedup    float64 `json:"energy_improvement_x"`

	// Tier is a split entry's tiered view, derived from its exit counts:
	// offload fraction, wire bytes and edge/link/cloud pJ (absent for
	// other entries).
	Tier *energy.TieredSummary `json:"tier,omitempty"`

	// Control is the attached SLO controller's state (absent when the
	// entry has no SLO).
	Control *control.Status `json:"control,omitempty"`
}

// snapshot is one consistent read of a model's counters: the /statsz
// document plus what only /metricsz renders — the per-node totals (trunk
// row of a linear cascade included) and the histogram buckets. Both views
// render from it, so they derive every aggregate once and cannot disagree.
type snapshot struct {
	Stats
	nodes                 []nodeTotal
	queue, service, total control.Buckets
}

// nodeTotal is one routing-graph node's share: the images that resolved on
// it and their cumulative whole-path ops and energy.
type nodeTotal struct {
	name    string
	images  int64
	ops, pj float64
}

// snapshot renders one consistent copy of the version's lifetime horizon
// (control.Plane.Lifetime), the one fold of its served and refused
// requests. Every ops and pJ aggregate is a sum of exit counts times the
// exit's price (exitOps, exitPJ), taken in exit order when read
// (Lifetime.Cost), so it has the same bits whatever order the images were
// served in.
func (m *Model) snapshot() snapshot {
	life := m.plane.Lifetime(m.version, len(m.exitOps))
	s := snapshot{
		Stats: Stats{
			UptimeSeconds:     time.Since(life.Since).Seconds(),
			Requests:          life.Requests,
			ResumeRequests:    life.Resumes,
			RejectedQueueFull: life.Refused[causeQueueFull],
			RejectedClosed:    life.Refused[causeClosed],
			RejectedChurn:     life.Refused[causeChurn],
			Invalid:           life.Refused[control.CauseInvalid],
			Cancelled:         life.Refused[causeCancelled] + life.Refused[control.CauseDeadline],
			CloudErrors:       life.Refused[causeCloudError],
			Images:            life.Images,
			QueueDepth:        m.pool.depth(),
			Workers:           m.workers,
			QueueLatency:      summarizeLatency(life.Queue),
			ServiceLatency:    summarizeLatency(life.Service),
			TotalLatency:      summarizeLatency(life.Total),
			BaselineOps:       m.baselineOps,
			BaselineEnergyPJ:  m.baselinePJ,
			Exits:             make([]ExitStat, len(m.exitOps)),
			Control:           m.plane.Status(),
		},
		nodes:   make([]nodeTotal, len(m.graph.Nodes)),
		queue:   life.Queue.Buckets(),
		service: life.Service.Buckets(),
		total:   life.Total.Buckets(),
	}
	s.Rejected = s.RejectedQueueFull + s.RejectedClosed + s.RejectedChurn
	for ni, n := range m.graph.Nodes {
		s.nodes[ni].name = n.Name
	}
	for e, count := range life.Exits {
		s.Exits[e] = ExitStat{Name: m.graph.ExitName(e), Count: count, EnergyPJ: m.exitPJ[e]}
		if life.Images > 0 {
			s.Exits[e].Fraction = float64(count) / float64(life.Images)
		}
		ni, _ := m.graph.NodeOfExit(e)
		n := &s.nodes[ni]
		n.images += count
		n.ops += float64(count) * m.exitOps[e]
		n.pj += float64(count) * m.exitPJ[e]
	}
	s.TotalEnergyPJ = life.Cost(m.exitPJ)
	if len(s.nodes) > 1 {
		s.Branches = make([]BranchStat, len(s.nodes))
		for ni, n := range s.nodes {
			b := BranchStat{Name: n.name, Count: n.images}
			if n.images > 0 {
				b.MeanOps = n.ops / float64(n.images)
				b.MeanEnergyPJ = n.pj / float64(n.images)
			}
			if life.Images > 0 {
				b.Fraction = float64(n.images) / float64(life.Images)
			}
			s.Branches[ni] = b
		}
	}
	if life.Images > 0 {
		s.MeanOps = life.Cost(m.exitOps) / float64(life.Images)
		s.MeanEnergyPJ = s.TotalEnergyPJ / float64(life.Images)
		if m.baselineOps > 0 {
			s.NormalizedOps = s.MeanOps / m.baselineOps
		}
		if s.NormalizedOps > 0 {
			s.OpsSpeedup = 1 / s.NormalizedOps
		}
		sum := energy.Summary{MeanEnergy: s.MeanEnergyPJ, BaselineEnergy: m.baselinePJ}
		s.NormalizedEnergy = sum.Normalized()
		s.EnergySpeedup = sum.Improvement()
	}
	if m.split != nil {
		tier := m.split.Costs.Summary(life.Exits, m.split.WireBytes)
		s.Tier = &tier
	}
	return s
}
