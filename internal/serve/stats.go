package serve

import (
	"sync"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
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

// metrics aggregates live serving statistics: request/image counters, the
// exit distribution, dynamic OPS, the 45 nm energy counters and the
// queue/service latency histograms. Workers update it once per
// classified group (observeGroup), so the mutex is taken per batch rather
// than per image.
type metrics struct {
	mu        sync.Mutex
	started   time.Time
	requests  int64 // guarded by mu; classify + resume requests admitted
	resumes   int64 // guarded by mu; resume requests admitted (edge offloads)
	rejFull   int64 // guarded by mu; 503s from a full work queue
	rejClosed int64 // guarded by mu; 503s from a draining/closed pool
	rejChurn  int64 // guarded by mu; 503s from hot-swap churn outrunning dispatch retries
	invalid   int64 // guarded by mu; 4xx classify/resume requests
	cloudErr  int64 // guarded by mu; 502s from a split entry's failed walk
	cancelled int64 // guarded by mu; requests whose context died before completion
	images    int64 // guarded by mu

	exitNames   []string // immutable after construction
	exitCounts  []int64  // guarded by mu
	totalOps    float64  // guarded by mu
	baselineOps float64
	// acc's pointer is immutable; its counters are mutated and read under
	// mu (observeGroup and snapshot take the same critical section).
	acc *energy.Accumulator
	// exitNode maps each global exit index to its graph node, exitOps is
	// the per-exit path cost, and nodeNames names the nodes — the
	// per-branch aggregation tables for routed models (len(nodeNames) == 1
	// for a plain linear cascade).
	exitNode  []int
	exitOps   []float64
	nodeNames []string

	// Cumulative latency histograms over every classified image: queue
	// wait (enqueue → micro-batch start), service (batch start → batch
	// done) and their sum. The controller reads the *windowed*
	// counterparts (Model.window); these are the lifetime /statsz view.
	queueLat   *control.Histogram // guarded by mu
	serviceLat *control.Histogram // guarded by mu
	totalLat   *control.Histogram // guarded by mu
}

func newMetrics(g *core.Graph, acc *energy.Accumulator) *metrics {
	m := &metrics{
		started:     time.Now(),
		exitNames:   make([]string, g.NumExits()),
		exitCounts:  make([]int64, g.NumExits()),
		baselineOps: g.BaselineOps(),
		acc:         acc,
		exitNode:    make([]int, g.NumExits()),
		exitOps:     g.ExitOps(),
		nodeNames:   make([]string, len(g.Nodes)),
		queueLat:    control.NewHistogram(),
		serviceLat:  control.NewHistogram(),
		totalLat:    control.NewHistogram(),
	}
	for e := range m.exitNames {
		m.exitNames[e] = g.ExitName(e)
		m.exitNode[e], _ = g.NodeOfExit(e)
	}
	for ni, n := range g.Nodes {
		m.nodeNames[ni] = n.Name
	}
	return m
}

func (m *metrics) observeRequest(resume bool) {
	m.mu.Lock()
	m.requests++
	if resume {
		m.resumes++
	}
	m.mu.Unlock()
}

// observeRefused counts one request that produced no result, by cause.
func (m *metrics) observeRefused(cause string) {
	m.mu.Lock()
	switch cause {
	case causeQueueFull:
		m.rejFull++
	case causeClosed:
		m.rejClosed++
	case causeChurn:
		m.rejChurn++
	case control.CauseInvalid:
		m.invalid++
	case causeCloudError:
		m.cloudErr++
	default:
		m.cancelled++
	}
	m.mu.Unlock()
}

// observeGroup charges one classified group of a micro-batch, finished at
// now, to the counters.
func (m *metrics) observeGroup(group []*job, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range group {
		rec := *j.rec
		m.images++
		m.exitCounts[rec.StageIndex]++
		m.totalOps += rec.Ops
		queueMS := float64(j.started.Sub(j.enqueued)) / float64(time.Millisecond)
		totalMS := float64(now.Sub(j.enqueued)) / float64(time.Millisecond)
		m.queueLat.Observe(queueMS)
		m.serviceLat.Observe(totalMS - queueMS)
		m.totalLat.Observe(totalMS)
		// Records come from a validated session; Add can only fail on a
		// model/accumulator mismatch, which construction rules out.
		_ = m.acc.Add(rec)
	}
}

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

// snapshot reads everything under the lock in one critical section, so a
// scrape racing a classify storm never shows a request whose images are
// missing.
func (m *metrics) snapshot(queueDepth, workers int) snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := snapshot{
		Stats: Stats{
			UptimeSeconds:     time.Since(m.started).Seconds(),
			Requests:          m.requests,
			ResumeRequests:    m.resumes,
			Rejected:          m.rejFull + m.rejClosed + m.rejChurn,
			RejectedQueueFull: m.rejFull,
			RejectedClosed:    m.rejClosed,
			RejectedChurn:     m.rejChurn,
			Invalid:           m.invalid,
			Cancelled:         m.cancelled,
			CloudErrors:       m.cloudErr,
			Images:            m.images,
			QueueDepth:        queueDepth,
			Workers:           workers,
			QueueLatency:      summarizeLatency(m.queueLat),
			ServiceLatency:    summarizeLatency(m.serviceLat),
			TotalLatency:      summarizeLatency(m.totalLat),
			BaselineOps:       m.baselineOps,
			Exits:             make([]ExitStat, len(m.exitNames)),
		},
		nodes:   make([]nodeTotal, len(m.nodeNames)),
		queue:   m.queueLat.Buckets(),
		service: m.serviceLat.Buckets(),
		total:   m.totalLat.Buckets(),
	}
	for ni, name := range m.nodeNames {
		s.nodes[ni].name = name
	}
	for e := range s.Exits {
		s.Exits[e] = ExitStat{
			Name:     m.exitNames[e],
			Count:    m.exitCounts[e],
			EnergyPJ: m.acc.ExitEnergy(e),
		}
		if m.images > 0 {
			s.Exits[e].Fraction = float64(m.exitCounts[e]) / float64(m.images)
		}
		n := &s.nodes[m.exitNode[e]]
		n.images += m.exitCounts[e]
		n.ops += float64(m.exitCounts[e]) * m.exitOps[e]
		n.pj += float64(m.exitCounts[e]) * m.acc.ExitEnergy(e)
	}
	if len(s.nodes) > 1 {
		s.Branches = make([]BranchStat, len(s.nodes))
		for ni, n := range s.nodes {
			b := BranchStat{Name: n.name, Count: n.images}
			if n.images > 0 {
				b.MeanOps = n.ops / float64(n.images)
				b.MeanEnergyPJ = n.pj / float64(n.images)
			}
			if m.images > 0 {
				b.Fraction = float64(n.images) / float64(m.images)
			}
			s.Branches[ni] = b
		}
	}
	sum := m.acc.Summary()
	s.TotalEnergyPJ = m.acc.TotalEnergy()
	s.BaselineEnergyPJ = sum.BaselineEnergy
	if m.images > 0 {
		s.MeanOps = m.totalOps / float64(m.images)
		s.MeanEnergyPJ = m.acc.MeanEnergy()
		if m.baselineOps > 0 {
			s.NormalizedOps = s.MeanOps / m.baselineOps
		}
		if s.NormalizedOps > 0 {
			s.OpsSpeedup = 1 / s.NormalizedOps
		}
		s.NormalizedEnergy = sum.Normalized()
		s.EnergySpeedup = sum.Improvement()
	}
	return s
}
