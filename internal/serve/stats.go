package serve

import (
	"sync"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/energy"
)

// shedCause distinguishes why a request was rejected with 503 — load
// generators and the SLO controller treat a full queue (back off and
// retry) differently from a draining server (fail over) or reload churn
// (transient).
type shedCause int

const (
	shedQueueFull shedCause = iota
	shedClosed
	shedChurn
)

// metrics aggregates live serving statistics: request/image counters, the
// exit distribution, dynamic OPS, the 45 nm energy counters and the
// queue/service latency histograms. Workers update it once per
// micro-batch (observeBatch), so the mutex is taken per batch rather than
// per image.
type metrics struct {
	mu        sync.Mutex
	started   time.Time
	requests  int64 // guarded by mu; classify + resume requests admitted
	resumes   int64 // guarded by mu; resume requests admitted (edge offloads)
	rejected  int64 // guarded by mu; 503s (queue full / shutting down / reload churn)
	rejFull   int64 // guarded by mu; 503s from a full work queue
	rejClosed int64 // guarded by mu; 503s from a draining/closed pool
	rejChurn  int64 // guarded by mu; 503s from hot-swap churn outrunning dispatch retries
	invalid   int64 // guarded by mu; 4xx classify/resume requests
	cancelled int64 // guarded by mu; requests whose context died before completion
	images    int64 // guarded by mu

	exitNames   []string // immutable after construction
	exitCounts  []int64  // guarded by mu
	totalOps    float64  // guarded by mu
	baselineOps float64
	// acc's pointer is immutable; its counters are mutated and read under
	// mu (observeBatch / snapshot / promInto take the same critical
	// section).
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

func (m *metrics) observeRequest() {
	m.mu.Lock()
	m.requests++
	m.mu.Unlock()
}

func (m *metrics) observeResume() {
	m.mu.Lock()
	m.resumes++
	m.mu.Unlock()
}

func (m *metrics) observeRejected(cause shedCause) {
	m.mu.Lock()
	m.rejected++
	switch cause {
	case shedQueueFull:
		m.rejFull++
	case shedClosed:
		m.rejClosed++
	case shedChurn:
		m.rejChurn++
	}
	m.mu.Unlock()
}

func (m *metrics) observeInvalid() {
	m.mu.Lock()
	m.invalid++
	m.mu.Unlock()
}

func (m *metrics) observeCancelled() {
	m.mu.Lock()
	m.cancelled++
	m.mu.Unlock()
}

// observeBatch charges one classified micro-batch to the counters. Jobs
// dropped for a dead context carry no record and are skipped.
func (m *metrics) observeBatch(batch []*job) {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range batch {
		if j.cancelled {
			continue
		}
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

// SummarizeLatency folds a latency histogram into the wire shape — shared
// with the edge front, which keeps its own histogram over the split
// pipeline (local exits and cloud round trips alike).
func SummarizeLatency(h *control.Histogram) LatencyStats {
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
	// ResumeRequests counts the admitted /v1/resume requests — traffic
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
	Cancelled  int64 `json:"cancelled"`
	Images     int64 `json:"images"`
	QueueDepth int   `json:"queue_depth"`
	Workers    int   `json:"workers"`

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

	// Control is the attached SLO controller's state (absent when the
	// entry has no SLO).
	Control *ControlStatus `json:"control,omitempty"`
}

// snapshot assembles a Stats under the lock.
func (m *metrics) snapshot(queueDepth, workers int) Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		UptimeSeconds:     time.Since(m.started).Seconds(),
		Requests:          m.requests,
		ResumeRequests:    m.resumes,
		Rejected:          m.rejected,
		RejectedQueueFull: m.rejFull,
		RejectedClosed:    m.rejClosed,
		RejectedChurn:     m.rejChurn,
		Invalid:           m.invalid,
		Cancelled:         m.cancelled,
		Images:            m.images,
		QueueDepth:        queueDepth,
		Workers:           workers,
		QueueLatency:      SummarizeLatency(m.queueLat),
		ServiceLatency:    SummarizeLatency(m.serviceLat),
		TotalLatency:      SummarizeLatency(m.totalLat),
		BaselineOps:       m.baselineOps,
		Exits:             make([]ExitStat, len(m.exitNames)),
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
	}
	if len(m.nodeNames) > 1 {
		s.Branches = make([]BranchStat, len(m.nodeNames))
		ops := make([]float64, len(m.nodeNames))
		pj := make([]float64, len(m.nodeNames))
		for ni, name := range m.nodeNames {
			s.Branches[ni].Name = name
		}
		for e, cnt := range m.exitCounts {
			ni := m.exitNode[e]
			s.Branches[ni].Count += cnt
			ops[ni] += float64(cnt) * m.exitOps[e]
			pj[ni] += float64(cnt) * m.acc.ExitEnergy(e)
		}
		for ni := range s.Branches {
			if n := s.Branches[ni].Count; n > 0 {
				s.Branches[ni].MeanOps = ops[ni] / float64(n)
				s.Branches[ni].MeanEnergyPJ = pj[ni] / float64(n)
			}
			if m.images > 0 {
				s.Branches[ni].Fraction = float64(s.Branches[ni].Count) / float64(m.images)
			}
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
