package control

// alert.go is the multi-window burn-rate monitor over the serving
// telemetry: every finished request is classified good or bad (latency
// above the SLO's p99 target, or shed outright), and the monitor tracks
// how fast the error budget burns over two windows at once — a short
// window with a high threshold that pages quickly on a real breach, and a
// long window with a low threshold that catches slow leaks without
// flapping on transients. This is the SRE burn-rate construction: burn
// rate = bad fraction / error budget, so burn 1.0 spends exactly the
// budget over the window and burn 14 exhausts it 14× too fast. /alertz
// renders the state; cdl_alert_* gauges ride /metricsz; the router
// aggregates its backends' /alertz into one fleet view.

import (
	"sync"
	"time"
)

// AlertConfig shapes a monitor. Zero values take defaults.
type AlertConfig struct {
	// ErrorBudget is the tolerated bad-request fraction. Default 0.01.
	ErrorBudget float64
	// FastWindow/SlowWindow are the two burn measurement spans. Defaults
	// 1m and 10m. The slow window also bounds the bucket ring's reach.
	FastWindow time.Duration
	SlowWindow time.Duration
	// FastBurn/SlowBurn are the firing thresholds (multiples of budget
	// burn). Defaults 14 and 2 — the classic page/ticket split.
	FastBurn float64
	SlowBurn float64
	// MinSamples suppresses burn evaluation until a window holds this
	// many requests, so an idle model never pages on its first straggler.
	// Default 12.
	MinSamples int64
	// Buckets is the ring granularity over SlowWindow. Default 120.
	Buckets int
	// HistoryCap bounds the retained activation/clear transitions (the
	// alert timeline). Default 64.
	HistoryCap int
	// Now injects a clock for deterministic tests. Default time.Now.
	Now func() time.Time
}

func (c AlertConfig) withDefaults() AlertConfig {
	if c.ErrorBudget <= 0 {
		c.ErrorBudget = 0.01
	}
	if c.FastWindow <= 0 {
		c.FastWindow = time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 10 * time.Minute
	}
	if c.SlowWindow < c.FastWindow {
		c.SlowWindow = c.FastWindow
	}
	if c.FastBurn <= 0 {
		c.FastBurn = 14
	}
	if c.SlowBurn <= 0 {
		c.SlowBurn = 2
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 12
	}
	if c.Buckets <= 0 {
		c.Buckets = 120
	}
	if c.HistoryCap <= 0 {
		c.HistoryCap = 64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// alertBucket is one ring slot's good/bad tally.
type alertBucket struct {
	startNS int64
	good    int64
	bad     int64
}

// AlertTransition is one timeline entry: an alert activating or clearing.
type AlertTransition struct {
	Alert    string  `json:"alert"` // "fast" | "slow"
	Active   bool    `json:"active"`
	AtUnixNS int64   `json:"at_unix_ns"`
	BurnRate float64 `json:"burn_rate"`
}

// AlertWindowStatus is one window's live view.
type AlertWindowStatus struct {
	WindowSec   float64 `json:"window_sec"`
	Threshold   float64 `json:"threshold"`
	BurnRate    float64 `json:"burn_rate"`
	BadFrac     float64 `json:"bad_frac"`
	Good        int64   `json:"good"`
	Bad         int64   `json:"bad"`
	Active      bool    `json:"active"`
	SinceUnixNS int64   `json:"since_unix_ns,omitempty"`
}

// AlertStatus is the /alertz document for one monitored model.
type AlertStatus struct {
	ErrorBudget float64           `json:"error_budget"`
	Fast        AlertWindowStatus `json:"fast"`
	Slow        AlertWindowStatus `json:"slow"`
	// Active is the page signal: true while either window burns above its
	// threshold.
	Active    bool              `json:"active"`
	TotalGood int64             `json:"total_good"`
	TotalBad  int64             `json:"total_bad"`
	History   []AlertTransition `json:"history,omitempty"`
}

// AlertMonitor tracks good/bad counts in a bucketed ring spanning the
// slow window and evaluates both burn rates on every observe and read.
// All state sits behind one mutex: the serving path calls Observe once
// per micro-batch (not per image), so contention is negligible next to
// the inference work.
type AlertMonitor struct {
	cfg       AlertConfig
	bucketDur time.Duration

	mu         sync.Mutex
	buckets    []alertBucket // guarded by mu
	fastActive bool          // guarded by mu
	slowActive bool          // guarded by mu
	fastSince  int64         // guarded by mu; unix nanos
	slowSince  int64         // guarded by mu
	history    []AlertTransition
	totalGood  int64 // guarded by mu
	totalBad   int64 // guarded by mu
}

// NewAlertMonitor returns an idle monitor.
func NewAlertMonitor(cfg AlertConfig) *AlertMonitor {
	cfg = cfg.withDefaults()
	return &AlertMonitor{
		cfg:       cfg,
		bucketDur: cfg.SlowWindow / time.Duration(cfg.Buckets),
		buckets:   make([]alertBucket, cfg.Buckets),
	}
}

// Observe feeds one batch of finished requests: good met the target, bad
// burned budget (latency above target, or shed).
func (m *AlertMonitor) Observe(good, bad int64) {
	if m == nil || (good <= 0 && bad <= 0) {
		return
	}
	now := m.cfg.Now()
	m.mu.Lock()
	b := m.bucket(now)
	if good > 0 {
		b.good += good
		m.totalGood += good
	}
	if bad > 0 {
		b.bad += bad
		m.totalBad += bad
	}
	m.evaluate(now)
	m.mu.Unlock()
}

// bucket locates (and if stale, resets) the ring slot for now. Caller
// holds mu.
func (m *AlertMonitor) bucket(now time.Time) *alertBucket {
	aligned := now.UnixNano() / int64(m.bucketDur) * int64(m.bucketDur)
	idx := int((aligned / int64(m.bucketDur)) % int64(len(m.buckets)))
	if idx < 0 {
		idx += len(m.buckets)
	}
	b := &m.buckets[idx]
	if b.startNS != aligned {
		*b = alertBucket{startNS: aligned}
	}
	return b
}

// windowCounts sums the ring over the trailing span. Caller holds mu.
func (m *AlertMonitor) windowCounts(now time.Time, span time.Duration) (good, bad int64) {
	cut := now.Add(-span).UnixNano()
	nowNS := now.UnixNano()
	for i := range m.buckets {
		b := &m.buckets[i]
		if b.startNS == 0 || b.startNS+int64(m.bucketDur) <= cut || b.startNS > nowNS {
			continue
		}
		good += b.good
		bad += b.bad
	}
	return good, bad
}

// burn computes one window's burn rate; below MinSamples the burn is 0
// (never fire on noise).
func (m *AlertMonitor) burn(good, bad int64) (burnRate, badFrac float64) {
	total := good + bad
	if total < m.cfg.MinSamples || total == 0 {
		return 0, 0
	}
	badFrac = float64(bad) / float64(total)
	return badFrac / m.cfg.ErrorBudget, badFrac
}

// evaluate recomputes both windows and records transitions. Caller holds
// mu.
func (m *AlertMonitor) evaluate(now time.Time) (fast, slow AlertWindowStatus) {
	nowNS := now.UnixNano()
	flip := func(active *bool, since *int64, name string, firing bool, rate float64) {
		if firing == *active {
			return
		}
		*active = firing
		if firing {
			*since = nowNS
		} else {
			*since = 0
		}
		m.history = append(m.history, AlertTransition{Alert: name, Active: firing, AtUnixNS: nowNS, BurnRate: rate})
		if len(m.history) > m.cfg.HistoryCap {
			m.history = m.history[len(m.history)-m.cfg.HistoryCap:]
		}
	}

	fg, fb := m.windowCounts(now, m.cfg.FastWindow)
	fRate, fFrac := m.burn(fg, fb)
	flip(&m.fastActive, &m.fastSince, "fast", fRate >= m.cfg.FastBurn, fRate)
	fast = AlertWindowStatus{
		WindowSec: m.cfg.FastWindow.Seconds(), Threshold: m.cfg.FastBurn,
		BurnRate: fRate, BadFrac: fFrac, Good: fg, Bad: fb,
		Active: m.fastActive, SinceUnixNS: m.fastSince,
	}

	sg, sb := m.windowCounts(now, m.cfg.SlowWindow)
	sRate, sFrac := m.burn(sg, sb)
	flip(&m.slowActive, &m.slowSince, "slow", sRate >= m.cfg.SlowBurn, sRate)
	slow = AlertWindowStatus{
		WindowSec: m.cfg.SlowWindow.Seconds(), Threshold: m.cfg.SlowBurn,
		BurnRate: sRate, BadFrac: sFrac, Good: sg, Bad: sb,
		Active: m.slowActive, SinceUnixNS: m.slowSince,
	}
	return fast, slow
}

// Status re-evaluates against the current clock (so alerts clear as the
// windows drain even with no traffic) and returns the live view.
func (m *AlertMonitor) Status() AlertStatus {
	if m == nil {
		return AlertStatus{}
	}
	now := m.cfg.Now()
	m.mu.Lock()
	fast, slow := m.evaluate(now)
	st := AlertStatus{
		ErrorBudget: m.cfg.ErrorBudget,
		Fast:        fast,
		Slow:        slow,
		Active:      fast.Active || slow.Active,
		TotalGood:   m.totalGood,
		TotalBad:    m.totalBad,
		History:     append([]AlertTransition(nil), m.history...),
	}
	m.mu.Unlock()
	return st
}

// AlertzReport is one tier's /alertz document: the per-model monitor
// states plus the rolled-up page signal. The router decodes its backends'
// reports with this same type and re-aggregates them into the fleet view.
type AlertzReport struct {
	Tier   string                 `json:"tier"`
	Active bool                   `json:"active"`
	Models map[string]AlertStatus `json:"models,omitempty"`
}
