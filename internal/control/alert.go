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

// The burn-rate geometry every monitor runs.
const (
	// errorBudget is the tolerated bad-request fraction.
	errorBudget = 0.01
	// fastWindow/slowWindow are the two burn measurement spans; the slow
	// window also bounds the bucket ring's reach.
	fastWindow = time.Minute
	slowWindow = 10 * time.Minute
	// fastBurn/slowBurn are the firing thresholds (multiples of budget
	// burn): the classic page/ticket split.
	fastBurn = 14
	slowBurn = 2
	// alertMinSamples suppresses burn evaluation until a window holds
	// this many requests, so an idle model never pages on its first
	// straggler.
	alertMinSamples = 12
	// alertBuckets is the ring granularity over slowWindow.
	alertBuckets   = 120
	alertBucketDur = slowWindow / alertBuckets
	// historyCap bounds the retained activation/clear transitions (the
	// alert timeline).
	historyCap = 64
)

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
	now func() time.Time // the clock; tests inject one

	mu         sync.Mutex
	buckets    [alertBuckets]alertBucket // guarded by mu
	fastActive bool                      // guarded by mu
	slowActive bool                      // guarded by mu
	fastSince  int64                     // guarded by mu; unix nanos
	slowSince  int64                     // guarded by mu
	history    []AlertTransition
	totalGood  int64 // guarded by mu
	totalBad   int64 // guarded by mu
}

// NewAlertMonitor returns an idle monitor.
func NewAlertMonitor() *AlertMonitor {
	return &AlertMonitor{now: time.Now}
}

// Observe feeds one batch of finished requests: good met the target, bad
// burned budget (latency above target, or shed).
func (m *AlertMonitor) Observe(good, bad int64) {
	if m == nil || (good <= 0 && bad <= 0) {
		return
	}
	now := m.now()
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
	aligned := now.UnixNano() / int64(alertBucketDur) * int64(alertBucketDur)
	idx := int((aligned / int64(alertBucketDur)) % alertBuckets)
	if idx < 0 {
		idx += alertBuckets
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
		if b.startNS == 0 || b.startNS+int64(alertBucketDur) <= cut || b.startNS > nowNS {
			continue
		}
		good += b.good
		bad += b.bad
	}
	return good, bad
}

// burn computes one window's burn rate; below alertMinSamples the burn is 0
// (never fire on noise).
func (m *AlertMonitor) burn(good, bad int64) (burnRate, badFrac float64) {
	total := good + bad
	if total < alertMinSamples {
		return 0, 0
	}
	badFrac = float64(bad) / float64(total)
	return badFrac / errorBudget, badFrac
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
		if len(m.history) > historyCap {
			m.history = m.history[len(m.history)-historyCap:]
		}
	}

	fg, fb := m.windowCounts(now, fastWindow)
	fRate, fFrac := m.burn(fg, fb)
	flip(&m.fastActive, &m.fastSince, "fast", fRate >= fastBurn, fRate)
	fast = AlertWindowStatus{
		WindowSec: fastWindow.Seconds(), Threshold: fastBurn,
		BurnRate: fRate, BadFrac: fFrac, Good: fg, Bad: fb,
		Active: m.fastActive, SinceUnixNS: m.fastSince,
	}

	sg, sb := m.windowCounts(now, slowWindow)
	sRate, sFrac := m.burn(sg, sb)
	flip(&m.slowActive, &m.slowSince, "slow", sRate >= slowBurn, sRate)
	slow = AlertWindowStatus{
		WindowSec: slowWindow.Seconds(), Threshold: slowBurn,
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
	now := m.now()
	m.mu.Lock()
	fast, slow := m.evaluate(now)
	st := AlertStatus{
		ErrorBudget: errorBudget,
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
