package control

import (
	"testing"
	"time"

	"cdl/internal/core"
)

// manualClock is an injectable test clock.
type manualClock struct{ t time.Time }

func (c *manualClock) now() time.Time          { return c.t }
func (c *manualClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newManualClock() *manualClock             { return &manualClock{t: time.Unix(1_000_000, 0)} }
func alertCfg(clk *manualClock, c AlertConfig) AlertConfig {
	c.Now = clk.now
	return c
}

// TestAlertMultiWindow pins the two-window construction: a short burst
// fires the fast (page) alert but not the slow one; the fast alert clears
// as its window drains while the sustained-burn case trips both.
func TestAlertMultiWindow(t *testing.T) {
	clk := newManualClock()
	m := NewAlertMonitor(alertCfg(clk, AlertConfig{
		ErrorBudget: 0.01,
		FastWindow:  10 * time.Second,
		SlowWindow:  100 * time.Second,
		FastBurn:    10, SlowBurn: 3, MinSamples: 10,
	}))

	// Healthy traffic long enough to fill the slow window: nothing fires.
	for i := 0; i < 100; i++ {
		m.Observe(100, 0)
		clk.advance(time.Second)
	}
	if st := m.Status(); st.Active {
		t.Fatalf("alert active on healthy traffic: %+v", st)
	}

	// A one-second total outage: the fast window sees 150 bad against
	// ~900 good (burn ≈ 14× budget ≥ 10, fires); the slow window dilutes
	// the same 150 bad over ~9600 good (burn ≈ 1.5 < 3, stays quiet).
	m.Observe(0, 150)
	clk.advance(time.Second)
	st := m.Status()
	if !st.Fast.Active {
		t.Fatalf("fast alert did not fire on the burst: %+v", st.Fast)
	}
	if st.Slow.Active {
		t.Fatalf("slow alert fired on a transient burst: %+v", st.Slow)
	}
	if !st.Active {
		t.Fatal("rolled-up Active must follow the fast window")
	}

	// Recovery: the burst ages out of the fast window and the page clears.
	for i := 0; i < 15; i++ {
		m.Observe(100, 0)
		clk.advance(time.Second)
	}
	st = m.Status()
	if st.Fast.Active || st.Active {
		t.Fatalf("fast alert did not clear after recovery: %+v", st.Fast)
	}

	// Sustained burn: everything bad long enough to trip the slow window.
	for i := 0; i < 120; i++ {
		m.Observe(0, 50)
		clk.advance(time.Second)
	}
	st = m.Status()
	if !st.Fast.Active || !st.Slow.Active {
		t.Fatalf("sustained burn must trip both windows: fast %+v slow %+v", st.Fast, st.Slow)
	}

	// The timeline recorded each flip in order.
	wantAlerts := []struct {
		alert  string
		active bool
	}{{"fast", true}, {"fast", false}, {"fast", true}, {"slow", true}}
	if len(st.History) != len(wantAlerts) {
		t.Fatalf("history %+v, want %d transitions", st.History, len(wantAlerts))
	}
	for i, w := range wantAlerts {
		if st.History[i].Alert != w.alert || st.History[i].Active != w.active {
			t.Fatalf("history[%d] = %+v, want %s active=%v", i, st.History[i], w.alert, w.active)
		}
	}
}

// TestAlertMinSamples pins the idle-model guard: a lone bad request on an
// otherwise idle monitor must not page.
func TestAlertMinSamples(t *testing.T) {
	clk := newManualClock()
	m := NewAlertMonitor(alertCfg(clk, AlertConfig{MinSamples: 12}))
	m.Observe(0, 3)
	if st := m.Status(); st.Active {
		t.Fatalf("alert fired below MinSamples: %+v", st)
	}
	m.Observe(0, 20)
	if st := m.Status(); !st.Fast.Active {
		t.Fatalf("alert must fire once MinSamples is met: %+v", st.Fast)
	}
}

// TestAlertFiresBeforeBaselineSheds is the deterministic early-warning
// guarantee, pinned on the PR 5 fluid-plant harness: replay the 5×
// arrival step against the *uncontrolled* plant, feed the monitor the
// same per-tick telemetry an attached SLO would see (latency above target
// = bad, sheds = bad), and require the fast burn alert to fire strictly
// before the plant drops its first image. The alert is the early-warning
// layer above the controller: by the time the queue overflows, the page
// has already fired.
func TestAlertFiresBeforeBaselineSheds(t *testing.T) {
	const base, peak = 640.0, 3200.0
	const pre, during, post = 25, 75, 25
	trace := stepTrace(base, peak, pre, during, post)

	p := newSimPlant()
	clk := newManualClock()
	m := NewAlertMonitor(alertCfg(clk, AlertConfig{
		ErrorBudget: 0.01,
		FastWindow:  5 * time.Second, // 25 plant ticks at dt=0.2s
		SlowWindow:  60 * time.Second,
		MinSamples:  32,
	}))

	pol := core.DefaultExitPolicy()
	alertTick, shedTick := -1, -1
	var shedsSeen float64
	for i, rate := range trace {
		s := p.tick(rate, pol)
		bad := int64(0)
		good := s.Images
		if s.P99LatencyMS > simTargetP99MS {
			bad, good = s.Images, 0
		}
		if d := p.sheds - shedsSeen; d > 0 {
			bad += int64(d)
			shedsSeen = p.sheds
			if shedTick < 0 {
				shedTick = i
			}
		}
		m.Observe(good, bad)
		if alertTick < 0 && m.Status().Active {
			alertTick = i
		}
		clk.advance(time.Duration(p.dtSec * float64(time.Second)))
	}

	if shedTick < 0 {
		t.Fatal("uncontrolled baseline never shed — the scenario is not stressful enough to prove anything")
	}
	if alertTick < 0 {
		t.Fatal("burn-rate alert never fired under the 5× step")
	}
	if alertTick >= shedTick {
		t.Fatalf("alert fired at tick %d, first baseline shed at tick %d — the page must precede the drop", alertTick, shedTick)
	}
	if alertTick < pre {
		t.Fatalf("alert fired at tick %d, before the step even began at tick %d", alertTick, pre)
	}
}
