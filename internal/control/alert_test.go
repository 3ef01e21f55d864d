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

// newTestMonitor returns a monitor on clk.
func newTestMonitor(clk *manualClock) *AlertMonitor {
	m := NewAlertMonitor()
	m.now = clk.now
	return m
}

// TestAlertMultiWindow pins the two-window construction: a short burst
// fires the fast (page) alert but not the slow one; the fast alert clears
// as its window drains while the sustained-burn case trips both. Every
// Observe fills one 5 s ring slot.
func TestAlertMultiWindow(t *testing.T) {
	clk := newManualClock()
	m := newTestMonitor(clk)
	healthy := func(slots int) {
		for i := 0; i < slots; i++ {
			m.Observe(50, 0)
			clk.advance(alertBucketDur)
		}
	}

	// Healthy traffic long enough to fill the slow window: nothing fires.
	healthy(alertBuckets)
	if st := m.Status(); st.Active {
		t.Fatalf("alert active on healthy traffic: %+v", st)
	}

	// A one-slot total outage: the fast window sees 110 bad against the
	// 600 good of its 12 earlier slots (burn ≈ 15.5× budget ≥ 14, fires);
	// the slow window dilutes the same 110 bad over 5 950 good (burn ≈ 1.8
	// < 2, stays quiet).
	m.Observe(0, 110)
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

	// Recovery: the burst ages out of both windows and the page clears.
	clk.advance(alertBucketDur)
	healthy(alertBuckets)
	st = m.Status()
	if st.Fast.Active || st.Active {
		t.Fatalf("fast alert did not clear after recovery: %+v", st.Fast)
	}

	// Sustained burn: everything bad long enough to trip the slow window.
	for i := 0; i < alertBuckets; i++ {
		m.Observe(0, 50)
		clk.advance(alertBucketDur)
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
	m := newTestMonitor(newManualClock())
	m.Observe(0, alertMinSamples-1)
	if st := m.Status(); st.Active {
		t.Fatalf("alert fired below alertMinSamples: %+v", st)
	}
	m.Observe(0, 1)
	if st := m.Status(); !st.Fast.Active {
		t.Fatalf("alert must fire once alertMinSamples is met: %+v", st.Fast)
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
	m := newTestMonitor(clk)

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
