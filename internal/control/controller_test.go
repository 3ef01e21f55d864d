package control

import (
	"testing"

	"cdl/internal/core"
)

func TestLadder(t *testing.T) {
	l := Ladder(3, 0)
	if len(l) != 4 {
		t.Fatalf("ladder length %d, want 4", len(l))
	}
	if !l[0].Equal(core.DefaultExitPolicy()) {
		t.Errorf("rung 0 = %+v, want identity", l[0])
	}
	for k, wantME := range map[int]int{1: 2, 2: 1, 3: 0} {
		if l[k].MaxExit != wantME || l[k].Delta != -1 {
			t.Errorf("rung %d = %+v, want trained δ with MaxExit %d", k, l[k], wantME)
		}
	}
	// An accuracy floor truncates the deep end: floor 0.5 on 4 stages
	// keeps MaxExit ≥ 2.
	l = Ladder(4, 0.5)
	if len(l) != 3 || l[len(l)-1].MaxExit != 2 {
		t.Errorf("floored ladder %+v, want rungs down to MaxExit 2", l)
	}
	// floor 1.0 leaves only the identity rung.
	if l = Ladder(4, 1); len(l) != 1 {
		t.Errorf("floor 1.0 ladder has %d rungs, want 1", len(l))
	}
}

func TestControllerNewRejects(t *testing.T) {
	if _, err := New(SLO{}, Ladder(3, 0)); err == nil {
		t.Error("empty SLO accepted")
	}
	if _, err := New(SLO{P99LatencyMs: 15}, Ladder(3, 1)); err == nil {
		t.Error("one-rung ladder accepted — nothing to actuate")
	}
}

// TestControllerBoundedSteps pins the bounded-step safety property: no
// single tick may move the policy more than maxStep rungs, whatever the
// telemetry says.
func TestControllerBoundedSteps(t *testing.T) {
	c, err := New(SLO{P99LatencyMs: 10}, Ladder(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	// Catastrophic overload for 20 ticks, then instant calm (long enough
	// for five recoverHold waits): rung must move at most one step per
	// tick in both directions.
	for i := 0; i < 40; i++ {
		s := Sample{P99LatencyMS: 1e6, QueueFrac: 1, Images: 100}
		if i >= 20 {
			s = Sample{P99LatencyMS: 0.1, QueueFrac: 0, Images: 100}
		}
		d := c.Step(s)
		if diff := d.Rung - prev; diff < -1 || diff > 1 {
			t.Fatalf("tick %d moved %d rungs (from %d to %d), want |step| ≤ 1", i, diff, prev, d.Rung)
		}
		prev = d.Rung
	}
	if prev != 0 {
		t.Errorf("rung %d after sustained calm, want 0", prev)
	}
}

// TestControllerIgnoresThinSignals checks that latency/energy readings
// backed by fewer than minSamples images cannot trip the controller,
// while queue occupancy always can.
func TestControllerIgnoresThinSignals(t *testing.T) {
	c, err := New(SLO{P99LatencyMs: 10, MaxQueueFrac: 0.8}, Ladder(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Step(Sample{P99LatencyMS: 1e6, Images: minSamples - 1}); d.Action != ActionHold || d.Rung != 0 {
		t.Errorf("thin latency signal acted: %+v", d)
	}
	if d := c.Step(Sample{QueueFrac: 0.95, Images: 0}); d.Action != ActionShallow {
		t.Errorf("queue violation with empty window ignored: %+v", d)
	}
}

// TestControllerStarvedWindow pins the total-overload edge of a
// latency-only SLO: when the window is too thin to evaluate any target
// but demand is arriving, the controller must treat it as violation
// (shallow / hold the mitigation), never as comfort — the window is
// empty precisely because nothing completes. With no demand either, it
// is genuinely idle and recovers.
func TestControllerStarvedWindow(t *testing.T) {
	c, err := New(SLO{P99LatencyMs: 10}, Ladder(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	starved := Sample{Images: 0, Arrivals: 100}
	if d := c.Step(starved); d.Action != ActionShallow || d.Rung != 1 {
		t.Fatalf("starved window: %+v, want shallow to rung 1", d)
	}
	for i := 0; i < 10; i++ {
		c.Step(starved)
	}
	if got := c.State().Rung; got != c.MaxRung() {
		t.Fatalf("sustained starvation parked at rung %d, want saturation at %d", got, c.MaxRung())
	}
	// Demand stops entirely: idle, recover toward the trained policy.
	idle := Sample{Images: 0, Arrivals: 0}
	for i := 0; i < 20; i++ {
		c.Step(idle)
	}
	if got := c.State().Rung; got != 0 {
		t.Errorf("idle recovery parked at rung %d, want 0", got)
	}
}

// TestControllerHysteresisBand checks that a reading between the
// recovery margin and the target neither shallows nor deepens.
func TestControllerHysteresisBand(t *testing.T) {
	c, err := New(SLO{P99LatencyMs: 10}, Ladder(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Push to rung 1, then hover at 0.9×target (above the 0.85 margin,
	// below the target): the controller must hold indefinitely.
	c.Step(Sample{P99LatencyMS: 50, Images: 100})
	for i := 0; i < 50; i++ {
		if d := c.Step(Sample{P99LatencyMS: 9, Images: 100}); d.Action != ActionHold || d.Rung != 1 {
			t.Fatalf("tick %d in hysteresis band: %+v, want hold at rung 1", i, d)
		}
	}
	// Dropping below the margin for recoverHold ticks deepens.
	for i := 1; i < recoverHold; i++ {
		c.Step(Sample{P99LatencyMS: 2, Images: 100})
	}
	if d := c.Step(Sample{P99LatencyMS: 2, Images: 100}); d.Action != ActionDeepen || d.Rung != 0 {
		t.Fatalf("after sustained headroom: %+v, want deepen to rung 0", d)
	}
}

// TestControllerRecoveryBackoff checks the probation mechanism: a deepen
// that immediately re-violates doubles the next recovery wait, and a
// clean probation resets it.
func TestControllerRecoveryBackoff(t *testing.T) {
	c, err := New(SLO{P99LatencyMs: 10}, Ladder(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	calm := Sample{P99LatencyMS: 1, Images: 100}
	hot := Sample{P99LatencyMS: 100, Images: 100}

	c.Step(hot) // rung 1
	for i := 1; i < recoverHold; i++ {
		c.Step(calm)
	}
	if d := c.Step(calm); d.Action != ActionDeepen {
		t.Fatalf("first recovery: %+v, want deepen after recoverHold=%d", d, recoverHold)
	}
	c.Step(hot) // violation inside probation → backoff to 2×recoverHold
	if got := c.State().RecoverHold; got != 2*recoverHold {
		t.Fatalf("recover hold after failed probation = %d, want %d", got, 2*recoverHold)
	}
	for i := 1; i < 2*recoverHold; i++ {
		if d := c.Step(calm); d.Action != ActionHold {
			t.Fatalf("backoff tick %d: %+v, want hold", i, d)
		}
	}
	if d := c.Step(calm); d.Action != ActionDeepen {
		t.Fatalf("calm tick %d: %+v, want deepen under backed-off hold", 2*recoverHold, d)
	}
	// Probation passes cleanly this time: backoff resets.
	for i := 0; i < probationTicks; i++ {
		c.Step(calm)
	}
	if got := c.State().RecoverHold; got != recoverHold {
		t.Errorf("recover hold after clean probation = %d, want %d", got, recoverHold)
	}
}
