package control

// sim_test.go is the deterministic simulation harness the controller
// dynamics are pinned by: a fluid-model serving plant (bounded queue,
// replica pool whose per-image cost depends on the active policy rung)
// driven by scripted arrival-rate traces. No clocks, no goroutines, no
// randomness — every run is exactly reproducible, so the assertions can
// be sharp: convergence under a 5× step, zero sheds where the
// uncontrolled baseline sheds, recovery within bounded ticks, and no
// sustained oscillation on steady traces that sit between two rungs.

import (
	"testing"

	"cdl/internal/core"
)

// simPlant is a fluid approximation of one registry entry's serve pool:
// a bounded queue drained by `workers` replicas at `unitPerSec` work
// units each. The trained cascade is summarized by its exit distribution
// and per-exit costs; a policy rung reshapes both exactly the way
// ExitPolicy.MaxExit does (inputs that would exit deeper are forced out
// at the cap).
type simPlant struct {
	exitFracs  []float64 // trained exit distribution over exit points
	exitCost   []float64 // work units to exit at each point (monotone)
	exitPJ     []float64 // dynamic energy to exit at each point
	workers    float64
	unitPerSec float64
	queueCap   float64
	dtSec      float64

	queue float64
	sheds float64
}

func newSimPlant() *simPlant {
	return &simPlant{
		// 4 exit points (3 stages + FC), a LeNet-like cost ramp and the
		// paper's "most inputs are easy" distribution. Identity-policy
		// capacity: 4·1000/2.7 ≈ 1481 images/s.
		exitFracs:  []float64{0.50, 0.20, 0.15, 0.15},
		exitCost:   []float64{1, 2, 4, 8},
		exitPJ:     []float64{1e6, 2e6, 4e6, 8e6},
		workers:    4,
		unitPerSec: 1000,
		queueCap:   2000,
		dtSec:      0.2,
	}
}

// numStages is the plant's cascade stage count (exits minus the FC).
func (p *simPlant) numStages() int { return len(p.exitCost) - 1 }

// rungStats folds the policy cap into the trained exit distribution.
func (p *simPlant) rungStats(pol core.ExitPolicy) (meanCost, meanDepth, meanPJ float64) {
	last := len(p.exitCost) - 1
	me := pol.MaxExit
	if me < 0 || me > last {
		me = last
	}
	for e, f := range p.exitFracs {
		ee := e
		if ee > me {
			ee = me
		}
		meanCost += f * p.exitCost[ee]
		meanDepth += f * float64(ee)
		meanPJ += f * p.exitPJ[ee]
	}
	return meanCost, meanDepth, meanPJ
}

// tick advances the plant one controller interval at the given offered
// arrival rate (images/sec) under pol, returning the telemetry sample
// the controller would see.
func (p *simPlant) tick(rate float64, pol core.ExitPolicy) Sample {
	meanCost, _, meanPJ := p.rungStats(pol)
	mu := p.workers * p.unitPerSec / meanCost // capacity, images/sec
	p.queue += rate * p.dtSec
	served := mu * p.dtSec
	if served > p.queue {
		served = p.queue
	}
	p.queue -= served
	if p.queue > p.queueCap {
		p.sheds += p.queue - p.queueCap
		p.queue = p.queueCap
	}
	latencyMS := (p.queue/mu + meanCost/p.unitPerSec) * 1000
	return Sample{
		P99LatencyMS: latencyMS,
		QueueFrac:    p.queue / p.queueCap,
		MeanEnergyPJ: meanPJ,
		Images:       int64(served),
		Arrivals:     int64(rate * p.dtSec),
	}
}

// runTrace drives controller (nil = uncontrolled baseline pinned at the
// identity policy) over a scripted per-tick arrival-rate trace,
// returning the rung trajectory and the plant samples observed.
func runTrace(p *simPlant, c *Controller, trace []float64) ([]int, []Sample) {
	pol := core.DefaultExitPolicy()
	rungs := make([]int, len(trace))
	samples := make([]Sample, len(trace))
	for i, rate := range trace {
		samples[i] = p.tick(rate, pol)
		if c != nil {
			d := c.Step(samples[i])
			pol = d.Policy
			rungs[i] = d.Rung
		}
	}
	return rungs, samples
}

// stepTrace is the acceptance scenario: steady base load, an arrival
// step, then base again.
func stepTrace(base, peak float64, preTicks, peakTicks, postTicks int) []float64 {
	tr := make([]float64, 0, preTicks+peakTicks+postTicks)
	for i := 0; i < preTicks; i++ {
		tr = append(tr, base)
	}
	for i := 0; i < peakTicks; i++ {
		tr = append(tr, peak)
	}
	for i := 0; i < postTicks; i++ {
		tr = append(tr, base)
	}
	return tr
}

const simTargetP99MS = 20

func simController(t *testing.T, p *simPlant, slo SLO) *Controller {
	t.Helper()
	c, err := New(slo, Ladder(p.numStages(), slo.AccuracyFloorDelta))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSimFiveTimesStep is the headline acceptance scenario: under a 5×
// arrival-rate step the controller holds the p99 target by shallowing
// exits (the exit-depth mean of the converged policy drops), sheds
// nothing where the uncontrolled baseline sheds, and restores the
// trained policy within bounded ticks after the step ends.
func TestSimFiveTimesStep(t *testing.T) {
	const base, peak = 640.0, 3200.0 // 5× step
	const pre, during, post = 25, 75, 100
	trace := stepTrace(base, peak, pre, during, post)

	// Uncontrolled baseline: the queue overflows and the plant sheds.
	baseline := newSimPlant()
	runTrace(baseline, nil, trace)
	if baseline.sheds == 0 {
		t.Fatal("baseline plant shed nothing under the 5× step — the scenario is not stressful enough to prove anything")
	}

	p := newSimPlant()
	c := simController(t, p, SLO{P99LatencyMs: simTargetP99MS})
	rungs, samples := runTrace(p, c, trace)

	if p.sheds != 0 {
		t.Errorf("controlled plant shed %.0f images, want 0 (baseline shed %.0f)", p.sheds, baseline.sheds)
	}
	// The controller must reach the rung whose capacity covers the peak
	// within a bounded number of ticks of the step's onset...
	converged := -1
	for i := pre; i < pre+during; i++ {
		if rungs[i] == c.MaxRung() {
			converged = i
			break
		}
	}
	if converged < 0 || converged > pre+10 {
		t.Fatalf("controller did not converge within 10 ticks of the step (first max-rung tick %d)", converged)
	}
	// ...and the converged policy's exit-depth mean must be lower than
	// the trained policy's: graceful degradation, not shedding.
	_, depthTrained, _ := p.rungStats(core.DefaultExitPolicy())
	if _, d, _ := p.rungStats(core.DepthCapped(0)); d >= depthTrained {
		t.Fatalf("converged policy's exit-depth mean %v did not drop below the trained %v", d, depthTrained)
	}
	// Once the transient backlog drains, p99 must hold the target for
	// the step's remainder — modulo the controller's rare recovery
	// probes, which each cost at most one tick above target before the
	// probation logic backs them off.
	bad, consec, maxConsec := 0, 0, 0
	for i := pre + 15; i < pre+during; i++ {
		if samples[i].P99LatencyMS > simTargetP99MS {
			bad++
			consec++
			if consec > maxConsec {
				maxConsec = consec
			}
		} else {
			consec = 0
		}
	}
	window := during - 15
	if frac := float64(bad) / float64(window); frac > 0.10 {
		t.Errorf("p99 above target on %.0f%% of post-drain step ticks, want ≤ 10%% (probe transients only)", 100*frac)
	}
	if maxConsec > 2 {
		t.Errorf("p99 above target for %d consecutive ticks, want ≤ 2 (violations must be probe transients, not sustained overload)", maxConsec)
	}
	// After the step ends the trained policy must be restored within
	// bounded ticks — and stay restored.
	recovered := -1
	for i := pre + during; i < len(rungs); i++ {
		if rungs[i] == 0 {
			recovered = i
			break
		}
	}
	if recovered < 0 || recovered > pre+during+80 {
		t.Fatalf("trained policy not restored within 80 ticks of the step end (first rung-0 tick %d)", recovered)
	}
	for i := recovered; i < len(rungs); i++ {
		if rungs[i] != 0 {
			t.Fatalf("tick %d: rung %d after recovery, want a stable 0", i, rungs[i])
		}
	}
	if got := c.State().Policy; !got.Equal(core.DefaultExitPolicy()) {
		t.Errorf("final policy %+v, want the trained identity policy", got)
	}
}

// TestSimSteadyTraceNoOscillation parks the load between two rungs'
// capacities — the configuration where margin hysteresis alone would
// limit-cycle forever — and checks the recovery backoff decays the
// flapping into rare probes.
func TestSimSteadyTraceNoOscillation(t *testing.T) {
	const rate = 1600.0 // rung 0 capacity ≈ 1481/s, rung 1 ≈ 1905/s
	trace := make([]float64, 600)
	for i := range trace {
		trace[i] = rate
	}
	p := newSimPlant()
	c := simController(t, p, SLO{P99LatencyMs: simTargetP99MS})
	rungs, _ := runTrace(p, c, trace)

	if p.sheds != 0 {
		t.Errorf("steady trace shed %.0f images, want 0", p.sheds)
	}
	transitions, atOne := 0, 0
	for i := 400; i < len(rungs); i++ {
		if rungs[i] != rungs[i-1] {
			transitions++
		}
		if rungs[i] == 1 {
			atOne++
		}
	}
	if transitions > 4 {
		t.Errorf("%d rung transitions in the last 200 ticks, want ≤ 4 (backoff must damp the limit cycle)", transitions)
	}
	if frac := float64(atOne) / 200; frac < 0.9 {
		t.Errorf("only %.0f%% of the last 200 ticks at the stable rung, want ≥ 90%%", 100*frac)
	}
}

// TestSimEnergyBudget drives the energy axis: a budget below the trained
// mean pJ/image must park the cascade at the shallowest rung inside the
// budget, independent of latency.
func TestSimEnergyBudget(t *testing.T) {
	const budget = 2.0e6 // trained mean ≈ 2.7e6; rung 1 ≈ 2.1e6; rung 2 = 1.5e6
	trace := make([]float64, 300)
	for i := range trace {
		trace[i] = 400 // light load: latency never the binding constraint
	}
	p := newSimPlant()
	c := simController(t, p, SLO{EnergyBudgetPJ: budget})
	rungs, _ := runTrace(p, c, trace)

	atTwo := 0
	for i := 200; i < len(rungs); i++ {
		if rungs[i] == 2 {
			atTwo++
		}
	}
	if frac := float64(atTwo) / 100; frac < 0.9 {
		t.Errorf("only %.0f%% of the last 100 ticks at rung 2, want ≥ 90%% (rung 2 is the deepest rung inside the %.1e pJ budget)", 100*frac, budget)
	}
	if _, _, pj := p.rungStats(c.State().Policy); pj > budget {
		t.Errorf("final policy mean %.2e pJ/image exceeds the %.2e budget", pj, budget)
	}
}

// TestSimAccuracyFloorBoundsExcursion repeats the 5× step with a floor
// that keeps two thirds of the cascade reachable: the controller must
// saturate at the floor rung rather than shed the whole cascade,
// accepting queue overflow as the price of the declared floor.
func TestSimAccuracyFloorBoundsExcursion(t *testing.T) {
	trace := stepTrace(640, 3200, 10, 60, 10)
	p := newSimPlant()
	ladder := Ladder(p.numStages(), 0.6) // minExit = ceil(0.6·3) = 2
	c, err := New(SLO{P99LatencyMs: simTargetP99MS}, ladder)
	if err != nil {
		t.Fatal(err)
	}
	rungs, _ := runTrace(p, c, trace)
	maxRung := 0
	for _, r := range rungs {
		if r > maxRung {
			maxRung = r
		}
	}
	if maxRung != c.MaxRung() {
		t.Errorf("max rung reached %d, want saturation at the floor rung %d", maxRung, c.MaxRung())
	}
	if deepest := ladder[len(ladder)-1].MaxExit; deepest != 2 {
		t.Errorf("floor 0.6 ladder bottoms out at MaxExit %d, want 2", deepest)
	}
}
