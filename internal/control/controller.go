package control

// controller.go is the decision half of the feedback loop: a clock-free,
// single-owner state machine stepped once per tick with a telemetry
// Sample. The loop is AIMD-shaped with hysteresis:
//
//   - any violated target shallows the policy immediately (by maxStep = 1
//     rung per tick), because overload compounds — queue growth is
//     integral, so reaction must be prompt;
//   - recovery is deliberate: every active target must sit below
//     recoverMargin (0.85) of its threshold for recoverHold (3)
//     consecutive ticks before the policy deepens one step, so a load
//     hovering at the target parks at a stable rung instead of
//     oscillating around it;
//   - every deepening step opens a probation window: if it provokes a
//     violation within probationTicks (5), the next recovery attempt
//     must wait exponentially longer (doubling up to maxRecoverHold,
//     256). A load that sits exactly between two rungs' capacities —
//     where margin hysteresis alone would limit-cycle, because the
//     shallow rung looks entirely comfortable — decays into an
//     occasional probe instead of an oscillation (a cap of 60 still flaps
//     7 times in 200 steady ticks). A probation survived cleanly resets
//     the backoff.
//
// The latency and energy signals count only above minSamples (8) windowed
// images. These are constants, not settings: sim_test.go drives New with
// exactly them against scripted arrival traces and pins convergence,
// hysteresis and bounded-step safety.

import (
	"fmt"
	"math"
	"time"

	"cdl/internal/core"
)

// Action is what a controller tick did to the policy.
type Action string

const (
	// ActionHold left the policy unchanged.
	ActionHold Action = "hold"
	// ActionShallow stepped the policy toward cheaper, shallower exits.
	ActionShallow Action = "shallow"
	// ActionDeepen stepped the policy back toward the trained cascade.
	ActionDeepen Action = "deepen"
)

// Sample is one tick's telemetry input, usually assembled from a
// Window.Snapshot plus the live queue occupancy.
type Sample struct {
	// P99LatencyMS is the windowed p99 queue+service latency.
	P99LatencyMS float64
	// QueueFrac is the current work-queue occupancy in [0,1].
	QueueFrac float64
	// MeanEnergyPJ is the windowed mean dynamic energy per image.
	MeanEnergyPJ float64
	// Images is how many classified inputs back the latency/energy
	// numbers — below minSamples those signals are ignored.
	Images int64
	// Arrivals is the offered load in the same window (admitted or
	// not). It distinguishes a starved system (demand arriving, nothing
	// completing — the latency signal is silent exactly because the
	// overload is total) from an idle one when the windowed signals are
	// too thin to evaluate.
	Arrivals int64
}

// The controller dynamics (see the file comment). Every SLO-attached
// entry on every tier runs exactly these.
const (
	// TickInterval is the controller's tick period: the edge's, and
	// serve's unless cdlserve -slo-interval sets another.
	TickInterval   = 200 * time.Millisecond
	maxStep        = 1
	recoverMargin  = 0.85
	recoverHold    = 3
	probationTicks = 5
	maxRecoverHold = 256
	minSamples     = 8
)

// Ladder builds the monotone actuation axis for a cascade with numStages
// stages: rung 0 is the identity policy (trained δ, full depth); rung k
// caps the cascade at exit point numStages−k, so each step up strictly
// reduces the worst-case work per input. floor is
// SLO.AccuracyFloorDelta: the fraction of exit points that must stay
// reachable — it truncates the ladder's deep end.
func Ladder(numStages int, floor float64) []core.ExitPolicy {
	if numStages < 1 {
		return []core.ExitPolicy{core.DefaultExitPolicy()}
	}
	if floor < 0 {
		floor = 0
	} else if floor > 1 {
		floor = 1
	}
	minExit := int(math.Ceil(floor * float64(numStages)))
	rungs := []core.ExitPolicy{core.DefaultExitPolicy()}
	for me := numStages - 1; me >= minExit; me-- {
		rungs = append(rungs, core.DepthCapped(me))
	}
	return rungs
}

// Decision is one tick's outcome.
type Decision struct {
	Action Action
	// Rung is the post-tick ladder position.
	Rung int
	// Policy is the post-tick effective exit policy.
	Policy core.ExitPolicy
}

// State is an observability snapshot of the controller.
type State struct {
	SLO        SLO             `json:"slo"`
	Rung       int             `json:"rung"`
	MaxRung    int             `json:"max_rung"`
	Policy     core.ExitPolicy `json:"-"`
	LastAction Action          `json:"last_action"`
	Ticks      int64           `json:"ticks"`
	Violations int64           `json:"violations"`
	// RecoverHold is the current (possibly backed-off) number of
	// headroom ticks the next deepening step requires.
	RecoverHold int `json:"recover_hold"`
}

// Controller is the per-entry feedback loop state. It is clock-free and
// NOT safe for concurrent use — the owner (serve's control loop, the sim
// harness) serializes Step/State calls.
type Controller struct {
	slo    SLO
	ladder []core.ExitPolicy

	rung       int
	holdGood   int
	holdNeeded int
	probation  int
	lastAction Action
	ticks      int64
	violations int64
}

// New validates the SLO against the ladder and returns a controller at
// rung 0 (identity policy).
func New(slo SLO, ladder []core.ExitPolicy) (*Controller, error) {
	if err := slo.Validate(); err != nil {
		return nil, err
	}
	if len(ladder) < 2 {
		return nil, fmt.Errorf("control: ladder has %d rung(s); the accuracy floor leaves the controller nothing to actuate", len(ladder))
	}
	return &Controller{
		slo:        slo,
		ladder:     append([]core.ExitPolicy(nil), ladder...),
		holdNeeded: recoverHold,
		lastAction: ActionHold,
	}, nil
}

// MaxRung returns the deepest reachable rung index.
func (c *Controller) MaxRung() int { return len(c.ladder) - 1 }

// State snapshots the controller for /statsz and the /slo endpoint.
func (c *Controller) State() State {
	return State{
		SLO:         c.slo,
		Rung:        c.rung,
		MaxRung:     c.MaxRung(),
		Policy:      c.ladder[c.rung],
		LastAction:  c.lastAction,
		Ticks:       c.ticks,
		Violations:  c.violations,
		RecoverHold: c.holdNeeded,
	}
}

// evaluate classifies a sample against the targets: violated means some
// target is exceeded; comfortable means every active target sits below
// its hysteresis margin (the only state that ever deepens the policy).
func (c *Controller) evaluate(s Sample) (violated, comfortable bool) {
	comfortable = true
	checked := false
	check := func(val, target float64) {
		if target <= 0 {
			return
		}
		checked = true
		if val > target {
			violated = true
		}
		if val > recoverMargin*target {
			comfortable = false
		}
	}
	// Latency and energy are windowed statistics: on a near-empty window
	// they are noise, so they are only consulted above minSamples. Queue
	// occupancy is an instantaneous reading and always counts — it is
	// also the signal that still works when the window is empty because
	// the queue is too backed up to complete anything.
	if s.Images >= minSamples {
		check(s.P99LatencyMS, c.slo.P99LatencyMs)
		check(s.MeanEnergyPJ, c.slo.EnergyBudgetPJ)
	}
	check(s.QueueFrac, c.slo.MaxQueueFrac)
	if !checked {
		// Every configured target was skipped for thin samples (a
		// latency/energy-only SLO with a starved window). Demand with no
		// completions IS the overload signal — the window is empty
		// precisely because nothing finishes — so deepening here would
		// undo the mitigation at the worst moment. No demand means
		// genuinely idle: recover.
		if s.Arrivals >= minSamples {
			return true, false
		}
	}
	return violated, comfortable
}

// Step advances the loop one tick. Rung movement is bounded by
// maxStep in both directions.
func (c *Controller) Step(s Sample) Decision {
	c.ticks++
	violated, comfortable := c.evaluate(s)
	if c.probation > 0 {
		c.probation--
		switch {
		case violated:
			// The last deepening step didn't hold: back off the next
			// recovery attempt exponentially, so a load sitting between
			// two rungs' capacities decays into an occasional probe
			// instead of a limit cycle.
			c.holdNeeded = min(c.holdNeeded*2, maxRecoverHold)
			c.probation = 0
		case c.probation == 0:
			// Probation survived cleanly: the deeper rung is genuinely
			// affordable again.
			c.holdNeeded = recoverHold
		}
	}
	action := ActionHold
	switch {
	case violated:
		c.violations++
		c.holdGood = 0
		if step := min(maxStep, c.MaxRung()-c.rung); step > 0 {
			c.rung += step
			action = ActionShallow
		}
	case comfortable:
		if c.rung == 0 {
			c.holdGood = 0
			break
		}
		c.holdGood++
		if c.holdGood >= c.holdNeeded {
			c.holdGood = 0
			c.rung -= min(maxStep, c.rung)
			c.probation = probationTicks
			action = ActionDeepen
		}
	default:
		// Inside the hysteresis band: neither violating nor comfortable.
		// Hold, and restart the recovery count — deepening from here
		// would re-enter violation immediately.
		c.holdGood = 0
	}
	c.lastAction = action
	return Decision{Action: action, Rung: c.rung, Policy: c.ladder[c.rung]}
}
