// split.go makes a registry entry a split deployment (Long et al. 2020):
// the entry's pool workers walk the cascade prefix themselves and resume
// the hard residue on another tier through walkers the entry supplies
// (internal/edgecloud's Edge). The entry keeps everything else an entry
// has — the bounded queue and micro-batching, Stats, /metricsz, the /v2
// policy surface, timeout_ms and the SLO controller — and refuses at
// admission what the δ-only offload wire cannot carry, so the tier behind
// it is never asked for what it cannot answer.
package serve

import (
	"errors"
	"fmt"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/energy"
)

// causeCloudError is the reject cause of a request whose group's walk
// failed on the other tier (502).
const causeCloudError = "cloud_error"

// Split describes a split entry to RegisterSplit.
type Split struct {
	// Costs splits each exit's compute between the tiers; its SplitStage
	// is the number of trunk stages the entry's walkers run themselves.
	Costs *energy.TierCosts
	// WireBytes[e] is the payload an input exiting at exit e shipped (0
	// for a local exit). An exit's energy is Costs.ExitEnergies(WireBytes)[e]:
	// what answers, /statsz, the telemetry window and the controller see.
	WireBytes []int
	// Delta is the δ of the entry's identity policy (< 0: the trained
	// thresholds); an offload forwards the δ its request ran under.
	Delta float64
	// NewWalker builds one pool worker's walker; the entry builds no
	// session of its own.
	NewWalker func() (Walker, error)
}

// RegisterSplit publishes g under name as a split entry. A split entry is
// never swapped: PUT on its model or branches is refused, as is a later
// Register* under its name.
func (r *Registry) RegisterSplit(name string, g *core.Graph, sp Split) (*Model, error) {
	return r.swapIn(name, "", g, &sp)
}

// OffloadCarries refuses what the δ-only offload wire cannot carry for a
// walk that offloads after split trunk stages: per-stage thresholds, a
// depth cap in the cloud's half of the cascade (an ops_budget resolves to
// one) and the per-stage confidences of detail "trace". A cap below the
// split resolves everything locally and rides fine. It is the one rule a
// split entry admits requests and builds its SLO ladder by, and an Edge
// walks by.
func OffloadCarries(pol core.ExitPolicy, split, maxDepth int) error {
	switch {
	case pol.StageDeltas != nil:
		return errors.New("stage_deltas cannot cross the δ-only offload wire")
	case pol.MaxExit >= split && pol.MaxExit < maxDepth:
		return fmt.Errorf("max_exit %d lies in the cloud's half (split %d) and cannot cross the δ-only offload wire", pol.MaxExit, split)
	case pol.Trace:
		return errors.New(`detail "trace" cannot cross the δ-only offload wire`)
	}
	return nil
}

// ladder is control.Ladder filtered by OffloadCarries, every rung at the
// entry's δ: the identity policy plus the depth caps strictly below the
// split, so rung 1 already resolves every input locally — a split entry's
// actuation is exactly its offload split. A split of 0 leaves the identity
// alone, which control.New refuses.
func (sp *Split) ladder(maxDepth int, floor float64) []core.ExitPolicy {
	var out []core.ExitPolicy
	for _, p := range control.Ladder(maxDepth, floor) {
		if OffloadCarries(p, sp.Costs.SplitStage, maxDepth) == nil {
			p.Delta = sp.Delta
			out = append(out, p)
		}
	}
	return out
}
