// split.go makes a registry entry a split deployment (Long et al. 2020):
// the entry's pool workers walk the cascade prefix themselves and resume
// the hard residue on another tier through walkers the entry supplies
// (internal/edgecloud's Edge). The entry keeps everything else an entry
// has — the bounded queue and micro-batching, Stats, /metricsz, the /v2
// policy surface, timeout_ms and the SLO controller — and its walkers
// forward each request's whole resolved policy with the offload, so a
// split entry answers every policy a local entry answers. Only /resume is
// refused: the entry's tail runs on the other tier.
package serve

import (
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
	// thresholds), stamped on every rung of its SLO ladder too, and the δ
	// of an explicit policy that sets none; an offload forwards the policy
	// its request ran under.
	Delta float64
	// NewWalker builds one pool worker's walker; the entry builds no
	// session of its own.
	NewWalker func() (Walker, error)
	// Tail labels the entry's split on /healthz and GET /v2/models.
	Tail SplitInfo
}

// SplitInfo is a split entry's "split" object on /healthz and GET
// /v2/models: the trunk stages it runs, its offloads' wire encoding, and
// the cloud and cloud entry it resumes on (empty for an in-process tail).
type SplitInfo struct {
	Stage      int    `json:"stage"`
	Encoding   string `json:"encoding,omitempty"`
	Cloud      string `json:"cloud,omitempty"`
	CloudModel string `json:"cloud_model,omitempty"`
}

// RegisterSplit publishes g under name as a split entry. A split entry is
// never swapped: PUT on its model or branches is refused, as is a later
// Register* under its name.
func (r *Registry) RegisterSplit(name string, g *core.Graph, sp Split) (*Model, error) {
	return r.swapIn(name, "", g, &sp)
}

// splitInfo is the entry's split object, nil for a local entry.
func (m *Model) splitInfo() *SplitInfo {
	if m.split == nil {
		return nil
	}
	return &m.split.Tail
}

// delta is the δ of the entry's identity policy: a split entry's, or the trained one.
func (m *Model) delta() float64 {
	if m.identity.Delta >= 0 {
		return m.identity.Delta
	}
	return m.cdln.Delta
}
