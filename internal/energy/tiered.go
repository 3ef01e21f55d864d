package energy

import (
	"fmt"

	"cdl/internal/core"
)

// Link models the edge→cloud transmission cost of a split deployment: a
// per-byte energy plus a fixed per-offload overhead (packetization, radio
// wake-up). Like the 45 nm compute table it is a calibrated model knob, not
// a measurement — the defaults are chosen so link and displaced-compute
// energy land in the same band, which is the regime where the split-point
// choice is a real trade-off (cf. Long et al. 2020).
type Link struct {
	// PJPerByte is the transmission energy per payload byte. The default,
	// 400 pJ/byte (50 pJ/bit), is representative of ultra-low-power
	// short-range transceivers of the 45 nm generation; a WiFi-class radio
	// is orders of magnitude costlier and makes offloading always lose.
	PJPerByte float64
	// PerOffloadPJ is the fixed cost of one transfer regardless of size.
	PerOffloadPJ float64
}

// DefaultLink returns the reference link model.
func DefaultLink() Link { return Link{PJPerByte: 400, PerOffloadPJ: 20000} }

// Validate checks the link model.
func (l Link) Validate() error {
	if l.PJPerByte < 0 || l.PerOffloadPJ < 0 {
		return fmt.Errorf("energy: negative link cost %+v", l)
	}
	return nil
}

// TransferPJ returns the energy of shipping one payload of the given size.
func (l Link) TransferPJ(bytes int) float64 {
	return l.PerOffloadPJ + l.PJPerByte*float64(bytes)
}

// TierCosts precomputes the per-exit energy split of an edge–cloud
// deployment cut after SplitStage cascade stages: an input exiting at exit
// i consumed Edge[i] pJ on the edge tier and Cloud[i] pJ on the cloud tier
// (link energy is per transfer, on the payload size the deployment's wire
// gives each exit: see ExitEnergies).
// Edge[i]+Cloud[i] always equals the monolithic exit energy, so tiered
// accounting never invents or loses compute energy — the split only moves
// it and adds the link.
type TierCosts struct {
	// SplitStage is the number of cascade stages the edge owns.
	SplitStage int
	// Edge[i] is the edge-tier pJ of an input exiting at exit i: the full
	// exit energy for local exits (i < SplitStage), the prefix energy for
	// offloaded ones.
	Edge []float64
	// Cloud[i] is the cloud-tier pJ of an input exiting at exit i; zero
	// for local exits.
	Cloud []float64
	// PrefixPJ is the edge-side cost of an offloaded input: the whole
	// prefix ran (including the last edge stage's classifier, whose
	// activation module declined to exit).
	PrefixPJ float64
	// Handoff[i] is the graph node an input exiting at exit i resumed in
	// on the cloud — 0 for the trunk's split point, a branch directly
	// under the trunk for a route that fired on the edge — or −1 for a
	// local exit. The resume point fixes the offload's size on the wire.
	Handoff []int
	// BaselinePJ is one unconditioned full forward pass, for
	// normalization.
	BaselinePJ float64
	// Link is the transmission model ExitEnergies and Summary charge.
	Link Link
}

// GraphTierCosts derives the per-exit tier split for a routing graph cut
// on the trunk after splitStage trunk stages (0 ships raw inputs,
// len(Stages) runs the whole trunk locally; a linear cascade is its
// core.LinearGraph). Trunk exits split at the cut: exits before it stay
// local, the rest offload after the prefix. A branch exit always implies
// an offload (routed inputs leave the trunk before the edge's share is
// done, and the branch runs on the cloud): its edge-side cost is the
// trunk prefix actually evaluated before departure — the trunk exit
// energy at the router stage when the route fired on the edge, the
// standard PrefixPJ when the input offloaded at the split before reaching
// the router — and the rest of the path is cloud compute.
// Edge[i]+Cloud[i] still equals the monolithic path energy for every
// exit, so the graph split moves compute without inventing it.
func (e Evaluator) GraphTierCosts(g *core.Graph, splitStage int, link Link) (*TierCosts, error) {
	if err := e.Acc.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := link.Validate(); err != nil {
		return nil, err
	}
	trunk := g.Trunk()
	if splitStage < 0 || splitStage > len(trunk.Stages) {
		return nil, fmt.Errorf("energy: split stage %d outside [0,%d]", splitStage, len(trunk.Stages))
	}
	exits := e.GraphExitEnergies(g)
	tc := &TierCosts{
		SplitStage: splitStage,
		Edge:       make([]float64, len(exits)),
		Cloud:      make([]float64, len(exits)),
		Handoff:    make([]int, len(exits)),
		BaselinePJ: e.BaselineEnergy(trunk),
		Link:       link,
	}
	if splitStage > 0 {
		// An offloading input ran the prefix through stage splitStage−1,
		// classifier included — exactly the cost of exiting there.
		tc.PrefixPJ = exits[splitStage-1]
	}
	// departure[n] is the trunk stage at which inputs bound for node n
	// leave the trunk: the router stage of n's trunk-level ancestor,
	// entry[n].
	departure, entry := make([]int, len(g.Nodes)), make([]int, len(g.Nodes))
	for ni := 1; ni < len(g.Nodes); ni++ {
		child := ni
		anc, stage := g.ParentOf(ni)
		for anc != 0 {
			child = anc
			anc, stage = g.ParentOf(anc)
		}
		departure[ni], entry[ni] = stage, child
	}
	for i, pj := range exits {
		node, local := g.NodeOfExit(i)
		switch {
		case node == 0 && local < splitStage:
			tc.Edge[i] = pj // local trunk exit
			tc.Handoff[i] = -1
		case node == 0:
			tc.Edge[i] = tc.PrefixPJ // offloaded at the split
			tc.Cloud[i] = pj - tc.PrefixPJ
		case departure[node] < splitStage:
			// The route fired on the edge: the edge paid the trunk prefix
			// through the router stage, then shipped the branch entry.
			tc.Edge[i] = exits[departure[node]]
			tc.Cloud[i] = pj - tc.Edge[i]
			tc.Handoff[i] = entry[node]
		default:
			// The input offloaded at the split before reaching the router;
			// the whole route and branch ran on the cloud.
			tc.Edge[i] = tc.PrefixPJ
			tc.Cloud[i] = pj - tc.PrefixPJ
		}
	}
	return tc, nil
}

// Offloaded reports whether an exit at index i implies the input crossed
// the link: the edge owns exits [0, SplitStage), everything deeper ran on
// the cloud.
func (tc *TierCosts) Offloaded(exitIndex int) bool { return exitIndex >= tc.SplitStage }

// TieredSummary is a snapshot of tiered energy accounting.
type TieredSummary struct {
	SplitStage int
	// Count is the number of inputs charged; Offloaded of them crossed
	// the link.
	Count     int64
	Offloaded int64
	// OffloadFraction is Offloaded/Count.
	OffloadFraction float64
	// WireBytes is the total payload shipped.
	WireBytes int64
	// EdgePJ/LinkPJ/CloudPJ/TotalPJ are summed over all inputs.
	EdgePJ  float64
	LinkPJ  float64
	CloudPJ float64
	TotalPJ float64
	// MeanEdgePJ/MeanLinkPJ/MeanCloudPJ/MeanTotalPJ are per input.
	MeanEdgePJ  float64
	MeanLinkPJ  float64
	MeanCloudPJ float64
	MeanTotalPJ float64
	// BaselinePJ is one unconditioned full pass; NormalizedTotal is
	// MeanTotalPJ over it (the monolithic CDLN's normalized energy plus
	// the link surcharge).
	BaselinePJ      float64
	NormalizedTotal float64
}

// linkPJ is the link energy an input exiting at exit i paid: one transfer
// of wireBytes[i] bytes when the exit lies past the split, nothing for a
// local exit.
func (tc *TierCosts) linkPJ(i int, wireBytes []int) float64 {
	if !tc.Offloaded(i) {
		return 0
	}
	return tc.Link.TransferPJ(wireBytes[i])
}

// ExitEnergies returns each exit's whole-system energy in a deployment
// whose offload of an input exiting at exit i ships wireBytes[i] bytes:
// Edge[i] + link + Cloud[i], summed in that order — what an edge's
// per-input tier split adds up to — so a local exit costs Edge[i].
func (tc *TierCosts) ExitEnergies(wireBytes []int) []float64 {
	out := make([]float64, len(tc.Edge))
	for i := range out {
		out[i] = tc.Edge[i] + tc.linkPJ(i, wireBytes) + tc.Cloud[i]
	}
	return out
}

// Summary folds per-exit input counts into the tiered view: each exit's
// inputs are charged its edge and cloud compute and, past the split, one
// transfer of wireBytes[i] each.
func (tc *TierCosts) Summary(exitCounts []int64, wireBytes []int) TieredSummary {
	s := TieredSummary{SplitStage: tc.SplitStage, BaselinePJ: tc.BaselinePJ}
	for i, c := range exitCounts {
		n := float64(c)
		s.Count += c
		s.EdgePJ += n * tc.Edge[i]
		s.LinkPJ += n * tc.linkPJ(i, wireBytes)
		s.CloudPJ += n * tc.Cloud[i]
		if tc.Offloaded(i) {
			s.Offloaded += c
			s.WireBytes += c * int64(wireBytes[i])
		}
	}
	s.TotalPJ = s.EdgePJ + s.LinkPJ + s.CloudPJ
	if s.Count > 0 {
		n := float64(s.Count)
		s.OffloadFraction = float64(s.Offloaded) / n
		s.MeanEdgePJ = s.EdgePJ / n
		s.MeanLinkPJ = s.LinkPJ / n
		s.MeanCloudPJ = s.CloudPJ / n
		s.MeanTotalPJ = s.TotalPJ / n
		if s.BaselinePJ > 0 {
			s.NormalizedTotal = s.MeanTotalPJ / s.BaselinePJ
		}
	}
	return s
}
