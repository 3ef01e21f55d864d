package core

import (
	"fmt"
	"strings"

	"cdl/internal/linclass"
	"cdl/internal/nn"
	"cdl/internal/opcount"
	"cdl/internal/tensor"
)

// Stage is one early-exit point of the cascade: a tap into the baseline
// network (the features after Tap leading layers, i.e. a pooling-layer
// output) feeding a trained linear classifier.
type Stage struct {
	// Name labels the stage's output layer ("O1", "O2", ...).
	Name string
	// Tap is the number of leading baseline layers composing this stage's
	// feature tensor.
	Tap int
	// LC is the stage's linear classifier.
	LC *linclass.Classifier
	// Gain is the Eq. 1 gain recorded when Algorithm 1 admitted the stage
	// (per-input ops saved; see Build).
	Gain float64
}

// CDLN is a Conditional Deep Learning Network: a trained baseline DLN plus
// the admitted early-exit stages, the confidence threshold δ and the exit
// rule. The final output layer (FC) of the baseline always terminates the
// cascade.
type CDLN struct {
	// Arch is the baseline network and its tap metadata.
	Arch *nn.Arch
	// Stages are the admitted early-exit stages in depth order.
	Stages []*Stage
	// Delta is the runtime confidence threshold δ (paper §III.B: adjustable
	// at runtime to trade accuracy for efficiency).
	Delta float64
	// StageDeltas, when non-nil, overrides Delta with one threshold per
	// stage (an extension beyond the paper's single knob; see TuneDeltas).
	// Its length must equal len(Stages).
	StageDeltas []float64
	// Rule is the activation module's decision function.
	Rule ExitRule
	// Ops is the operation-accounting model used for cost reporting.
	Ops opcount.Model
}

// ExitRecord describes how one input was classified.
type ExitRecord struct {
	// Node is the routing-graph node the exit was taken in: 0 for the
	// trunk (always 0 for a linear cascade), a branch index when a Route
	// dispatched the input to a branch subnetwork.
	Node int
	// StageIndex is the global exit index: for a linear cascade, the index
	// into Stages of the exit point, or len(Stages) when the input reached
	// the final FC layer. For a routing graph, exits are numbered node by
	// node (Graph.NodeOfExit inverts it), which coincides with the linear
	// numbering on the trunk.
	StageIndex int
	// StageName is "O1".."On" or "FC", qualified with the branch name
	// ("even/O1") for branch exits.
	StageName string
	// Label is the predicted class.
	Label int
	// Confidence is the winning score at the exit point.
	Confidence float64
	// Ops is the dynamic operation count spent on this input (baseline
	// layers executed plus every linear classifier evaluated).
	Ops float64
	// Trace, populated only under an ExitPolicy with Trace set, holds the
	// winning confidence at every exit point evaluated for this input (in
	// cascade order, ending with the exit actually taken).
	Trace []float64
}

// Equal reports whether two records describe the same classification:
// every scalar field matches exactly (bit-identity, the contract the
// differential harnesses assert). Traces are ignored — they are a detail
// level, not part of the classification outcome.
func (r ExitRecord) Equal(o ExitRecord) bool {
	return r.Node == o.Node && r.StageIndex == o.StageIndex && r.StageName == o.StageName &&
		r.Label == o.Label && r.Confidence == o.Confidence && r.Ops == o.Ops
}

// NumExits returns the number of possible exit points (stages plus FC).
//
// This is a LINEAR-cascade count: it assumes every exit lives on the one
// trunk. Callers sizing per-exit tables for a served model must use
// Graph.NumExits, which degenerates to this for a one-node graph —
// indexing a graph model's records by a CDLN's count is a bounds bug (the
// energy Accumulator and serve metrics are graph-sized for this reason).
func (c *CDLN) NumExits() int { return len(c.Stages) + 1 }

// ExitName returns the display name of exit point i (StageIndex
// semantics). Linear-cascade naming; Graph.ExitName qualifies branch
// exits.
func (c *CDLN) ExitName(i int) string {
	if i < len(c.Stages) {
		return c.Stages[i].Name
	}
	return "FC"
}

// Validate checks structural consistency.
func (c *CDLN) Validate() error {
	if c.Arch == nil {
		return fmt.Errorf("core: CDLN has no arch")
	}
	if err := c.Arch.Validate(); err != nil {
		return err
	}
	if c.Rule == nil {
		return fmt.Errorf("core: CDLN has no exit rule")
	}
	if c.Delta < 0 || c.Delta > 1 {
		return fmt.Errorf("core: delta %v outside [0,1]", c.Delta)
	}
	if c.StageDeltas != nil {
		if len(c.StageDeltas) != len(c.Stages) {
			return fmt.Errorf("core: %d stage deltas for %d stages", len(c.StageDeltas), len(c.Stages))
		}
		for i, d := range c.StageDeltas {
			if d < 0 || d > 1 {
				return fmt.Errorf("core: stage %d delta %v outside [0,1]", i, d)
			}
		}
	}
	prev := 0
	for i, s := range c.Stages {
		if s.Tap <= prev || s.Tap >= len(c.Arch.Net.Layers) {
			return fmt.Errorf("core: stage %d tap %d out of order or range", i, s.Tap)
		}
		prev = s.Tap
		want := 1
		for _, d := range c.Arch.Net.ShapeAt(s.Tap) {
			want *= d
		}
		if s.LC == nil || s.LC.In != want {
			return fmt.Errorf("core: stage %s classifier width mismatch (want %d)", s.Name, want)
		}
	}
	return nil
}

// ExitOps returns the dynamic op cost of exiting at each exit point:
// result[i] for stage i, result[len(Stages)] for the final FC exit. An
// input exiting at stage i has run the baseline through the stage's tap
// plus every linear classifier up to and including stage i; an input
// reaching FC has run the whole baseline plus all stage classifiers.
func (c *CDLN) ExitOps() []float64 {
	cum := c.Ops.CumulativeOps(c.Arch.Net)
	out := make([]float64, len(c.Stages)+1)
	lcSoFar := 0.0
	for i, s := range c.Stages {
		lcSoFar += c.Ops.LinearClassifierOps(s.LC.In, s.LC.Out)
		out[i] = cum[s.Tap] + lcSoFar
	}
	out[len(c.Stages)] = cum[len(cum)-1] + lcSoFar
	return out
}

// BaselineOps returns γ_base: the cost of one full baseline forward pass.
func (c *CDLN) BaselineOps() float64 { return c.Ops.NetworkOps(c.Arch.Net) }

// Classify runs Algorithm 2 on one input: evaluate stages in depth order,
// resume the baseline network between taps (deeper layers of a terminated
// input are never executed), and exit when the activation module fires or
// the final FC layer is reached. It is the reference oracle — the walk of
// the trivial one-node graph — that the differential suites and the
// benchmark compare the Session walker against.
//
// Classify mutates per-layer forward caches, so a CDLN must not be shared
// across goroutines; use Clone for parallel evaluation, or a Session for
// the batched fast path.
func (c *CDLN) Classify(x *tensor.T) ExitRecord {
	return LinearGraph(c).classify(x)
}

// classify is the reference definition of Algorithm 2 over a routing
// graph: one input, one layer at a time (ForwardRange, never the batched
// GEMM pipeline), each node's trained thresholds. At every stage it runs
// the baseline to the tap, scores the stage classifier and exits if the
// activation module fires; otherwise a route may hand the activation to a
// branch, and a node that runs out of stages terminates at its FC. It is
// deliberately independent of the Session walker (batch.go) — no shared
// scratch, no compaction, no policy — so that walker always has something
// to be differentially tested against. A δ override is expressed by
// setting Delta/StageDeltas on a clone.
func (g *Graph) classify(x *tensor.T) ExitRecord {
	node, act := 0, x
walk:
	for {
		c := g.Nodes[node].Model
		pos := 0
		for i, st := range c.Stages {
			act = c.Arch.Net.ForwardRange(act, pos, st.Tap)
			pos = st.Tap
			scores := st.LC.Scores(act)
			delta := c.Delta
			if c.StageDeltas != nil {
				delta = c.StageDeltas[i]
			}
			conf, class := scores.Max()
			if c.Rule.ShouldExit(scores, delta) {
				return g.exitRecord(node, i, class, conf)
			}
			if r := g.routeFor(node, i); r != nil && r.Branch[class] >= 0 {
				node = r.Branch[class]
				continue walk
			}
		}
		act = c.Arch.Net.ForwardRange(act, pos, len(c.Arch.Net.Layers))
		conf, class := act.Max()
		return g.exitRecord(node, len(c.Stages), class, conf)
	}
}

// SplitPos returns the baseline-layer position of the activation handed
// across a tier split after splitStage cascade stages: 0 when splitStage is
// 0 (the raw input is shipped) and the tap of stage splitStage−1 otherwise.
// It panics when splitStage is outside [0, len(Stages)].
func (c *CDLN) SplitPos(splitStage int) int {
	if splitStage < 0 || splitStage > len(c.Stages) {
		panic(fmt.Sprintf("core: split stage %d outside [0,%d]", splitStage, len(c.Stages)))
	}
	if splitStage == 0 {
		return 0
	}
	return c.Stages[splitStage-1].Tap
}

// validateResume checks a tier-split handoff against this model: the
// resume stage must exist, pos must be the stage's SplitPos, and the
// activation shape must be shapes[fromStage], the network's shape there
// (the graph tables hold one per stage). Graph.ValidateResume, the one
// validation shared by every resume entry point, applies it to the named
// node's cascade.
func (c *CDLN) validateResume(shapes [][]int, fromStage, pos int, shape []int) error {
	if fromStage < 0 || fromStage > len(c.Stages) {
		return fmt.Errorf("core: resume stage %d outside [0,%d]", fromStage, len(c.Stages))
	}
	if want := c.SplitPos(fromStage); pos != want {
		return fmt.Errorf("core: activation position %d, want %d for stage %d", pos, want, fromStage)
	}
	want := shapes[fromStage]
	if len(shape) != len(want) {
		return fmt.Errorf("core: activation rank %d, want %d (shape %v)", len(shape), len(want), want)
	}
	for i := range want {
		if shape[i] != want[i] {
			return fmt.Errorf("core: activation shape %v, want %v", shape, want)
		}
	}
	return nil
}

// Clone returns a CDLN replica safe for concurrent use: the baseline
// network replica shares weights (read-only during inference) and the
// linear classifiers are deep-copied.
func (c *CDLN) Clone() *CDLN {
	stages := make([]*Stage, len(c.Stages))
	for i, s := range c.Stages {
		stages[i] = &Stage{Name: s.Name, Tap: s.Tap, LC: s.LC.Clone(), Gain: s.Gain}
	}
	arch := &nn.Arch{
		Name:       c.Arch.Name,
		Net:        c.Arch.Net.Clone(),
		Taps:       append([]int(nil), c.Arch.Taps...),
		TapNames:   append([]string(nil), c.Arch.TapNames...),
		NumClasses: c.Arch.NumClasses,
	}
	var stageDeltas []float64
	if c.StageDeltas != nil {
		stageDeltas = append([]float64(nil), c.StageDeltas...)
	}
	return &CDLN{
		Arch: arch, Stages: stages,
		Delta: c.Delta, StageDeltas: stageDeltas,
		Rule: c.Rule, Ops: c.Ops,
	}
}

// Summary renders the cascade structure with per-exit costs.
func (c *CDLN) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CDLN on %s baseline (δ=%.2f, rule=%s)\n", c.Arch.Name, c.Delta, c.Rule.Name())
	exitOps := c.ExitOps()
	base := c.BaselineOps()
	for i, s := range c.Stages {
		fmt.Fprintf(&b, "  %-4s tap=%d features=%d exitOps=%.0f (%.2fx baseline) gain=%.1f\n",
			s.Name, s.Tap, s.LC.In, exitOps[i], exitOps[i]/base, s.Gain)
	}
	fmt.Fprintf(&b, "  %-4s exitOps=%.0f (%.2fx baseline)\n", "FC", exitOps[len(c.Stages)], exitOps[len(c.Stages)]/base)
	return b.String()
}
