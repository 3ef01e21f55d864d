package core

import (
	"fmt"
	"sync"

	"cdl/internal/tensor"
)

// Session is a reusable single-goroutine classifier over a routing graph:
// the one executable walker of Algorithm 2 (batch.go) outside the
// reference oracle. It owns a private replica of every node's cascade
// (weights shared with the source model, caches private) plus the walk's
// scratch state, so repeated calls re-derive nothing. Every entry point is
// batch-shaped; a single input is a batch of one.
//
// A Session over LinearGraph(c) (what NewSession builds) produces records
// bit-identical to CDLN.Classify: a routeless trunk performs, per input,
// the reference walk's floating-point operations in the reference order.
// The graph walk only diverges where a Route actually fires.
//
// Scratch lifetime: every activation a call computes (stacked input,
// nn.ForwardBatchRange results, scores, the per-stage feature and survivor
// views) lives in lane-owned buffers under lane-owned headers, valid until
// the next call on the session. Nothing a call returns aliases them: every
// activation that outlives the walk is copied out first.
//
// A call may walk its image ranges on several lanes at once (batch.go's
// fan), but a Session is not safe for concurrent use; create one per worker.
type Session struct {
	graph *Graph
	model *CDLN // trunk replica, the entry cascade

	exitOps [][]float64 // per node: 0, then its ExitOps; fan prices a segment by difference
	// handoff[k] is the stride of a PrefixSlab slot for a prefix to trunk
	// stage k: the largest activation, in floats, it can hand off — the
	// trunk's at stage k or any branch's input (a route before the split
	// hands its row off at the branch's entry).
	handoff []int

	// lanes[0] walks the caller's range; more are built as calls split
	// wider. call is the current call, wg its join, node deliver's buffer.
	lanes []*lane
	call  laneCall
	wg    sync.WaitGroup
	node  []StageEvent

	// observer, when set, sees one StageEvent per executed unit of
	// cascade work (observe.go). Nil costs one pointer check per stage.
	observer func(StageEvent)
}

// lane walks one image range of a call over a private graph replica
// (weights shared) with its own scratch: score rows per exit point
// (rows[node][exit]), stacked input, scores, feature and survivor views,
// index map, buffered stage events, and run, its range's body bound once.
type lane struct {
	graph                       *Graph
	rows                        [][]*tensor.T
	bstack, bscores, feat, surv tensor.T
	bidx                        []int
	events                      []StageEvent
	evRows                      []int // the events' Rows (keepRows)
	run                         func()
}

// NewSession validates the model and returns a warm session over a private
// replica of it, as the trunk of the trivial linear graph. As with Clone,
// the baseline network's weight storage is shared with the source model,
// but the stage classifiers are deep-copied: later updates to the source's
// LC weights, thresholds or structure are NOT visible to the session —
// build new sessions after retraining.
func NewSession(c *CDLN) (*Session, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return newGraphSession(LinearGraph(c.Clone())), nil
}

// NewGraphSession validates the routing graph and returns a warm session
// over a private replica of it. Session sharing rules are as for
// NewSession, applied to every node.
func NewGraphSession(g *Graph) (*Session, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return newGraphSession(g.Clone()), nil
}

// newGraphSession wraps an already-private replica as lane 0's graph.
func newGraphSession(g *Graph) *Session {
	s := &Session{graph: g, model: g.Trunk(), lanes: []*lane{newLane(g)}}
	branch := 0
	for i, n := range g.Nodes {
		s.exitOps = append(s.exitOps, append([]float64{0}, n.Model.ExitOps()...))
		if i > 0 {
			branch = max(branch, numel(n.Model.Arch.Net.InShape))
		}
	}
	for k := range len(s.model.Stages) + 1 {
		s.handoff = append(s.handoff, max(branch, numel(s.model.Arch.Net.ShapeAt(s.model.SplitPos(k)))))
	}
	return s
}

// numel is the element count of a shape.
func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// newLane validates a private graph replica, building its derived routing
// tables, and allocates its score rows.
func newLane(g *Graph) *lane {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("core: session over invalid graph: %v", err))
	}
	l := &lane{graph: g, rows: make([][]*tensor.T, len(g.Nodes))}
	for ni, n := range g.Nodes {
		for _, st := range n.Model.Stages {
			l.rows[ni] = append(l.rows[ni], tensor.New(st.LC.Out))
		}
		l.rows[ni] = append(l.rows[ni], tensor.New(n.Model.Arch.NumClasses))
	}
	return l
}

// Graph returns the session's private routing graph replica (a one-node
// linear graph for NewSession-built sessions). Treat it as read-only.
func (s *Session) Graph() *Graph { return s.graph }

// Classify runs Algorithm 2 on one input with the model's trained
// thresholds: a batch of one through the session's one walker (batch.go).
// On a linear graph the record is bit-identical to CDLN.Classify on the
// same weights; on a routed graph undecided inputs may descend into
// branch cascades.
func (s *Session) Classify(x *tensor.T) ExitRecord {
	return s.ClassifyBatchPolicy([]*tensor.T{x}, DefaultExitPolicy())[0]
}

// ClassifyDelta is Classify with a per-call confidence threshold: delta in
// [0,1] overrides every node's Delta and StageDeltas for this input only
// (the paper's §III.B runtime accuracy/efficiency knob, exposed per request
// by the serving layer); a negative delta keeps the trained thresholds.
func (s *Session) ClassifyDelta(x *tensor.T, delta float64) ExitRecord {
	return s.ClassifyBatchPolicy([]*tensor.T{x}, DeltaPolicy(delta))[0]
}

// PrefixResult is the outcome of the edge-side half of a tier-split
// classification (ClassifyPrefixBatchPolicy): either the input exited
// locally and Record is final, or the cascade must continue past the split
// and (Node, FromStage, Pos, Activation) describe what to hand to
// ResumeBatchPolicyAt on the other tier.
type PrefixResult struct {
	// Record is the final classification; valid only when Exited. Under a
	// Trace policy a deferred input's Record carries only its Trace: the
	// confidences of the exit points the prefix evaluated, which the other
	// tier's continue.
	Record ExitRecord
	// Exited reports whether a prefix stage's activation module fired.
	Exited bool
	// Activation is the intermediate activation at the handoff point; valid
	// only when !Exited. Survivor compaction reuses the walk's buffers, so
	// deferred rows are copied out: into a fresh slab private to the call's
	// results under ClassifyPrefixBatchPolicy (a caller may hold a whole
	// batch's activations across later session use), into the caller's
	// slab, valid until its next use, under ClassifyPrefixInto.
	Activation *tensor.T
	// Node is the graph node the other tier must resume in: 0 when the
	// input reached the trunk split stage undecided, or a branch index when
	// a trunk route fired before the split (the edge owns only the trunk
	// prefix, so a routed input is handed off at the branch's entry).
	Node int
	// FromStage is the node-local stage to resume from: the split stage
	// for an unrouted handoff, 0 for a branch-entry handoff.
	FromStage int
	// Pos is the number of the node's baseline layers composing Activation
	// — the node model's SplitPos(FromStage), recorded here so transports
	// need not re-derive it.
	Pos int
}
