package core

// batch.go is the Session walker: the one executable form of Algorithm 2
// over a routing graph outside the reference oracle (Graph.classify). It
// runs the cascade over a whole micro-batch at once — a single input is a
// batch of one. Between taps the baseline advances with nn's batched GEMM
// pipeline (one im2col+GEMM per conv layer for every still-active sample),
// each stage's classifier scores the whole batch in one call, the δ exit
// rule is applied per sample, and survivors are compacted to the front of
// the activation buffer so exited samples stop paying for deeper layers —
// the batch equivalent of Algorithm 2's "deeper layers of a terminated
// input are never executed".
//
// Routing generalizes the compaction three-ways: a row either exits
// (record written), continues on the current node (compacted forward), or
// is handed to a branch node (gathered into a fresh per-branch batch,
// queued behind the current node's walk). A node with no routes performs
// the two-way loop of the linear cascade, and every per-sample float is
// produced by the same operations in the same order as the reference walk
// (see nn/gemm.go and linclass.ScoresBatchInto for the order pins), so for
// each input the ExitRecord — exit stage, label, confidence, op count —
// equals the reference record exactly, at every batch size. A tier split
// is the same walk with a non-default start (ResumeBatchPolicyAt) or stop
// (ClassifyPrefixBatchPolicy). The differential harnesses in batch_test.go,
// graph_test.go and linear_equiv_test.go enforce this across randomized
// batches; DESIGN.md §2 documents the 1e-9 contract the harness
// over-delivers on.

import (
	"fmt"
	"time"

	"cdl/internal/tensor"
)

// batchGroup is one node's share of an in-flight batch: the stacked
// activations of the rows currently walking that node, their position in
// the node's baseline, the stage to continue from, and the row→input
// index map.
type batchGroup struct {
	node, from, pos int
	act             *tensor.T
	idx             []int
}

// ClassifyBatchPolicy runs Algorithm 2 over a micro-batch under an
// ExitPolicy: per-call thresholds, depth cap and trace detail (see
// ExitPolicy; DefaultExitPolicy keeps the trained behaviour, DeltaPolicy
// spells a bare δ). Records are in input order, each identical to what the
// input would get alone. Inputs must match the model's input shape.
func (s *Session) ClassifyBatchPolicy(xs []*tensor.T, pol ExitPolicy) []ExitRecord {
	return s.ResumeBatchPolicyAt(xs, 0, 0, pol)
}

// ResumeBatchPolicyAt continues Algorithm 2 past a tier split at any graph
// node for a whole batch of deferred activations: each act sits after
// SplitPos(fromStage) baseline layers of the node's cascade (a
// branch-entry handoff is (node, 0)), and the remaining cascade — the
// node's stages, routed branches, FC tails — runs here. (0, 0) is the
// monolithic classification; for any split, prefix plus resume performs the
// same floating-point operations in the same order as the monolithic walk,
// so tier-split results are bit-identical. A MaxExit depth cap below the
// resume point's path depth cannot be satisfied (those exit points already
// ran on the other tier) and panics, as does an activation whose shape
// does not match the model at the split position; network-facing callers
// validate first with Graph.ValidateResume and serve's policy resolution
// plus an explicit depth check.
func (s *Session) ResumeBatchPolicyAt(acts []*tensor.T, node, fromStage int, pol ExitPolicy) []ExitRecord {
	g := s.graph
	if node < 0 || node >= len(g.Nodes) {
		panic(fmt.Sprintf("core: ResumeBatch node %d outside [0,%d)", node, len(g.Nodes)))
	}
	pos := g.Nodes[node].Model.SplitPos(fromStage) // validates fromStage
	s.checkStageDeltas(pol)
	capG := g.maxExit(pol)
	if depth := g.EntryDepth(node) + fromStage; capG < depth {
		panic(fmt.Sprintf("core: policy max exit %d precedes resume depth %d", capG, depth))
	}
	if len(acts) == 0 {
		return nil
	}
	want := g.Nodes[node].Model.Arch.Net.ShapeAt(pos)
	for i, a := range acts {
		if !a.HasShape(want) {
			panic(fmt.Sprintf("core: ResumeBatch activation %d: %v", i, g.ValidateResume(node, fromStage, pos, a.Shape())))
		}
	}
	recs := make([]ExitRecord, len(acts))
	act, idx := s.stackBatch(acts, want)
	grp := batchGroup{node: node, from: fromStage, pos: pos, act: act, idx: idx}
	var queue []batchGroup // routed groups, in dispatch order
	for {
		// The node's share of the path-depth cap: its FC when the cap lies
		// beyond its stages, the forced exit at the capped stage otherwise.
		to := min(capG-g.EntryDepth(grp.node), len(g.Nodes[grp.node].Model.Stages))
		s.walk(grp, to, true, pol, recs, &queue)
		if len(queue) == 0 {
			return recs
		}
		grp, queue = queue[0], queue[1:]
	}
}

// ClassifyPrefixBatchPolicy runs the first splitStage trunk cascade stages
// over a batch — the edge tier's share of Algorithm 2 — returning one
// PrefixResult per input in input order: the final record when a prefix
// stage's activation module fired (bit-identical to the monolithic walk's,
// including full-pipeline Ops accounting), otherwise a private copy of the
// activation to resume from — at (trunk, splitStage) normally, or at a
// branch's entry when a trunk route fired before the split. splitStage
// must be in [0, len(trunk.Stages)]: 0 owns no stages and always defers,
// len(Stages) owns the whole trunk and defers only the FC tail (plus any
// routed branches).
//
// A depth cap at or below the split stage resolves the unrouted share of
// the batch locally (those PrefixResults are Exited — nothing left to
// offload): survivors of the conditional stages are forced out at the cap
// exactly as ResumeBatchPolicyAt would, which is how an edge node sheds its
// offload traffic under an SLO controller without touching the cloud tier.
// Rows a trunk route dispatches to a branch always defer — the edge owns
// only the trunk prefix, and the branch's share of the cap is the cloud's
// to enforce — so prefix+resume stays bit-identical to the monolithic walk
// under every policy.
func (s *Session) ClassifyPrefixBatchPolicy(xs []*tensor.T, splitStage int, pol ExitPolicy) []PrefixResult {
	s.model.SplitPos(splitStage) // validates splitStage
	s.checkStageDeltas(pol)
	if len(xs) == 0 {
		return nil
	}
	to, forced := splitStage, false
	if capG := s.graph.maxExit(pol); capG < splitStage {
		to, forced = capG, true
	}
	recs := make([]ExitRecord, len(xs))
	act, idx := s.stackBatch(xs, s.model.Arch.Net.InShape)
	var routed []batchGroup
	rest := s.walk(batchGroup{act: act, idx: idx}, to, forced, pol, recs, &routed)
	results := make([]PrefixResult, len(xs))
	for i, rec := range recs {
		results[i] = PrefixResult{Record: rec, Exited: true}
	}
	if len(rest.idx) > 0 {
		sshape := rest.act.Shape()[1:]
		ssz := rest.act.Numel() / len(rest.idx)
		for r, orig := range rest.idx {
			private := tensor.New(sshape...)
			copy(private.Data, rest.act.Data[r*ssz:(r+1)*ssz])
			results[orig] = PrefixResult{Activation: private, Node: 0, FromStage: splitStage, Pos: rest.pos}
		}
	}
	for _, grp := range routed {
		// Routed rows were gathered into fresh buffers, so disjoint views
		// are already private.
		sshape := grp.act.Shape()[1:]
		ssz := grp.act.Numel() / len(grp.idx)
		for r, orig := range grp.idx {
			view := tensor.FromSlice(grp.act.Data[r*ssz:(r+1)*ssz], sshape...)
			results[orig] = PrefixResult{Activation: view, Node: grp.node, FromStage: 0, Pos: 0}
		}
	}
	return results
}

// checkStageDeltas panics on a policy whose per-stage thresholds do not
// name the trunk's stages (network-facing callers reject it earlier, in
// serve's policy resolution).
func (s *Session) checkStageDeltas(pol ExitPolicy) {
	if pol.StageDeltas != nil && len(pol.StageDeltas) != len(s.model.Stages) {
		panic(fmt.Sprintf("core: policy has %d stage deltas for %d stages", len(pol.StageDeltas), len(s.model.Stages)))
	}
}

// stackBatch copies the per-sample activations, each of shape sshape, into
// one contiguous batched tensor [B, ...sshape] and returns it with the
// identity row→input index map. Both live in session scratch, valid until
// the next call on this session.
func (s *Session) stackBatch(xs []*tensor.T, sshape []int) (*tensor.T, []int) {
	ssz := 1
	for _, d := range sshape {
		ssz *= d
	}
	buf := s.bstack.Data
	if cap(buf) < len(xs)*ssz {
		buf = make([]float64, len(xs)*ssz)
	}
	shape := append(make([]int, 1, 8), sshape...) // constant cap: stays on the stack
	shape[0] = len(xs)
	act := s.bstack.Point(buf[:len(xs)*ssz], shape...)
	for i, x := range xs {
		if x.Numel() != ssz {
			panic(fmt.Sprintf("core: batch input %d numel %d, want %d (shape %v)", i, x.Numel(), ssz, sshape))
		}
		copy(act.Data[i*ssz:(i+1)*ssz], x.Data)
	}
	if cap(s.bidx) < len(xs) {
		s.bidx = make([]int, len(xs))
	}
	idx := s.bidx[:len(xs)]
	for i := range idx {
		idx[i] = i
	}
	return act, idx
}

// walk is Algorithm 2 for one node's rows: at each exit point from
// grp.from on, run the baseline to the tap, score the stage classifier and
// apply the activation module per row, writing an ExitRecord into
// recs[idx[r]] for every row that exits, gathering rows a route dispatches
// into per-branch groups appended to routed, and compacting the remaining
// survivors in place. Exit points before `to` are conditional. With
// terminate set, exit point `to` is the unconditional terminator every
// surviving row leaves at — the node's FC output when `to` is its stage
// count, else the capped stage's classifier verdict whatever its
// confidence (the ExitPolicy.MaxExit forced exit: the baseline advances
// only to that stage's tap, so the exit's path cost stays exact). Without
// it the walk stops after the conditional stages and returns the survivors
// — activation, baseline position reached, index map — for the other tier.
// With pol.Trace each evaluated exit point's winning confidence is
// appended to the sample's record; a routed sample's trace keeps
// accumulating in its branch group.
func (s *Session) walk(grp batchGroup, to int, terminate bool, pol ExitPolicy, recs []ExitRecord, routed *[]batchGroup) batchGroup {
	g, node := s.graph, grp.node
	c := g.Nodes[node].Model
	act, pos, idx := grp.act, grp.pos, grp.idx
	for i := grp.from; len(idx) > 0 && (i < to || terminate && i == to); i++ {
		var evStart time.Time
		var evRows []int
		if s.observer != nil {
			// Copy before the row loop: compaction rewrites idx in place.
			evStart = time.Now()
			evRows = append([]int(nil), idx...)
		}
		nAct := len(idx)
		// Advance to exit point i and score it: the stage classifier at its
		// tap, or the baseline's own output layer at the FC.
		kind, last := StageForward, i == to
		var scores []float64
		var delta float64
		var route *Route
		if i == len(c.Stages) {
			kind = StageFinal
			act = c.Arch.Net.ForwardBatchRange(act, pos, len(c.Arch.Net.Layers))
			pos = len(c.Arch.Net.Layers)
			scores = act.Data
		} else {
			st := c.Stages[i]
			act = c.Arch.Net.ForwardBatchRange(act, pos, st.Tap)
			pos = st.Tap
			scores = s.bscores.Data
			if cap(scores) < nAct*st.LC.Out {
				scores = make([]float64, nAct*st.LC.Out)
			}
			scores = scores[:nAct*st.LC.Out]
			st.LC.ScoresBatchInto(act.Reshape(nAct, act.Numel()/nAct), s.bscores.Point(scores, nAct, st.LC.Out))
			if last {
				kind = StageForced
			} else {
				delta = s.stageDeltaAt(node, i, pol)
				route = g.routeFor(node, i)
			}
		}
		ssz := act.Numel() / nAct
		width := len(scores) / nAct
		// Per-branch gathers for this stage's routed rows: rows with the
		// same target accumulate into one fresh buffer, flushed into routed
		// as a batchGroup once the stage's row loop completes.
		type pending struct {
			node int
			data []float64
			idx  []int
		}
		var hand []pending
		row := s.rows[node][i]
		w := 0
		for r := 0; r < nAct; r++ {
			copy(row.Data, scores[r*width:(r+1)*width])
			orig := idx[r]
			conf, class := row.Max()
			if pol.Trace {
				recs[orig].Trace = append(recs[orig].Trace, conf)
			}
			if last || c.Rule.ShouldExit(row, delta) {
				rec := g.exitRecord(node, i, class, conf)
				rec.Trace = recs[orig].Trace
				recs[orig] = rec
				continue
			}
			if route != nil {
				if t := route.Branch[class]; t >= 0 {
					// Copy the row out now — compaction may overwrite it
					// before the stage's row loop completes.
					hi := -1
					for h := range hand {
						if hand[h].node == t {
							hi = h
							break
						}
					}
					if hi < 0 {
						hand = append(hand, pending{node: t})
						hi = len(hand) - 1
					}
					hand[hi].data = append(hand[hi].data, act.Data[r*ssz:(r+1)*ssz]...)
					hand[hi].idx = append(hand[hi].idx, orig)
					continue
				}
			}
			if w != r {
				copy(act.Data[w*ssz:(w+1)*ssz], act.Data[r*ssz:(r+1)*ssz])
			}
			idx[w] = orig
			w++
		}
		if s.observer != nil {
			evEnd := time.Now()
			s.observer(StageEvent{Kind: kind, Node: node, Stage: i, Rows: evRows, Start: evStart, End: evEnd})
			for _, h := range hand {
				s.observer(StageEvent{Kind: StageRoute, Node: node, Stage: i, Branch: h.node, Rows: h.idx, Start: evEnd, End: evEnd})
			}
		}
		for _, h := range hand {
			shape := g.Nodes[h.node].Model.Arch.Net.InShape
			*routed = append(*routed, batchGroup{
				node: h.node,
				act:  tensor.FromSlice(h.data, append([]int{len(h.idx)}, shape...)...),
				idx:  h.idx,
			})
		}
		idx = idx[:w]
		if 0 < w && w < nAct {
			act = act.Head(w)
		}
	}
	return batchGroup{node: node, pos: pos, act: act, idx: idx}
}

// stageDeltaAt resolves the effective threshold for a node's stage i under
// a policy: the node's trained value, then the policy's global Delta, then
// — for trunk stages only — the policy's per-stage entry (per-stage
// overrides name trunk stages; branch stages keep their own trained
// thresholds under the global override).
func (s *Session) stageDeltaAt(node, i int, p ExitPolicy) float64 {
	c := s.graph.Nodes[node].Model
	d := c.Delta
	if c.StageDeltas != nil {
		d = c.StageDeltas[i]
	}
	if p.Delta >= 0 {
		d = p.Delta
	}
	if node == 0 && p.StageDeltas != nil && p.StageDeltas[i] >= 0 {
		d = p.StageDeltas[i]
	}
	return d
}
