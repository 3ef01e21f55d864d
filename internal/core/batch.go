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
// (ClassifyPrefixBatchPolicy). Each call forks once (fan): contiguous
// image ranges walk to completion on lanes of their own, and no float
// crosses a range boundary. The differential harnesses in batch_test.go,
// graph_test.go and linear_equiv_test.go enforce this across randomized
// batches; DESIGN.md §2 documents the 1e-9 contract the harness
// over-delivers on.

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
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
// plus an explicit depth check. It is ResumeBatchInto(nil, …): the records
// are the caller's own.
func (s *Session) ResumeBatchPolicyAt(acts []*tensor.T, node, fromStage int, pol ExitPolicy) []ExitRecord {
	return s.ResumeBatchInto(nil, acts, node, fromStage, pol)
}

// ResumeBatchInto is ResumeBatchPolicyAt writing the records into dst's
// storage, grown to len(acts) and zeroed first, so a record's Trace never
// shares an array with one written before: the returned records live
// there until dst's next use. A walker that hands its records on by copy
// reuses one dst call after call.
func (s *Session) ResumeBatchInto(dst []ExitRecord, acts []*tensor.T, node, fromStage int, pol ExitPolicy) []ExitRecord {
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
		return dst[:0]
	}
	recs := slices.Grow(dst[:0], len(acts))[:len(acts)]
	clear(recs)
	shape := g.tables().resumeShape[node][fromStage]
	s.fan(laneCall{xs: acts, shape: shape, recs: recs, node: node, from: fromStage, pos: pos, to: capG, pol: pol})
	return recs
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
// routed branches). It is ClassifyPrefixInto over a fresh slab, so a
// caller may hold a whole batch's results across later session use.
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
	return s.ClassifyPrefixInto(new(PrefixSlab), xs, splitStage, pol)
}

// PrefixSlab is caller-owned storage for ClassifyPrefixInto: the results,
// each deferred activation in its input's fixed-stride slot, and the
// headers the activations are viewed under. It grows to the largest batch
// it has held and is reused call after call; the zero value is ready.
type PrefixSlab struct {
	res   []PrefixResult
	data  []float64
	heads []tensor.T
}

// ClassifyPrefixInto is ClassifyPrefixBatchPolicy writing into slab: the
// returned results, and every deferred activation, live there until the
// slab's next use, and nothing of them in session scratch. Input i's
// activation is written only into slot i of the slab, whose stride is the
// largest handoff a prefix to splitStage can make (sized when the session
// was built), so the call's lanes write without coordinating.
func (s *Session) ClassifyPrefixInto(slab *PrefixSlab, xs []*tensor.T, splitStage int, pol ExitPolicy) []PrefixResult {
	s.model.SplitPos(splitStage) // validates splitStage
	s.checkStageDeltas(pol)
	if len(xs) == 0 {
		return nil
	}
	to, forced := splitStage, false
	if capG := s.graph.maxExit(pol); capG < splitStage {
		to, forced = capG, true
	}
	b, stride := len(xs), s.handoff[splitStage]
	slab.res = slices.Grow(slab.res[:0], b)[:b]
	clear(slab.res)
	slab.data = slices.Grow(slab.data[:0], b*stride)[:b*stride]
	if len(slab.heads) < b {
		slab.heads = make([]tensor.T, b)
	}
	s.fan(laneCall{xs: xs, shape: s.model.Arch.Net.InShape, pres: slab.res, slab: slab, stride: stride, to: to, forced: forced, pol: pol})
	return slab.res
}

// checkStageDeltas panics on a policy whose per-stage thresholds do not
// name the trunk's stages (network-facing callers reject it earlier, in
// serve's policy resolution).
func (s *Session) checkStageDeltas(pol ExitPolicy) {
	if pol.StageDeltas != nil && len(pol.StageDeltas) != len(s.model.Stages) {
		panic(fmt.Sprintf("core: policy has %d stage deltas for %d stages", len(pol.StageDeltas), len(s.model.Stages)))
	}
}

// fanOps is the least work worth a lane, in ops (≈ MACs: 2¹⁶ is 2¹⁷
// flops) of a call's first segment summed over its inputs. Below it waking
// an idle P (≈ 0.1 ms at p50) costs more than sharing the images saves.
const fanOps = 1 << 16

// laneCall is one call's arguments, written before any lane starts. Lane r
// walks inputs [r·per, (r+1)·per) and writes each outcome into the call's
// one result slice at the input's index: recs for a resume, pres a prefix.
type laneCall struct {
	xs              []*tensor.T
	shape           []int // one input's shape
	recs            []ExitRecord
	pres            []PrefixResult
	slab            *PrefixSlab // prefix: where deferred rows go, slot i at i·stride
	stride          int
	node, from, pos int  // where the walk starts
	to              int  // resume: the path-depth cap; prefix: the last stage walked
	forced          bool // prefix: stage `to` is a forced exit
	pol             ExitPolicy
	per             int
	observer        func(StageEvent) // non-nil: lanes buffer events for the caller to deliver
}

// record is where input i's exit record goes.
func (c *laneCall) record(i int) *ExitRecord {
	if c.pres != nil {
		return &c.pres[i].Record
	}
	return &c.recs[i]
}

// fan is a call's one fork: B inputs split into min(GOMAXPROCS, B,
// B·segOps/fanOps) ranges of ⌈B/ranges⌉, recounted so none is empty, where
// segOps is the per-input cost of the walk's first segment (consecutive
// ExitOps entries). The caller checks the shapes, walks range 0 and, after
// the join, delivers the stage events. A batch of one never builds a lane.
func (s *Session) fan(c laneCall) {
	for i, x := range c.xs {
		if !x.HasShape(c.shape) {
			panic(fmt.Sprintf("core: batch input %d: %v", i, s.graph.ValidateResume(c.node, c.from, c.pos, x.Shape())))
		}
	}
	b, ops := len(c.xs), s.exitOps[c.node]
	ranges := max(1, min(runtime.GOMAXPROCS(0), b, int(float64(b)*(ops[c.from+1]-ops[c.from])/fanOps)))
	c.per, c.observer = (b+ranges-1)/ranges, s.observer
	ranges = (b + c.per - 1) / c.per
	s.call = c
	for len(s.lanes) < ranges {
		l, r := newLane(s.graph.Clone()), len(s.lanes)
		l.run = func() { s.walkRange(l, r); s.wg.Done() }
		s.lanes = append(s.lanes, l)
	}
	s.wg.Add(ranges - 1)
	for _, l := range s.lanes[1:ranges] {
		go l.run()
	}
	s.walkRange(s.lanes[0], 0)
	s.wg.Wait()
	if c.observer != nil {
		s.deliver(s.lanes[:ranges], c.node)
	}
}

// walkRange walks range r of the current call to completion on lane l: a
// resume's stages, branch queue and FC tails, or a prefix and its handoffs,
// each deferred row copied into its input's slot of the call's slab.
func (s *Session) walkRange(l *lane, r int) {
	c := &s.call
	lo, hi := r*c.per, min((r+1)*c.per, len(c.xs))
	l.events = l.events[:0]
	grp := batchGroup{node: c.node, from: c.from, pos: c.pos}
	grp.act, grp.idx = l.stackBatch(c.xs[lo:hi], lo, c.shape)
	if g := l.graph; c.pres == nil {
		var queue []batchGroup // routed groups, in dispatch order
		for {
			// The node's share of the path-depth cap: its FC, or the forced
			// exit at the capped stage.
			to := min(c.to-g.EntryDepth(grp.node), len(g.Nodes[grp.node].Model.Stages))
			l.walk(grp, to, true, c, &queue)
			if len(queue) == 0 {
				return
			}
			grp, queue = queue[0], queue[1:]
		}
	}
	var handoffs []batchGroup // rows routed to branches, then the survivors
	rest := l.walk(grp, c.to, c.forced, c, &handoffs)
	for i := lo; i < hi; i++ {
		c.pres[i].Exited = true
	}
	for _, grp := range append(handoffs, rest) {
		if len(grp.idx) == 0 {
			continue
		}
		ssz := grp.act.Numel() / len(grp.idx)
		shape := make([]int, 0, 8) // constant cap: stays on the stack
		for d := 1; d < grp.act.Rank(); d++ {
			shape = append(shape, grp.act.Dim(d))
		}
		for r, orig := range grp.idx {
			// Bounded by the slot's end: a row larger than the stride panics
			// rather than spill into its neighbour's slot.
			slot := c.slab.data[orig*c.stride : orig*c.stride+ssz : (orig+1)*c.stride]
			copy(slot, grp.act.Data[r*ssz:(r+1)*ssz])
			c.pres[orig] = PrefixResult{
				Record:     ExitRecord{Trace: c.pres[orig].Record.Trace}, // the prefix's confidences, under a Trace policy
				Activation: c.slab.heads[orig].Point(slot, shape...), Node: grp.node, FromStage: grp.from, Pos: grp.pos,
			}
		}
	}
}

// deliver hands the observer the lanes' buffered events as the serial walk
// emits them. Events of one unit of work (same Kind, Node, Stage and
// Branch) merge: Rows concatenated in lane order, which is input order,
// the earliest Start and the latest End. Then nodes go in dispatch order
// from the start node, each node's exit points in stage order, a stage's
// StageForward before its route events and those by first row, the order
// in which the serial walk opens its gathers and queues their groups.
func (s *Session) deliver(lanes []*lane, start int) {
	for order, q := []int{start}, 0; q < len(order); q++ {
		node := s.node[:0]
		for _, l := range lanes {
		next:
			for _, ev := range l.events {
				if ev.Node != order[q] {
					continue
				}
				for k := range node {
					if e := &node[k]; e.Kind == ev.Kind && e.Stage == ev.Stage && e.Branch == ev.Branch {
						e.Rows = append(e.Rows, ev.Rows...)
						if ev.Start.Before(e.Start) {
							e.Start = ev.Start
						}
						if ev.End.After(e.End) {
							e.End = ev.End
						}
						continue next
					}
				}
				node = append(node, ev)
			}
		}
		slices.SortFunc(node, func(a, b StageEvent) int {
			return cmp.Or(cmp.Compare(a.Stage, b.Stage), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Rows[0], b.Rows[0]))
		})
		for _, ev := range node {
			if ev.Kind == StageRoute {
				order = append(order, ev.Branch)
			}
			s.observer(ev)
		}
		s.node = node
	}
}

// stackBatch copies the per-sample activations, each of shape sshape, into
// one contiguous batched tensor [B, ...sshape] and returns it with the
// row→input index map lo, lo+1, …: row r is the call's input lo+r. Both
// live in lane scratch, valid until the next call on the session.
func (l *lane) stackBatch(xs []*tensor.T, lo int, sshape []int) (*tensor.T, []int) {
	ssz := 1
	for _, d := range sshape {
		ssz *= d
	}
	buf := l.bstack.Data
	if cap(buf) < len(xs)*ssz {
		buf = make([]float64, len(xs)*ssz)
	}
	shape := append(append(make([]int, 0, 8), len(xs)), sshape...) // constant cap: stays on the stack
	act := l.bstack.Point(buf[:len(xs)*ssz], shape...)
	for i, x := range xs {
		copy(act.Data[i*ssz:(i+1)*ssz], x.Data)
	}
	if cap(l.bidx) < len(xs) {
		l.bidx = make([]int, len(xs))
	}
	idx := l.bidx[:len(xs)]
	for i := range idx {
		idx[i] = lo + i
	}
	return act, idx
}

// walk is Algorithm 2 for one node's rows: at each exit point from
// grp.from on, run the baseline to the tap, score the stage classifier and
// apply the activation module per row, writing an ExitRecord into
// call.record(idx[r]) for every row that exits, gathering rows a route
// dispatches into per-branch groups appended to routed, and compacting the
// remaining survivors in place. Exit points before `to` are conditional.
// With terminate set, exit point `to` is the unconditional terminator
// every surviving row leaves at — the node's FC output when `to` is its
// stage count, else the capped stage's classifier verdict whatever its
// confidence (the ExitPolicy.MaxExit forced exit: the baseline advances
// only to that stage's tap, so the exit's path cost stays exact). Without
// it the walk stops after the conditional stages and returns the survivors
// — activation, stage `to` and baseline position reached, index map — for
// the other tier. With call.pol.Trace each evaluated exit point's winning
// confidence is appended to the sample's record; a routed sample's trace
// keeps accumulating in its branch group.
func (l *lane) walk(grp batchGroup, to int, terminate bool, call *laneCall, routed *[]batchGroup) batchGroup {
	g, node := l.graph, grp.node
	c := g.Nodes[node].Model
	act, pos, idx := grp.act, grp.pos, grp.idx
	for i := grp.from; len(idx) > 0 && (i < to || terminate && i == to); i++ {
		var evStart time.Time
		var evRows []int
		if call.observer != nil {
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
			scores = l.bscores.Data
			if cap(scores) < nAct*st.LC.Out {
				scores = make([]float64, nAct*st.LC.Out)
			}
			scores = scores[:nAct*st.LC.Out]
			st.LC.ScoresBatchInto(l.feat.Point(act.Data, nAct, act.Numel()/nAct), l.bscores.Point(scores, nAct, st.LC.Out))
			if last {
				kind = StageForced
			} else {
				delta = g.stageDelta(node, i, call.pol)
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
		row := l.rows[node][i]
		w := 0
		for r := 0; r < nAct; r++ {
			copy(row.Data, scores[r*width:(r+1)*width])
			out := call.record(idx[r])
			conf, class := row.Max()
			if call.pol.Trace {
				out.Trace = append(out.Trace, conf)
			}
			if last || c.Rule.ShouldExit(row, delta) {
				rec := g.exitRecord(node, i, class, conf)
				rec.Trace = out.Trace
				*out = rec
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
					hand[hi].idx = append(hand[hi].idx, idx[r])
					continue
				}
			}
			if w != r {
				copy(act.Data[w*ssz:(w+1)*ssz], act.Data[r*ssz:(r+1)*ssz])
			}
			idx[w] = idx[r]
			w++
		}
		if call.observer != nil {
			evEnd := time.Now()
			l.events = append(l.events, StageEvent{Kind: kind, Node: node, Stage: i, Rows: evRows, Start: evStart, End: evEnd})
			for _, h := range hand { // Rows a copy: the branch's walk compacts h.idx before delivery
				l.events = append(l.events, StageEvent{Kind: StageRoute, Node: node, Stage: i, Branch: h.node, Rows: append([]int(nil), h.idx...), Start: evEnd, End: evEnd})
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
			shape := append(make([]int, 0, 8), w) // constant cap: stays on the stack
			for d := 1; d < act.Rank(); d++ {
				shape = append(shape, act.Dim(d))
			}
			act = l.surv.Point(act.Data[:w*ssz], shape...)
		}
	}
	return batchGroup{node: node, from: to, pos: pos, act: act, idx: idx}
}

// stageDelta resolves the effective threshold for a node's stage i under
// a policy: the node's trained value, then the policy's global Delta, then
// — for trunk stages only — the policy's per-stage entry (per-stage
// overrides name trunk stages; branch stages keep their own trained
// thresholds under the global override).
func (g *Graph) stageDelta(node, i int, p ExitPolicy) float64 {
	c := g.Nodes[node].Model
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
