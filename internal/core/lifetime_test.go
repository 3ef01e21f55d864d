package core

import (
	"math"
	"slices"
	"testing"

	"cdl/internal/tensor"
)

// TestSessionScratchLifetime pins the scratch lifetime rule from the
// caller's side: every activation a Session call computes lives in
// replica-owned scratch that the next call overwrites, so everything a
// call RETURNS must be private. It holds call N's PrefixResults — trunk
// split handoffs and routed branch-entry handoffs, at every split stage —
// and call N's records, runs further calls on different inputs through the
// same session, and requires call N's results to be untouched: the data,
// and the header too, now that the stacked input and every hot layer's
// output are returned under a replica-owned tensor header that the next
// call re-points at another batch size (a handoff that was such a header
// would change shape under its holder).
func TestSessionScratchLifetime(t *testing.T) {
	g := routedGraph(t, 44)
	sess, err := NewGraphSession(g)
	if err != nil {
		t.Fatal(err)
	}
	pol := DeltaPolicy(0.999) // suppress trunk exits: nearly every row is handed off
	// Grow every scratch buffer past anything below: a later call that had
	// to reallocate would leave the held rows intact by accident.
	sess.ClassifyBatchPolicy(mixedInputs(64, 1), pol)
	trunkHandoffs, branchHandoffs := 0, 0
	for split := 0; split <= len(g.Trunk().Stages); split++ {
		held := sess.ClassifyPrefixBatchPolicy(mixedInputs(40, 13), split, pol)
		recs := sess.ClassifyBatchPolicy(mixedInputs(40, 13), DefaultExitPolicy())
		snap := make([]PrefixResult, len(held))
		for i, pre := range held {
			snap[i] = pre
			if !pre.Exited {
				snap[i].Activation = pre.Activation.Clone()
				if pre.Node > 0 {
					branchHandoffs++
				} else {
					trunkHandoffs++
				}
			}
		}
		recSnap := append([]ExitRecord(nil), recs...)

		// Call N+1, N+2, N+3: other inputs, other batch sizes, every entry
		// point, through the same scratch.
		sess.ClassifyPrefixBatchPolicy(mixedInputs(48, 99), split, pol)
		sess.ClassifyBatchPolicy(mixedInputs(33, 7), pol)
		var acts []*tensor.T
		for _, pre := range sess.ClassifyPrefixBatchPolicy(mixedInputs(20, 5), 1, pol) {
			if !pre.Exited && pre.Node == 0 {
				acts = append(acts, pre.Activation)
			}
		}
		sess.ResumeBatchPolicyAt(acts, 0, 1, pol)

		for i, pre := range held {
			want := snap[i]
			if pre.Exited != want.Exited || pre.Node != want.Node || pre.FromStage != want.FromStage || pre.Pos != want.Pos {
				t.Fatalf("split %d input %d: held result %+v changed from %+v", split, i, pre, want)
			}
			if pre.Exited {
				assertRecordsMatch(t, "held prefix record", i, pre.Record, want.Record)
			} else if !tensor.Equal(pre.Activation, want.Activation) {
				t.Fatalf("split %d input %d: held activation (node %d) was overwritten by a later call", split, i, pre.Node)
			} else if shape := g.Nodes[pre.Node].Model.Arch.Net.ShapeAt(pre.Pos); !pre.Activation.HasShape(shape) {
				t.Fatalf("split %d input %d: held header has shape %v, want the sample shape %v at node %d pos %d",
					split, i, pre.Activation.Shape(), shape, pre.Node, pre.Pos)
			}
		}
		for i := range recs {
			assertRecordsMatch(t, "held record", i, recs[i], recSnap[i])
		}
	}
	if trunkHandoffs == 0 || branchHandoffs == 0 {
		t.Fatalf("held %d trunk and %d branch handoffs; the test needs both kinds", trunkHandoffs, branchHandoffs)
	}
}

// TestPrefixIntoWritesOnlyItsSlab pins ClassifyPrefixInto's storage rule:
// the results are the slab's, each deferred activation — trunk and branch
// handoffs alike — sits at the start of its own input's slot, stride the
// session's handoff size for the split, and nothing else of the slab is
// written. One slab serves every split and batch size in turn, each call's
// results equal ClassifyPrefixBatchPolicy's private ones, and they survive
// later calls through the session and through another slab.
func TestPrefixIntoWritesOnlyItsSlab(t *testing.T) {
	g := routedGraph(t, 44)
	sess, err := NewGraphSession(g)
	if err != nil {
		t.Fatal(err)
	}
	pol := DeltaPolicy(0.999) // suppress trunk exits: nearly every row is handed off
	var slab, other PrefixSlab
	sess.ClassifyPrefixInto(&slab, mixedInputs(64, 1), 0, pol) // grow the slab past every call below
	trunkHandoffs, branchHandoffs := 0, 0
	for split := 0; split <= len(g.Trunk().Stages); split++ {
		for _, n := range []int{40, 9, 33} {
			xs := mixedInputs(n, int64(split*100+n))
			want := sess.ClassifyPrefixBatchPolicy(xs, split, pol)
			sentinel := math.Float64frombits(0x7ff8dead_beefcafe)
			data := slab.data[:cap(slab.data)]
			for i := range data {
				data[i] = sentinel
			}
			got := sess.ClassifyPrefixInto(&slab, xs, split, pol)
			if len(got) != n || &got[0] != &slab.res[0] {
				t.Fatalf("split %d batch %d: %d results outside the slab", split, n, len(got))
			}
			stride := sess.handoff[split]
			written := make([]bool, len(data))
			for i, pre := range got {
				if pre.Exited != want[i].Exited || pre.Node != want[i].Node || pre.FromStage != want[i].FromStage || pre.Pos != want[i].Pos {
					t.Fatalf("split %d batch %d input %d: %+v, want %+v", split, n, i, pre, want[i])
				}
				if pre.Exited {
					assertRecordsMatch(t, "slab prefix record", i, pre.Record, want[i].Record)
					continue
				}
				if pre.Node > 0 {
					branchHandoffs++
				} else {
					trunkHandoffs++
				}
				act := pre.Activation
				if !tensor.Equal(act, want[i].Activation) {
					t.Fatalf("split %d batch %d input %d: activation differs from the private one", split, n, i)
				}
				if len(act.Data) > stride || &act.Data[0] != &data[i*stride] || cap(act.Data) != stride {
					t.Fatalf("split %d batch %d input %d: %d values outside slot %d of stride %d", split, n, i, len(act.Data), i, stride)
				}
				for k := range act.Data {
					written[i*stride+k] = true
				}
			}
			for k, v := range data {
				if !written[k] && math.Float64bits(v) != math.Float64bits(sentinel) {
					t.Fatalf("split %d batch %d: slab value %d (slot %d) written outside any handoff", split, n, k, k/stride)
				}
			}
			// Later calls through session scratch and another slab leave
			// the results alone.
			sess.ClassifyBatchPolicy(mixedInputs(48, 7), pol)
			sess.ClassifyPrefixInto(&other, mixedInputs(n, 5), split, pol)
			for i, pre := range got {
				if !pre.Exited && !tensor.Equal(pre.Activation, want[i].Activation) {
					t.Fatalf("split %d batch %d input %d: a later call overwrote the slab's activation", split, n, i)
				}
			}
		}
	}
	if trunkHandoffs == 0 || branchHandoffs == 0 {
		t.Fatalf("%d trunk and %d branch handoffs; the test needs both kinds", trunkHandoffs, branchHandoffs)
	}
}

// TestResumeIntoZeroesItsRecords pins ResumeBatchInto's storage rule: the
// records are dst's, each zeroed before the walk writes it, so a record's
// trace is never appended to one written by an earlier call. One dst serves
// traced and untraced calls of every batch size in turn; each call's
// records, traces included, equal ResumeBatchPolicyAt's private ones, and
// the copies a caller took of the earlier records keep their traces.
func TestResumeIntoZeroesItsRecords(t *testing.T) {
	g := routedGraph(t, 44)
	sess, err := NewGraphSession(g)
	if err != nil {
		t.Fatal(err)
	}
	traced, plain := DefaultExitPolicy(), DefaultExitPolicy()
	traced.Trace = true
	dst := sess.ResumeBatchInto(nil, mixedInputs(40, 1), 0, 0, traced)
	for k, tc := range []struct {
		n   int
		pol ExitPolicy
	}{{40, traced}, {9, traced}, {33, plain}, {40, traced}} {
		held := append([]ExitRecord(nil), dst...)
		heldTraces := make([][]float64, len(held))
		for i, rec := range held {
			heldTraces[i] = append([]float64(nil), rec.Trace...)
		}
		xs := mixedInputs(tc.n, int64(k+2))
		want := sess.ResumeBatchPolicyAt(xs, 0, 0, tc.pol)
		got := sess.ResumeBatchInto(dst, xs, 0, 0, tc.pol)
		if len(got) != tc.n || &got[0] != &dst[0] {
			t.Fatalf("call %d: %d records outside dst", k, len(got))
		}
		for i := range got {
			assertRecordsMatch(t, "dst record", i, got[i], want[i])
			if !slices.Equal(got[i].Trace, want[i].Trace) {
				t.Fatalf("call %d input %d: trace %v, want %v", k, i, got[i].Trace, want[i].Trace)
			}
		}
		for i, rec := range held {
			if !slices.Equal(rec.Trace, heldTraces[i]) {
				t.Fatalf("call %d: the copy of an earlier record %d now has trace %v, was %v", k, i, rec.Trace, heldTraces[i])
			}
		}
		dst = got
	}
}
