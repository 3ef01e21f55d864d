package core

import (
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
