package core

import (
	"testing"
)

// TestPrefixPolicyDelegation pins that the prefix under a delta-only
// policy decides exactly as the reference walk does with that δ as its
// trained threshold — at every split stage, as one batch and as batches of
// one: an input exits locally iff its reference exit precedes the split,
// with the reference record.
func TestPrefixPolicyDelegation(t *testing.T) {
	cdln, xs := splitCDLN(t, 61)
	sess, _ := NewSession(cdln)
	ref := reference(t, LinearGraph(cdln), 0.55)
	for split := 0; split <= len(cdln.Stages); split++ {
		for _, bsz := range []int{1, len(xs)} {
			i := 0
			for _, chunk := range chunks(xs, bsz) {
				for _, got := range sess.ClassifyPrefixBatchPolicy(chunk, split, DeltaPolicy(0.55)) {
					want := ref(xs[i])
					if exits := want.StageIndex < split; got.Exited != exits {
						t.Fatalf("split %d batch %d sample %d: exited %v, reference exit %d", split, bsz, i, got.Exited, want.StageIndex)
					}
					if got.Exited && !got.Record.Equal(want) {
						t.Fatalf("split %d batch %d sample %d: record %+v vs %+v", split, bsz, i, got.Record, want)
					}
					i++
				}
			}
		}
	}
}

// TestPrefixPolicyDepthCapBelowSplit is the edge tier's force-local
// shed: a depth cap below the split stage must resolve every input
// locally (all Exited, nothing to offload), with records identical to
// the fully-local ClassifyBatchPolicy under the same policy.
func TestPrefixPolicyDepthCapBelowSplit(t *testing.T) {
	cdln, xs := splitCDLN(t, 62)
	if len(cdln.Stages) < 2 {
		t.Fatalf("fixture has %d stages, want ≥ 2", len(cdln.Stages))
	}
	split := len(cdln.Stages) // edge owns the whole conditional cascade
	for cap := 0; cap < split; cap++ {
		pol := DepthCapped(cap)
		a, _ := NewSession(cdln)
		b, _ := NewSession(cdln)
		want := a.ClassifyBatchPolicy(xs, pol)
		got := b.ClassifyPrefixBatchPolicy(xs, split, pol)
		for i := range got {
			if !got[i].Exited {
				t.Fatalf("cap %d sample %d: not exited — a capped prefix must resolve everything locally", cap, i)
			}
			if !got[i].Record.Equal(want[i]) {
				t.Fatalf("cap %d sample %d: prefix record %+v != batched policy record %+v", cap, i, got[i].Record, want[i])
			}
			if got[i].Record.StageIndex > cap {
				t.Fatalf("cap %d sample %d: exited at stage %d beyond the cap", cap, i, got[i].Record.StageIndex)
			}
		}
	}
}

func TestDepthCappedAndEqual(t *testing.T) {
	p := DepthCapped(2)
	if p.Delta != -1 || p.MaxExit != 2 || p.Trace || p.StageDeltas != nil {
		t.Fatalf("DepthCapped(2) = %+v", p)
	}
	if !p.Equal(DepthCapped(2)) {
		t.Error("DepthCapped(2) != itself")
	}
	if p.Equal(DepthCapped(1)) || p.Equal(DefaultExitPolicy()) {
		t.Error("distinct policies compare equal")
	}
	sd := ExitPolicy{Delta: -1, MaxExit: 2, StageDeltas: []float64{0.5, -1}}
	if sd.Equal(p) || p.Equal(sd) {
		t.Error("StageDeltas ignored by Equal")
	}
	sd2 := ExitPolicy{Delta: -1, MaxExit: 2, StageDeltas: []float64{0.5, -1}}
	if !sd.Equal(sd2) {
		t.Error("identical StageDeltas policies compare unequal")
	}
}
