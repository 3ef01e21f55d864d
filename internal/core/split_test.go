package core

import (
	"slices"
	"testing"

	"cdl/internal/tensor"
)

// splitCDLN builds the two-stage test cascade used by the tier-split tests.
func splitCDLN(t *testing.T, seed int64) (*CDLN, []*tensor.T) {
	t.Helper()
	arch, data := trainedArch(t, seed)
	cfg := DefaultBuildConfig()
	cfg.ForceAllStages = true
	cdln, _, err := Build(arch, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*tensor.T, len(data))
	for i, s := range data {
		xs[i] = s.X
	}
	return cdln, xs
}

// TestSplitIdentityEverySplitStage is the tier-split identity guarantee:
// for every split stage, every input and every batch size (a batch of one
// included), the edge-exit and edge→cloud resume paths must agree
// bit-for-bit with the reference walk's monolithic record — labels, exits,
// confidences and (full-pipeline) OPS.
func TestSplitIdentityEverySplitStage(t *testing.T) {
	cdln, xs := splitCDLN(t, 31)
	for _, delta := range []float64{-1, 0.55, 0.9} {
		ref := reference(t, LinearGraph(cdln), delta)
		pol := DeltaPolicy(delta)
		for split := 0; split <= len(cdln.Stages); split++ {
			for _, bsz := range []int{1, 16} {
				edge, err := NewSession(cdln)
				if err != nil {
					t.Fatal(err)
				}
				cloud, err := NewSession(cdln)
				if err != nil {
					t.Fatal(err)
				}
				localExits, offloads, i := 0, 0, 0
				for _, chunk := range chunks(xs, bsz) {
					got := make([]ExitRecord, len(chunk))
					var acts []*tensor.T
					var deferred []int
					for k, pre := range edge.ClassifyPrefixBatchPolicy(chunk, split, pol) {
						if pre.Exited {
							localExits++
							if pre.Record.StageIndex >= split {
								t.Fatalf("split %d: prefix exited at stage %d", split, pre.Record.StageIndex)
							}
							got[k] = pre.Record
							continue
						}
						offloads++
						if wantPos := cdln.SplitPos(split); pre.Node != 0 || pre.FromStage != split || pre.Pos != wantPos {
							t.Fatalf("split %d: handoff (node %d, stage %d, pos %d), want (0, %d, %d)",
								split, pre.Node, pre.FromStage, pre.Pos, split, wantPos)
						}
						acts = append(acts, pre.Activation)
						deferred = append(deferred, k)
					}
					for j, rec := range cloud.ResumeBatchPolicyAt(acts, 0, split, pol) {
						if rec.StageIndex < split {
							t.Fatalf("split %d: resume exited at stage %d", split, rec.StageIndex)
						}
						got[deferred[j]] = rec
					}
					for k, x := range chunk {
						if want := ref(x); !got[k].Equal(want) {
							t.Fatalf("split %d δ=%v batch %d sample %d: split-path %+v != monolithic %+v",
								split, delta, bsz, i, got[k], want)
						}
						i++
					}
				}
				if split == 0 && localExits != 0 {
					t.Fatalf("split 0 produced %d local exits", localExits)
				}
				if split == len(cdln.Stages) && delta < 0 && offloads == len(xs) {
					t.Fatalf("full-cascade edge never exited locally; fixture degenerate")
				}
			}
		}
	}
}

// TestResumeFromZeroIsClassify pins the degenerate split: resuming the raw
// input at (trunk, 0) — as a batch of one and as one batch — is exactly the
// monolithic classification.
func TestResumeFromZeroIsClassify(t *testing.T) {
	cdln, xs := splitCDLN(t, 32)
	ref := cdln.Clone()
	sess, _ := NewSession(cdln)
	xs = xs[:40]
	for _, bsz := range []int{1, 40} {
		i := 0
		for _, chunk := range chunks(xs, bsz) {
			for _, got := range sess.ResumeBatchPolicyAt(chunk, 0, 0, DefaultExitPolicy()) {
				if want := ref.Classify(xs[i]); !got.Equal(want) {
					t.Fatalf("batch %d sample %d: %+v != %+v", bsz, i, got, want)
				}
				i++
			}
		}
	}
}

// TestSplitValidation covers the misuse panics: split stage out of range
// and resume-activation shape mismatch.
func TestSplitValidation(t *testing.T) {
	cdln, xs := splitCDLN(t, 33)
	sess, _ := NewSession(cdln)
	pol := DefaultExitPolicy()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("SplitPos(-1)", func() { cdln.SplitPos(-1) })
	mustPanic("SplitPos(too deep)", func() { cdln.SplitPos(len(cdln.Stages) + 1) })
	mustPanic("prefix out of range", func() { sess.ClassifyPrefixBatchPolicy(xs[:1], len(cdln.Stages)+1, pol) })
	mustPanic("resume out of range", func() { sess.ResumeBatchPolicyAt(xs[:1], 0, -1, pol) })
	mustPanic("resume unknown node", func() { sess.ResumeBatchPolicyAt(xs[:1], 1, 0, pol) })
	mustPanic("resume wrong shape", func() { sess.ResumeBatchPolicyAt(xs[:1], 0, 1, pol) })
	mustPanic("resume wrong rank", func() { sess.ResumeBatchPolicyAt([]*tensor.T{tensor.New(4)}, 0, 1, pol) })
}

// TestSplitOpsEnergyAccounting checks that the dynamic cost attributed to a
// split-path record is the full-pipeline cost, independent of which tier
// computed it, so downstream OPS and energy accounting (both keyed by
// StageIndex/Ops) cannot drift between deployments.
func TestSplitOpsEnergyAccounting(t *testing.T) {
	cdln, xs := splitCDLN(t, 34)
	exitOps := cdln.ExitOps()
	edge, _ := NewSession(cdln)
	cloud, _ := NewSession(cdln)
	pol := DefaultExitPolicy()
	for _, bsz := range []int{1, 60} {
		for _, chunk := range chunks(xs[:60], bsz) {
			for _, pre := range edge.ClassifyPrefixBatchPolicy(chunk, 1, pol) {
				rec := pre.Record
				if !pre.Exited {
					rec = cloud.ResumeBatchPolicyAt([]*tensor.T{pre.Activation}, 0, 1, pol)[0]
				}
				if rec.Ops != exitOps[rec.StageIndex] {
					t.Fatalf("record ops %v != exit ops %v at exit %d", rec.Ops, exitOps[rec.StageIndex], rec.StageIndex)
				}
			}
		}
	}
}

// TestSplitTraceConcatenates pins the trace across a tier split: a
// deferred prefix result's Record.Trace holds the confidences of the exit
// points its prefix evaluated, and followed by its resume's it is the
// monolithic walk's trace, at every split stage.
func TestSplitTraceConcatenates(t *testing.T) {
	cdln, xs := splitCDLN(t, 35)
	xs = xs[:40]
	sess, _ := NewSession(cdln)
	pol := ExitPolicy{Delta: 0.9, MaxExit: -1, Trace: true}
	want := sess.ClassifyBatchPolicy(xs, pol)
	for split := 0; split <= len(cdln.Stages); split++ {
		deferred := 0
		for i, pre := range sess.ClassifyPrefixBatchPolicy(xs, split, pol) {
			got := pre.Record.Trace
			if !pre.Exited {
				deferred++
				if len(got) != split {
					t.Fatalf("split %d sample %d: deferred with %d confidences, want %d", split, i, len(got), split)
				}
				got = append(got, sess.ResumeBatchPolicyAt([]*tensor.T{pre.Activation}, 0, split, pol)[0].Trace...)
			}
			if !slices.Equal(got, want[i].Trace) {
				t.Fatalf("split %d sample %d: trace %v, monolithic %v", split, i, got, want[i].Trace)
			}
		}
		if deferred == 0 {
			t.Errorf("split %d: nothing deferred", split)
		}
	}
}
