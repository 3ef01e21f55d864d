package core

// policy_test.go covers the structured ExitPolicy: the ops budget → depth
// cap mapping, and the policy-aware walk — delta-only
// policies must be bit-identical to the reference walk under that δ, depth
// caps must take the capped stage classifier's own verdict, and traces must
// record every evaluated exit.

import (
	"math"
	"testing"

	"cdl/internal/tensor"
)

func TestMaxExitForOps(t *testing.T) {
	cdln := batchCDLN(t, 62)
	g := LinearGraph(cdln)
	exitOps := cdln.ExitOps()
	cases := []struct {
		budget float64
		want   int
	}{
		{exitOps[0], 0},
		{exitOps[1], 1},
		{exitOps[len(exitOps)-1], len(exitOps) - 1},
		{exitOps[len(exitOps)-1] * 10, len(exitOps) - 1},
		{(exitOps[0] + exitOps[1]) / 2, 0},
	}
	for _, tc := range cases {
		got, err := g.MaxExitForOps(tc.budget)
		if err != nil || got != tc.want {
			t.Errorf("MaxExitForOps(%v) = (%d, %v), want %d", tc.budget, got, err, tc.want)
		}
	}
	for _, bad := range []float64{0, -1, exitOps[0] / 2, math.NaN()} {
		if _, err := g.MaxExitForOps(bad); err == nil {
			t.Errorf("budget %v accepted", bad)
		}
	}
}

// TestPolicyDeltaOnlyMatchesLegacy pins the compat contract behind the
// serving redesign: a policy whose only active field is Delta must be
// bit-identical to the reference walk with that δ as the trained
// threshold — what the /v1 δ override has always meant.
func TestPolicyDeltaOnlyMatchesLegacy(t *testing.T) {
	cdln := batchCDLN(t, 63)
	xs := mixedInputs(64, 64)
	sess, err := NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []float64{-1, 0.5, 0.9, 1} {
		ref := reference(t, LinearGraph(cdln), delta)
		policy := sess.ClassifyBatchPolicy(xs, ExitPolicy{Delta: delta, MaxExit: -1})
		for i, x := range xs {
			assertRecordsMatch(t, "delta-only policy", i, policy[i], ref(x))
		}
	}
}

// TestPolicyMaxExit checks the depth cap: inputs still active at the cap
// exit there unconditionally with the stage classifier's own verdict and
// the exact per-exit ops accounting.
func TestPolicyMaxExit(t *testing.T) {
	cdln := batchCDLN(t, 65)
	xs := mixedInputs(48, 66)
	sess, err := NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	exitOps := cdln.ExitOps()

	// δ=1 never fires, so max_exit=m sends every input to exit m.
	for m := 0; m <= len(cdln.Stages); m++ {
		recs := sess.ClassifyBatchPolicy(xs, ExitPolicy{Delta: 1, MaxExit: m})
		for i, rec := range recs {
			if rec.StageIndex != m {
				t.Fatalf("max_exit=%d: input %d exited at %d", m, i, rec.StageIndex)
			}
			if rec.Ops != exitOps[m] {
				t.Fatalf("max_exit=%d: input %d ops %v, want %v", m, i, rec.Ops, exitOps[m])
			}
		}
	}

	// The forced verdict at stage m must equal the stage classifier's own
	// scores: reproduce per layer (forward to tap, score, argmax).
	ref := cdln.Clone()
	recs := sess.ClassifyBatchPolicy(xs, ExitPolicy{Delta: 1, MaxExit: 0})
	st := ref.Stages[0]
	for i, x := range xs {
		act := ref.Arch.Net.ForwardRange(x, 0, st.Tap)
		scores := st.LC.Scores(act)
		conf, label := scores.Max()
		if recs[i].Label != label || recs[i].Confidence != conf {
			t.Fatalf("forced exit input %d: (%d, %v) != LC verdict (%d, %v)",
				i, recs[i].Label, recs[i].Confidence, label, conf)
		}
	}

	// With the trained thresholds, a cap only truncates: records of inputs
	// that exit before the cap are untouched.
	uncapped := sess.ClassifyBatchPolicy(xs, DefaultExitPolicy())
	capped := sess.ClassifyBatchPolicy(xs, ExitPolicy{Delta: -1, MaxExit: 1})
	for i := range xs {
		if uncapped[i].StageIndex < 1 {
			assertRecordsMatch(t, "pre-cap exit", i, capped[i], uncapped[i])
		} else if capped[i].StageIndex != 1 {
			t.Fatalf("input %d exited at %d under cap 1", i, capped[i].StageIndex)
		}
	}
}

// TestPolicyStageDeltas checks per-stage overrides and their resolution
// order (stage entry over global Delta over trained).
func TestPolicyStageDeltas(t *testing.T) {
	cdln := batchCDLN(t, 67)
	xs := mixedInputs(48, 68)
	sess, err := NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	// δ₀=1 kills stage-0 exits; stage 1 keeps the trained threshold.
	recs := sess.ClassifyBatchPolicy(xs, ExitPolicy{Delta: -1, StageDeltas: []float64{1, -1}, MaxExit: -1})
	for i, rec := range recs {
		if rec.StageIndex == 0 {
			t.Fatalf("input %d exited at stage 0 under δ₀=1", i)
		}
	}
	// A per-stage entry overrides the global Delta: global δ=1 (no exits)
	// with stage-1 trained δ restored must equal plain StageDeltas[1]=trained.
	d1 := cdln.Delta
	if cdln.StageDeltas != nil {
		d1 = cdln.StageDeltas[1]
	}
	a := sess.ClassifyBatchPolicy(xs, ExitPolicy{Delta: 1, StageDeltas: []float64{-1, d1}, MaxExit: -1})
	b := sess.ClassifyBatchPolicy(xs, ExitPolicy{Delta: -1, StageDeltas: []float64{1, d1}, MaxExit: -1})
	for i := range xs {
		assertRecordsMatch(t, "resolution order", i, a[i], b[i])
	}
}

// TestPolicyTrace checks the trace detail: one winning confidence per
// evaluated exit, ending with the exit taken, and records otherwise
// bit-identical to the untraced pass.
func TestPolicyTrace(t *testing.T) {
	cdln := batchCDLN(t, 69)
	xs := mixedInputs(48, 70)
	sess, err := NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	plain := sess.ClassifyBatchPolicy(xs, DefaultExitPolicy())
	traced := sess.ClassifyBatchPolicy(xs, ExitPolicy{Delta: -1, MaxExit: -1, Trace: true})
	for i := range xs {
		assertRecordsMatch(t, "trace identity", i, traced[i], plain[i])
		want := traced[i].StageIndex + 1 // exits 0..StageIndex evaluated
		if len(traced[i].Trace) != want {
			t.Fatalf("input %d: trace length %d, want %d", i, len(traced[i].Trace), want)
		}
		if tail := traced[i].Trace[len(traced[i].Trace)-1]; tail != traced[i].Confidence {
			t.Fatalf("input %d: trace tail %v != confidence %v", i, tail, traced[i].Confidence)
		}
		if plain[i].Trace != nil {
			t.Fatalf("input %d: untraced pass grew a trace", i)
		}
	}
}

// TestPolicyResumePanics pins the precondition: a depth cap shallower
// than the resume stage is unsatisfiable and must panic (network callers
// validate first).
func TestPolicyResumePanics(t *testing.T) {
	cdln := batchCDLN(t, 71)
	sess, err := NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	xs := mixedInputs(4, 72)
	pre := sess.ClassifyPrefixBatchPolicy(xs, 1, DeltaPolicy(1)) // δ=1: all defer
	defer func() {
		if recover() == nil {
			t.Fatal("ResumeBatchPolicyAt accepted max exit below the resume stage")
		}
	}()
	sess.ResumeBatchPolicyAt([]*tensor.T{pre[0].Activation}, 0, 1, ExitPolicy{Delta: -1, MaxExit: 0})
}
