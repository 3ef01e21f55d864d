package core

import (
	"strings"
	"testing"

	"cdl/internal/stats"
)

// TestSessionMatchesClassify asserts the session's batch of one (GEMM
// pipeline, reused scratch) is bit-identical to the reference
// CDLN.Classify.
func TestSessionMatchesClassify(t *testing.T) {
	arch, data := trainedArch(t, 11)
	cdln, _, err := Build(arch, data, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data {
		want := cdln.Classify(s.X)
		got := sess.Classify(s.X)
		if !got.Equal(want) {
			t.Fatalf("sample %d: session %+v != classify %+v", i, got, want)
		}
	}
}

// TestSessionDeltaOverride checks the per-call threshold knob: δ=1 forces
// every input through the full cascade (threshold rule needs score ≥ 1,
// unreachable for a sigmoid), δ<0 restores the trained behaviour, and an
// in-range δ equals the reference walk over a clone trained to that δ.
func TestSessionDeltaOverride(t *testing.T) {
	arch, data := trainedArch(t, 12)
	cdln, _, err := Build(arch, data, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cdln.Stages) == 0 {
		t.Skip("no stages admitted; override unobservable")
	}
	sess, err := NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	fc := len(cdln.Stages)
	ref := reference(t, LinearGraph(cdln), 0.7)
	for i, s := range data[:40] {
		if got, want := sess.ClassifyDelta(s.X, 0.7), ref(s.X); !got.Equal(want) {
			t.Fatalf("sample %d: δ=0.7 record %+v != reference %+v", i, got, want)
		}
		if rec := sess.ClassifyDelta(s.X, 1); rec.StageIndex != fc {
			t.Fatalf("sample %d: δ=1 exited early at %s", i, rec.StageName)
		}
		if got, want := sess.ClassifyDelta(s.X, -1), cdln.Classify(s.X); !got.Equal(want) {
			t.Fatalf("sample %d: δ<0 diverges from trained thresholds", i)
		}
	}
}

// TestSessionRepeatable guards the scratch-buffer reuse: classifying the
// same input twice in a row must give the same record.
func TestSessionRepeatable(t *testing.T) {
	arch, data := trainedArch(t, 13)
	cdln, _, err := Build(arch, data, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range data[:20] {
		a := sess.Classify(s.X)
		b := sess.Classify(s.X)
		if !a.Equal(b) {
			t.Fatalf("session not repeatable: %+v then %+v", a, b)
		}
	}
}

// TestNewSessionRejectsInvalid covers the validation path.
func TestNewSessionRejectsInvalid(t *testing.T) {
	if _, err := NewSession(&CDLN{}); err == nil {
		t.Error("session over invalid CDLN accepted")
	}
}

// TestEvalResultStringEmpty guards against +Inf/NaN improvement factors on
// an empty evaluation.
func TestEvalResultStringEmpty(t *testing.T) {
	r := &EvalResult{Confusion: stats.NewConfusion(3)}
	s := r.String()
	for _, bad := range []string{"Inf", "NaN"} {
		if strings.Contains(s, bad) {
			t.Errorf("empty EvalResult.String() contains %q: %s", bad, s)
		}
	}
	if r.Improvement() != 0 {
		t.Errorf("empty Improvement() = %v, want 0", r.Improvement())
	}
}
