package core

// policy.go generalizes the per-call δ override into a structured exit
// policy — the request-shaped form of the paper's §III.B runtime knob. A
// single δ trades accuracy for efficiency uniformly; an ExitPolicy lets a
// caller shape the whole cascade per request: one δ, per-stage deltas, a
// hard cap on how deep the cascade may run (directly or via an operation
// budget), and how much detail the exit record should carry. The serving
// layer validates a policy once per request (serve's PolicyRequest.resolve)
// and threads it unchanged through the replica pool into the Session walker
// (Session.ResumeBatchPolicyAt).

// ExitPolicy shapes how Algorithm 2 terminates for one request. The zero
// value is NOT the identity policy — use DefaultExitPolicy (negative Delta
// and MaxExit mean "keep the model's behaviour").
type ExitPolicy struct {
	// Delta overrides the model's Delta/StageDeltas for every stage when in
	// [0,1]; negative keeps the trained thresholds (ClassifyDelta
	// semantics).
	Delta float64
	// StageDeltas, when non-nil, overrides the threshold per stage: entry i
	// applies to stage i when in [0,1]; a negative entry falls back to
	// Delta (if set) and then the trained thresholds. Its length must equal
	// len(Stages).
	StageDeltas []float64
	// MaxExit caps the cascade depth: an input that has not exited by exit
	// point MaxExit exits there unconditionally — at stage MaxExit's linear
	// classifier when MaxExit < len(Stages), or at FC when MaxExit equals
	// len(Stages). Negative means no cap (the FC terminator, the model's
	// normal behaviour). This is the hard compute-budget knob: deeper
	// layers are never executed, whatever the confidences say.
	MaxExit int
	// Trace records the winning confidence at every exit point evaluated
	// for the input (ExitRecord.Trace), at the cost of one extra argmax per
	// stage per input.
	Trace bool
}

// DefaultExitPolicy is the identity policy: trained thresholds, full
// cascade, no trace.
func DefaultExitPolicy() ExitPolicy { return ExitPolicy{Delta: -1, MaxExit: -1} }

// DeltaPolicy is the policy form of a bare δ — the paper's §III.B runtime
// knob: delta in [0,1] overrides every node's trained thresholds, negative
// keeps them; full cascade, no trace.
func DeltaPolicy(delta float64) ExitPolicy { return ExitPolicy{Delta: delta, MaxExit: -1} }

// DepthCapped returns the policy that keeps the trained thresholds but
// terminates the cascade at exit point maxExit unconditionally. This is
// the monotone cost knob the SLO controller (internal/control) actuates:
// under the exactly-one-score rule, cost is not monotone in δ (δ near 0
// forces full depth just like δ=1), but removing exit points strictly
// bounds the worst-case work per input.
func DepthCapped(maxExit int) ExitPolicy { return ExitPolicy{Delta: -1, MaxExit: maxExit} }

// Equal reports field-wise policy equality, including per-stage
// thresholds.
func (p ExitPolicy) Equal(o ExitPolicy) bool {
	if p.Delta != o.Delta || p.MaxExit != o.MaxExit || p.Trace != o.Trace {
		return false
	}
	if (p.StageDeltas == nil) != (o.StageDeltas == nil) || len(p.StageDeltas) != len(o.StageDeltas) {
		return false
	}
	for i, d := range p.StageDeltas {
		if d != o.StageDeltas[i] {
			return false
		}
	}
	return true
}
