package core

// batch_test.go is the cascade-level half of the differential harness (the
// layer-level half is internal/nn's equiv_test.go): across randomized
// weights, inputs and batch sizes 1..64 — over 2000 inputs per sweep — the
// Session walker must reproduce the reference walk's ExitRecord
// (CDLN.Classify: serial, per layer, no GEMM) field for field: exit stage,
// exit name, predicted label, confidence and dynamic op count. Degenerate
// batches (everything exits at stage 1, nothing exits before FC, the empty
// batch) and the tier-split entry points (ClassifyPrefixBatchPolicy,
// ResumeBatchPolicyAt) are covered explicitly, batch of one included.

import (
	"math/rand"
	"testing"

	"cdl/internal/tensor"
)

// batchCDLN builds a trained two-stage CDLN with every stage admitted, so
// the batch path exercises multi-stage compaction.
func batchCDLN(t testing.TB, seed int64) *CDLN {
	t.Helper()
	arch, data := trainedArch(t, seed)
	cfg := DefaultBuildConfig()
	cfg.ForceAllStages = true
	cdln, _, err := Build(arch, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cdln.Stages) != 2 {
		t.Fatalf("built %d stages, want 2", len(cdln.Stages))
	}
	return cdln
}

// mixedInputs returns a difficulty-spread input set: trained-distribution
// blobs (most exit early) plus pure noise (most reach FC).
func mixedInputs(n int, seed int64) []*tensor.T {
	rng := rand.New(rand.NewSource(seed))
	samples := blobData(n, seed)
	xs := make([]*tensor.T, n)
	for i, s := range samples {
		xs[i] = s.X
		if i%5 == 4 { // every 5th input is noise: the hard tail
			for j := range xs[i].Data {
				xs[i].Data[j] = rng.Float64()
			}
		}
	}
	return xs
}

// assertRecordsMatch compares a walker record against the reference,
// field for field.
func assertRecordsMatch(t *testing.T, label string, i int, got, want ExitRecord) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: input %d: walker record %+v != reference record %+v", label, i, got, want)
	}
}

// reference returns the reference walk (Graph.classify) over a private
// clone of g. A bare δ override (negative keeps the trained thresholds) is
// expressed the way bench/setup.go does it: as every node's threshold on
// the clone.
func reference(t testing.TB, g *Graph, delta float64) func(*tensor.T) ExitRecord {
	t.Helper()
	ref := g.Clone()
	if delta >= 0 {
		for _, n := range ref.Nodes {
			n.Model.Delta, n.Model.StageDeltas = delta, nil
		}
	}
	if err := ref.Validate(); err != nil {
		t.Fatal(err)
	}
	return ref.classify
}

// chunks splits xs into consecutive batches of at most size inputs.
func chunks(xs []*tensor.T, size int) [][]*tensor.T {
	var out [][]*tensor.T
	for lo := 0; lo < len(xs); lo += size {
		out = append(out, xs[lo:min(lo+size, len(xs))])
	}
	return out
}

// TestClassifyBatchMatchesClassify is the headline differential sweep:
// every batch size 1..64 (2080 randomized inputs in total), the walker vs
// the reference CDLN.Classify, exact record equality.
func TestClassifyBatchMatchesClassify(t *testing.T) {
	cdln := batchCDLN(t, 21)
	sess, err := NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	ref := cdln.Clone()
	seed := int64(100)
	total := 0
	exitsSeen := make(map[int]int)
	for bsz := 1; bsz <= 64; bsz++ {
		xs := mixedInputs(bsz, seed)
		seed++
		recs := sess.ClassifyBatchPolicy(xs, DefaultExitPolicy())
		if len(recs) != bsz {
			t.Fatalf("batch %d returned %d records", bsz, len(recs))
		}
		for i, x := range xs {
			assertRecordsMatch(t, "classify", i, recs[i], ref.Classify(x))
			exitsSeen[recs[i].StageIndex]++
			total++
		}
	}
	if total < 1000 {
		t.Fatalf("sweep covered only %d inputs, want ≥ 1000", total)
	}
	// The sweep is only meaningful if it exercises both early exits and the
	// FC tail (i.e. real compaction happened).
	if exitsSeen[0] == 0 || exitsSeen[len(cdln.Stages)] == 0 {
		t.Fatalf("degenerate exit distribution %v: sweep did not exercise compaction", exitsSeen)
	}
}

// TestClassifyBatchDeltaOverride checks the per-call δ override — as a
// batch and as ClassifyDelta's batch of one — against the reference walk
// over a clone carrying δ as its trained threshold, across the knob's
// range.
func TestClassifyBatchDeltaOverride(t *testing.T) {
	cdln := batchCDLN(t, 22)
	sess, err := NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	xs := mixedInputs(40, 7)
	for _, delta := range []float64{0, 0.3, 0.6, 0.9, 1} {
		ref := reference(t, LinearGraph(cdln), delta)
		recs := sess.ClassifyBatchPolicy(xs, DeltaPolicy(delta))
		for i, x := range xs {
			want := ref(x)
			assertRecordsMatch(t, "delta-override", i, recs[i], want)
			assertRecordsMatch(t, "delta-override-one", i, sess.ClassifyDelta(x, delta), want)
		}
	}
}

// alwaysExitRule fires at every stage — the all-exit-at-stage-1 degenerate
// batch, where compaction empties the batch immediately.
type alwaysExitRule struct{}

func (alwaysExitRule) Name() string                       { return "always" }
func (alwaysExitRule) ShouldExit(*tensor.T, float64) bool { return true }

// TestClassifyBatchDegenerate covers the batches where compaction does no
// work: everything exits at stage 1, nothing exits before FC, and the
// empty batch.
func TestClassifyBatchDegenerate(t *testing.T) {
	cdln := batchCDLN(t, 23)

	// All exit at stage 1.
	all := cdln.Clone()
	all.Rule = alwaysExitRule{}
	sess, err := NewSession(all)
	if err != nil {
		t.Fatal(err)
	}
	xs := mixedInputs(32, 9)
	recs := sess.ClassifyBatchPolicy(xs, DefaultExitPolicy())
	for i, x := range xs {
		if recs[i].StageIndex != 0 {
			t.Fatalf("always-exit input %d exited at %d, want 0", i, recs[i].StageIndex)
		}
		assertRecordsMatch(t, "all-exit", i, recs[i], all.Classify(x))
	}

	// No early exit: δ=1 forces the whole batch to FC (no sigmoid score
	// reaches 1), so every stage forwards the full batch.
	sess2, err := NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	ref := reference(t, LinearGraph(cdln), 1)
	recs = sess2.ClassifyBatchPolicy(xs, DeltaPolicy(1))
	for i, x := range xs {
		if recs[i].StageName != "FC" {
			t.Fatalf("δ=1 input %d exited at %s, want FC", i, recs[i].StageName)
		}
		assertRecordsMatch(t, "no-exit", i, recs[i], ref(x))
	}

	// Empty batch.
	if recs := sess2.ClassifyBatchPolicy(nil, DefaultExitPolicy()); len(recs) != 0 {
		t.Fatalf("empty batch returned %d records", len(recs))
	}
}

// prefixOf is the reference for the edge tier's half of a split on a
// linear cascade, derived from the reference record alone: an input whose
// reference exit lies before the split exits locally with that record;
// any other defers the trunk activation after SplitPos(split) layers —
// per-layer ForwardRange on a private replica, never GEMM.
func prefixOf(c *CDLN, x *tensor.T, split int) PrefixResult {
	if rec := c.Classify(x); rec.StageIndex < split {
		return PrefixResult{Record: rec, Exited: true}
	}
	pos := c.SplitPos(split)
	return PrefixResult{Activation: c.Arch.Net.ForwardRange(x, 0, pos).Clone(), FromStage: split, Pos: pos}
}

// TestClassifyPrefixBatchMatchesClassifyPrefix compares the walker's edge
// prefix against the per-sample reference for every split stage and batch
// size (one included): identical exit records, positions and activation
// bytes.
func TestClassifyPrefixBatchMatchesClassifyPrefix(t *testing.T) {
	cdln := batchCDLN(t, 24)
	sess, err := NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	ref := cdln.Clone()
	xs := mixedInputs(48, 11)
	for split := 0; split <= len(cdln.Stages); split++ {
		for _, bsz := range []int{1, 5, 48} {
			i := 0
			for _, chunk := range chunks(xs, bsz) {
				pres := sess.ClassifyPrefixBatchPolicy(chunk, split, DefaultExitPolicy())
				// Further session use must not disturb results already handed
				// out: deferred activations are private copies.
				sess.ClassifyBatchPolicy(xs[:8], DeltaPolicy(1))
				for k, x := range chunk {
					want := prefixOf(ref, x, split)
					got := pres[k]
					if got.Exited != want.Exited {
						t.Fatalf("split %d batch %d input %d: walker exited=%v, reference %v", split, bsz, i, got.Exited, want.Exited)
					}
					if want.Exited {
						assertRecordsMatch(t, "prefix", i, got.Record, want.Record)
					} else {
						if got.Node != 0 || got.FromStage != split || got.Pos != want.Pos {
							t.Fatalf("split %d batch %d input %d: handoff (node %d, stage %d, pos %d), want (0, %d, %d)",
								split, bsz, i, got.Node, got.FromStage, got.Pos, split, want.Pos)
						}
						if !tensor.Equal(got.Activation, want.Activation) {
							t.Fatalf("split %d batch %d input %d: deferred activations diverge", split, bsz, i)
						}
					}
					i++
				}
			}
		}
	}
}

// TestResumeBatchMatchesResume feeds every split's deferred activations
// through the resume entry point at every batch size (one included): each
// resumed record equals the reference walk's record of the original input.
func TestResumeBatchMatchesResume(t *testing.T) {
	cdln := batchCDLN(t, 25)
	sess, err := NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	ref := cdln.Clone()
	xs := mixedInputs(64, 13)
	for split := 0; split <= len(cdln.Stages); split++ {
		var acts []*tensor.T
		var want []ExitRecord
		for i, pre := range sess.ClassifyPrefixBatchPolicy(xs, split, DefaultExitPolicy()) {
			if !pre.Exited {
				acts = append(acts, pre.Activation)
				want = append(want, ref.Classify(xs[i]))
			}
		}
		for _, bsz := range []int{1, 9, 64} {
			i := 0
			for _, chunk := range chunks(acts, bsz) {
				for _, rec := range sess.ResumeBatchPolicyAt(chunk, 0, split, DefaultExitPolicy()) {
					assertRecordsMatch(t, "resume", i, rec, want[i])
					i++
				}
			}
		}
	}
	// Resuming raw inputs at (trunk, 0) is exactly the monolithic walk.
	ref05 := reference(t, LinearGraph(cdln), 0.5)
	recs0 := sess.ResumeBatchPolicyAt(xs, 0, 0, DeltaPolicy(0.5))
	for i, x := range xs {
		assertRecordsMatch(t, "resume-0", i, recs0[i], ref05(x))
	}
}

// TestResumeBatchRejectsBadShape pins the resume panic contract.
func TestResumeBatchRejectsBadShape(t *testing.T) {
	cdln := batchCDLN(t, 26)
	sess, err := NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ResumeBatchPolicyAt accepted a wrong-shape activation")
		}
	}()
	sess.ResumeBatchPolicyAt([]*tensor.T{tensor.New(3, 3)}, 0, 1, DefaultExitPolicy())
}

// TestClassifyBatchStageDeltas checks trained per-stage thresholds resolve
// the same way in the walker and the reference.
func TestClassifyBatchStageDeltas(t *testing.T) {
	cdln := batchCDLN(t, 27)
	tuned := cdln.Clone()
	tuned.StageDeltas = []float64{0.9, 0.4}
	sess, err := NewSession(tuned)
	if err != nil {
		t.Fatal(err)
	}
	xs := mixedInputs(50, 15)
	recs := sess.ClassifyBatchPolicy(xs, DefaultExitPolicy())
	for i, x := range xs {
		assertRecordsMatch(t, "stage-deltas", i, recs[i], tuned.Classify(x))
	}
}

// BenchmarkSessionClassifyLoop32 is 32 batch-of-one Classify calls per
// iteration.
func BenchmarkSessionClassifyLoop32(b *testing.B) {
	benchClassify(b, false)
}

// BenchmarkSessionClassifyBatch32 is the same 32 inputs as one batch per
// iteration.
func BenchmarkSessionClassifyBatch32(b *testing.B) {
	benchClassify(b, true)
}

func benchClassify(b *testing.B, batched bool) {
	arch := twoStageArch(1, 3)
	data := blobData(180, 2)
	cfg := DefaultBuildConfig()
	cfg.ForceAllStages = true
	cdln, _, err := Build(arch, data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := NewSession(cdln)
	if err != nil {
		b.Fatal(err)
	}
	xs := mixedInputs(32, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			sess.ClassifyBatchPolicy(xs, DefaultExitPolicy())
		} else {
			for _, x := range xs {
				sess.Classify(x)
			}
		}
	}
	b.ReportMetric(float64(len(xs))*float64(b.N)/b.Elapsed().Seconds(), "images/s")
}
