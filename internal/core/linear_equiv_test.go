package core

// linear_equiv_test.go is the linear-equivalence golden harness: a linear
// cascade wrapped as the one-node graph (LinearGraph) and run by the
// Session walker must be byte-identical to the reference walk
// (CDLN.Classify) — not approximately equal, identical, ExitRecord field
// for field, with the per-stage confidence Trace identical across batch
// sizes — as a batch of one, as a batch, and across every tier-split
// stage. CI runs these under -race alongside the batch differential suite.

import (
	"slices"
	"testing"

	"cdl/internal/tensor"
)

// assertRecordsIdentical is ExitRecord.Equal plus the Trace slice — the
// full byte-identity the linear-equivalence contract promises.
func assertRecordsIdentical(t *testing.T, label string, i int, got, want ExitRecord) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: input %d: record %+v != reference %+v", label, i, got, want)
	}
	if !slices.Equal(got.Trace, want.Trace) {
		t.Fatalf("%s: input %d: trace %v != reference trace %v", label, i, got.Trace, want.Trace)
	}
}

// TestLinearGraphMatchesCDLNClassify pins the batch of one: a session over
// LinearGraph(c) produces exactly the record CDLN.Classify produces — the
// reference walk — for every input.
func TestLinearGraphMatchesCDLNClassify(t *testing.T) {
	cdln := batchCDLN(t, 31)
	sess, err := NewGraphSession(LinearGraph(cdln))
	if err != nil {
		t.Fatal(err)
	}
	xs := mixedInputs(120, 5)
	exitsSeen := make(map[int]int)
	for i, x := range xs {
		ref := cdln.Classify(x)
		got := sess.Classify(x)
		assertRecordsIdentical(t, "serial", i, got, ref)
		if got.Node != 0 {
			t.Fatalf("input %d: linear record in node %d", i, got.Node)
		}
		exitsSeen[got.StageIndex]++
	}
	// The sweep must exercise early exits and the FC tail, or the identity
	// is vacuous.
	if exitsSeen[0] == 0 || exitsSeen[len(cdln.Stages)] == 0 {
		t.Fatalf("degenerate exit distribution %v", exitsSeen)
	}
}

// TestLinearGraphBatchMatchesSerial pins the walker on the one-node graph
// across batch sizes, with Trace enabled so the per-stage confidences are
// part of the identity: batched record == batch-of-one record, trace
// included, and both equal the reference walk's record.
func TestLinearGraphBatchMatchesSerial(t *testing.T) {
	cdln := batchCDLN(t, 32)
	sess, err := NewGraphSession(LinearGraph(cdln))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewGraphSession(LinearGraph(cdln))
	if err != nil {
		t.Fatal(err)
	}
	pol := DefaultExitPolicy()
	pol.Trace = true
	for _, bsz := range []int{1, 2, 7, 16, 33} {
		xs := mixedInputs(bsz, int64(200+bsz))
		recs := sess.ClassifyBatchPolicy(xs, pol)
		for i, x := range xs {
			want := ref.ClassifyBatchPolicy([]*tensor.T{x}, pol)[0]
			assertRecordsIdentical(t, "batch-trace", i, recs[i], want)
			if len(want.Trace) == 0 {
				t.Fatalf("input %d: policy trace empty", i)
			}
			// The non-trace fields must also equal the reference walk.
			if serial := cdln.Classify(x); !recs[i].Equal(serial) {
				t.Fatalf("input %d: batch record %+v != reference %+v", i, recs[i], serial)
			}
		}
	}
}

// TestLinearGraphSplitEquivalence pins the tier-split identity on the
// one-node graph at every split stage: prefix+resume — batch of one and
// batched — equals the reference walk's monolithic record exactly.
func TestLinearGraphSplitEquivalence(t *testing.T) {
	cdln := batchCDLN(t, 33)
	sess, err := NewGraphSession(LinearGraph(cdln))
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := NewGraphSession(LinearGraph(cdln))
	if err != nil {
		t.Fatal(err)
	}
	xs := mixedInputs(48, 9)
	want := make([]ExitRecord, len(xs))
	for i, x := range xs {
		want[i] = cdln.Classify(x)
	}
	pol := DefaultExitPolicy()
	for split := 0; split <= len(cdln.Stages); split++ {
		for _, bsz := range []int{1, 48} {
			base := 0
			for _, chunk := range chunks(xs, bsz) {
				var deferredX []*tensor.T
				var deferredIdx []int
				for k, pre := range sess.ClassifyPrefixBatchPolicy(chunk, split, pol) {
					i := base + k
					if pre.Exited {
						assertRecordsIdentical(t, "split-local", i, pre.Record, want[i])
						continue
					}
					if pre.Node != 0 || pre.FromStage != split {
						t.Fatalf("split %d input %d: linear handoff at (node %d, stage %d)", split, i, pre.Node, pre.FromStage)
					}
					deferredX = append(deferredX, pre.Activation)
					deferredIdx = append(deferredIdx, i)
				}
				for j, rec := range cloud.ResumeBatchPolicyAt(deferredX, 0, split, pol) {
					assertRecordsIdentical(t, "split-resumed", deferredIdx[j], rec, want[deferredIdx[j]])
				}
				base += len(chunk)
			}
		}
	}
}
