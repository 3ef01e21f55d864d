package energy

import (
	"math"
	"testing"

	"cdl/internal/core"
	"cdl/internal/mnist"
)

// evalWithRecords re-runs the small fixture keeping per-sample records.
func evalWithRecords(t *testing.T) (*core.CDLN, *core.EvalResult) {
	t.Helper()
	cdln, _ := buildSmallCDLN(t)
	_, testImgs, err := mnist.GenerateSplit(1, 120, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Evaluate(cdln, mnist.ToSamples(testImgs), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	return cdln, res
}

// TestAccumulatorMatchesFromEval feeds an evaluation's records through the
// incremental path and checks the aggregate numbers agree with the batch
// summary (per-class means legitimately differ: predicted vs true label).
func TestAccumulatorMatchesFromEval(t *testing.T) {
	cdln, res := evalWithRecords(t)
	ev := NewEvaluator()
	want, err := ev.FromEval(cdln, res)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := ev.NewAccumulator(cdln)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if err := acc.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := acc.Summary()
	if math.Abs(got.MeanEnergy-want.MeanEnergy) > 1e-6 {
		t.Errorf("mean %v != FromEval %v", got.MeanEnergy, want.MeanEnergy)
	}
	if got.BaselineEnergy != want.BaselineEnergy {
		t.Errorf("baseline %v != %v", got.BaselineEnergy, want.BaselineEnergy)
	}
	if math.Abs(got.Normalized()-want.Normalized()) > 1e-9 {
		t.Errorf("normalized %v != %v", got.Normalized(), want.Normalized())
	}
}

// TestAccumulatorRejects covers the bounds checks.
func TestAccumulatorRejects(t *testing.T) {
	cdln, _ := evalWithRecords(t)
	ev := NewEvaluator()
	acc, err := ev.NewAccumulator(cdln)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(core.ExitRecord{StageIndex: cdln.NumExits()}); err == nil {
		t.Error("out-of-range exit accepted")
	}
	if err := acc.Add(core.ExitRecord{Label: -1}); err == nil {
		t.Error("negative label accepted")
	}
}
