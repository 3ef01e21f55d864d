package core

import (
	"math"
	"testing"

	"cdl/internal/fixed"
	"cdl/internal/tensor"
	"cdl/internal/train"
)

func builtCDLN(t *testing.T, seed int64) (*CDLN, []train.Sample) {
	t.Helper()
	arch, data := trainedArch(t, seed)
	cfg := DefaultBuildConfig()
	cfg.ForceAllStages = true
	cdln, _, err := Build(arch, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cdln, data
}

func TestStageDeltasOverrideGlobal(t *testing.T) {
	cdln, data := builtCDLN(t, 21)
	// Per-stage thresholds of 1.0 everywhere force every input to FC even
	// though the global Delta stays loose.
	cdln.Delta = 0.5
	cdln.StageDeltas = []float64{1.0, 1.0}
	for i := 0; i < 10; i++ {
		if rec := cdln.Classify(data[i].X); rec.StageName != "FC" {
			t.Fatalf("sample %d exited at %s despite per-stage δ=1", i, rec.StageName)
		}
	}
	// And loose per-stage thresholds restore early exit for some inputs.
	cdln.StageDeltas = []float64{0.5, 0.5}
	early := false
	for i := range data {
		if rec := cdln.Classify(data[i].X); rec.StageIndex == 0 {
			early = true
			break
		}
	}
	if !early {
		t.Error("no input exits early at per-stage δ=0.5")
	}
}

func TestStageDeltasValidate(t *testing.T) {
	cdln, _ := builtCDLN(t, 22)
	cdln.StageDeltas = []float64{0.5}
	if cdln.Validate() == nil {
		t.Error("length-mismatched StageDeltas validated")
	}
	cdln.StageDeltas = []float64{0.5, 1.5}
	if cdln.Validate() == nil {
		t.Error("out-of-range stage delta validated")
	}
	cdln.StageDeltas = []float64{0.5, 0.7}
	if err := cdln.Validate(); err != nil {
		t.Error(err)
	}
	clone := cdln.Clone()
	if len(clone.StageDeltas) != 2 {
		t.Error("Clone lost StageDeltas")
	}
	clone.StageDeltas[0] = 0.9
	if cdln.StageDeltas[0] == 0.9 {
		t.Error("Clone shares StageDeltas storage")
	}
}

func TestTuneDeltasImprovesOrMatches(t *testing.T) {
	cdln, data := builtCDLN(t, 23)
	before, err := Evaluate(cdln, data, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	deltas, after, err := TuneDeltas(cdln, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != len(cdln.Stages) {
		t.Fatalf("got %d deltas for %d stages", len(deltas), len(cdln.Stages))
	}
	if after.Confusion.Accuracy() < before.Confusion.Accuracy() {
		t.Errorf("tuning reduced accuracy: %.4f -> %.4f",
			before.Confusion.Accuracy(), after.Confusion.Accuracy())
	}
	// The CDLN itself must now carry the tuned thresholds.
	for i, d := range deltas {
		if cdln.StageDeltas[i] != d {
			t.Error("returned deltas not installed on the CDLN")
		}
	}
}

func TestTuneDeltasValidation(t *testing.T) {
	cdln, _ := builtCDLN(t, 24)
	if _, _, err := TuneDeltas(cdln, nil, 0); err == nil {
		t.Error("empty validation set accepted")
	}
}

func TestQuantizeCDLNPreservesBehaviour(t *testing.T) {
	cdln, data := builtCDLN(t, 26)
	q, maxErr, err := QuantizeCDLN(cdln, fixed.Q2x13)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > fixed.Q2x13.Resolution()/2+1e-12 {
		t.Errorf("max rounding error %v exceeds half step", maxErr)
	}
	// Weights must actually be on the fixed-point grid.
	for _, p := range q.Arch.Net.Params() {
		for _, w := range p.W.Data {
			if r := fixed.Q2x13.Round(w); r != w {
				t.Fatalf("weight %v not representable in Q2.13", w)
			}
		}
	}
	// The float model must be untouched.
	for _, p := range cdln.Arch.Net.Params() {
		onGrid := true
		for _, w := range p.W.Data {
			if fixed.Q2x13.Round(w) != w {
				onGrid = false
			}
		}
		if onGrid && p.W.Numel() > 4 {
			// Exceedingly unlikely for trained float weights; flags
			// accidental write-through.
			t.Fatalf("float model parameter %s appears quantized in place", p.Name)
		}
	}
	// Q2.13 has ~1e-4 resolution; predictions should rarely change. Demand
	// ≥90% agreement on the training data.
	agree := 0
	for i := range data {
		a := cdln.Classify(data[i].X)
		b := q.Classify(data[i].X)
		if a.Label == b.Label {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(data)); frac < 0.9 {
		t.Errorf("quantized model agrees on only %.1f%% of inputs", 100*frac)
	}
}

func TestQuantizeCDLNBadFormat(t *testing.T) {
	cdln, _ := builtCDLN(t, 27)
	if _, _, err := QuantizeCDLN(cdln, fixed.Format{IntBits: -1}); err == nil {
		t.Error("bad format accepted")
	}
}

func TestDeepCloneIsolation(t *testing.T) {
	cdln, data := builtCDLN(t, 28)
	deep := cdln.Arch.Net.DeepClone()
	orig := cdln.Arch.Net.Params()[0].W.Data[0]
	deep.Params()[0].W.Data[0] = orig + 42
	if cdln.Arch.Net.Params()[0].W.Data[0] != orig {
		t.Fatal("DeepClone shares weight storage")
	}
	// Unmodified weights still agree functionally.
	deep.Params()[0].W.Data[0] = orig
	x := data[0].X
	a := cdln.Arch.Net.Forward(x)
	b := deep.Forward(x)
	if !tensor.AllClose(a, b, 1e-12) {
		t.Error("DeepClone diverges functionally")
	}
}

func TestQuantizationAccuracySweep(t *testing.T) {
	// Coarser formats must not *increase* fidelity: label agreement with
	// the float model is non-increasing as fractional bits shrink.
	cdln, data := builtCDLN(t, 29)
	formats := []fixed.Format{
		{IntBits: 2, FracBits: 13},
		{IntBits: 2, FracBits: 8},
		{IntBits: 2, FracBits: 4},
	}
	prev := 1.1
	for _, f := range formats {
		q, _, err := QuantizeCDLN(cdln, f)
		if err != nil {
			t.Fatal(err)
		}
		agree := 0
		for i := range data {
			if cdln.Classify(data[i].X).Label == q.Classify(data[i].X).Label {
				agree++
			}
		}
		frac := float64(agree) / float64(len(data))
		if frac > prev+0.05 {
			t.Errorf("%v agreement %.3f exceeds finer format's %.3f", f, frac, prev)
		}
		prev = math.Min(prev, frac+0.05)
	}
}
