package cdl

import (
	"path/filepath"
	"testing"

	"cdl/internal/core"
	"cdl/internal/fixed"
	"cdl/internal/mnist"
)

// TestFacadeEndToEnd exercises the whole public API surface: generate data,
// train a baseline, build a CDLN, evaluate, measure energy, save and load.
func TestFacadeEndToEnd(t *testing.T) {
	trainS, testS, err := GenerateMNIST(1200, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(trainS) != 1200 || len(testS) != 200 {
		t.Fatalf("split sizes %d/%d", len(trainS), len(testS))
	}

	arch := NewArch6(7)
	if err := TrainBaseline(arch, trainS, 5, 1); err != nil {
		t.Fatal(err)
	}
	baseAcc := BaselineAccuracy(arch, testS)
	if baseAcc < 0.3 {
		t.Fatalf("baseline accuracy %.3f too low to be a trained network", baseAcc)
	}

	cdln, report, err := BuildCDLN(arch, trainS, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Stages) == 0 {
		t.Fatal("no stage reports")
	}

	res, err := Evaluate(cdln, testS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confusion.Total() != 200 {
		t.Fatalf("evaluated %d samples", res.Confusion.Total())
	}
	if n := res.NormalizedOps(); n <= 0 || n > 1.2 {
		t.Errorf("normalized OPS %.3f implausible", n)
	}

	sum, err := EnergyOf(cdln, res)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MeanEnergy <= 0 {
		t.Error("energy must be positive")
	}

	path := filepath.Join(t.TempDir(), "model.cdln")
	if err := SaveCDLN(path, cdln); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCDLN(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a := cdln.Classify(testS[i].X)
		b := back.Classify(testS[i].X)
		if !a.Equal(b) {
			t.Fatalf("loaded model diverges on sample %d", i)
		}
	}
}

func TestFacadeImagesAndRender(t *testing.T) {
	imgs, err := GenerateMNISTGrouped(20, 4, [][]int{{3, 8}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 20 {
		t.Fatalf("%d images, want 20", len(imgs))
	}
	for _, img := range imgs {
		if img.Label != 3 && img.Label != 8 {
			t.Fatalf("label %d outside the group {3, 8}", img.Label)
		}
	}
	if s := mnist.Render(imgs[0]); len(s) == 0 {
		t.Error("render empty")
	}
}

func TestFacadeArch8(t *testing.T) {
	arch := NewArch8(1)
	if arch.Name != "8-layer" || len(arch.Taps) != 3 {
		t.Errorf("arch8 metadata wrong: %s, %d taps", arch.Name, len(arch.Taps))
	}
	if err := arch.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLoadCDLNMissingFile(t *testing.T) {
	if _, err := LoadCDLN(filepath.Join(t.TempDir(), "nope.cdln")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestSaveCDLNAtomic pins the write-temp-then-rename contract: a save over
// an existing model either fully replaces it or leaves it untouched, and
// no temp files survive in either case — a registry hot-reloading the path
// must never observe a torn file.
func TestSaveCDLNAtomic(t *testing.T) {
	trainS, _, err := GenerateMNIST(300, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	arch := NewArch6(11)
	if err := TrainBaseline(arch, trainS, 1, 1); err != nil {
		t.Fatal(err)
	}
	cdln, _, err := BuildCDLN(arch, trainS, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.cdln")

	// Save twice (create, then atomic replace) and reload after each.
	for round := 0; round < 2; round++ {
		if err := SaveCDLN(path, cdln); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCDLN(path); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// An invalid model must fail before touching path and clean its temp.
	bad := cdln.Clone()
	bad.Delta = 7 // outside [0,1]: Validate rejects at save time
	if err := SaveCDLN(path, bad); err == nil {
		t.Fatal("invalid model saved")
	}
	if _, err := LoadCDLN(path); err != nil {
		t.Fatalf("failed save corrupted the existing file: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0] != path {
		t.Fatalf("temp files left behind: %v", files)
	}
}

func TestFacadeTuneAndQuantize(t *testing.T) {
	trainS, testS, err := GenerateMNIST(1200, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	arch := NewArch8(9)
	if err := TrainBaseline(arch, trainS, 8, 1); err != nil {
		t.Fatal(err)
	}
	cdln, _, err := BuildCDLN(arch, trainS, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}

	deltas, _, err := TuneDeltas(cdln, trainS[:300])
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != len(cdln.Stages) {
		t.Errorf("tuned %d deltas for %d stages", len(deltas), len(cdln.Stages))
	}

	q, maxErr, err := core.QuantizeCDLN(cdln, fixed.Q2x13)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr <= 0 || maxErr > 1.0/8192 {
		t.Errorf("rounding error %v outside (0, 2^-13]", maxErr)
	}
	res, err := Evaluate(q, testS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confusion.Accuracy() < 0.5 {
		t.Errorf("quantized accuracy collapsed: %v", res.Confusion.Accuracy())
	}
}
