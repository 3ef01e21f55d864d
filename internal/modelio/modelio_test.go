package modelio

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cdl/internal/core"
	"cdl/internal/hw"
	"cdl/internal/mnist"
	"cdl/internal/nn"
	"cdl/internal/opcount"
	"cdl/internal/tensor"
	"cdl/internal/train"
)

func trainedPair(t *testing.T) (*core.CDLN, []train.Sample) {
	t.Helper()
	imgs, err := mnist.Generate(mnist.GenConfig{N: 200, Seed: 9, BalanceClasses: true})
	if err != nil {
		t.Fatal(err)
	}
	data := mnist.ToSamples(imgs)
	arch := nn.Arch6Layer(rand.New(rand.NewSource(2)))
	cfg := train.Defaults(10)
	cfg.Epochs = 3
	if _, err := train.SGD(arch.Net, data, cfg); err != nil {
		t.Fatal(err)
	}
	bcfg := core.DefaultBuildConfig()
	bcfg.ForceAllStages = true
	cdln, _, err := core.Build(arch, data, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	return cdln, data
}

// TestArchRoundTrip pins the baseline half of every model file: the arch
// spec rebuilds the same network, bit for bit.
func TestArchRoundTrip(t *testing.T) {
	cdln, data := trainedPair(t)
	arch := cdln.Arch

	spec, err := specFromArch(arch)
	if err != nil {
		t.Fatal(err)
	}
	back, err := archFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != arch.Name || back.NumClasses != arch.NumClasses {
		t.Error("arch metadata lost")
	}
	if len(back.Taps) != len(arch.Taps) {
		t.Fatal("taps lost")
	}
	// Outputs must be bit-identical on real inputs.
	for i := 0; i < 10; i++ {
		a := arch.Net.Forward(data[i].X)
		b := back.Net.Forward(data[i].X)
		if !tensor.Equal(a, b) {
			t.Fatalf("forward mismatch on sample %d", i)
		}
	}
}

func TestCDLNRoundTrip(t *testing.T) {
	cdln, data := trainedPair(t)

	var buf bytes.Buffer
	if err := SaveCDLN(&buf, cdln); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCDLN(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Delta != cdln.Delta || back.Rule.Name() != cdln.Rule.Name() {
		t.Error("δ or rule lost")
	}
	if len(back.Stages) != len(cdln.Stages) {
		t.Fatalf("stages %d, want %d", len(back.Stages), len(cdln.Stages))
	}
	for i := range cdln.Stages {
		if back.Stages[i].Gain != cdln.Stages[i].Gain {
			t.Error("stage gain lost")
		}
	}
	// Exit decisions and labels must be identical.
	for i := 0; i < 30; i++ {
		a := cdln.Classify(data[i].X)
		b := back.Classify(data[i].X)
		if !a.Equal(b) {
			t.Fatalf("classify mismatch on sample %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := LoadGraph(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Error("garbage graph accepted")
	}
	if _, err := LoadCDLN(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("garbage cdln accepted")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.cdln")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestSaveFileAtomic pins the write-temp-then-rename contract: a save over
// an existing model either fully replaces it or leaves it untouched, and
// no temp files survive in either case — a registry hot-reloading the path
// must never observe a torn file. It runs once with a full path and once
// with a bare filename, whose temp file must be staged in the working
// directory.
func TestSaveFileAtomic(t *testing.T) {
	cdln, data := trainedPair(t)
	for _, bare := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "model.cdln")
		if bare {
			wd, err := os.Getwd()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Chdir(dir); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.Chdir(wd) })
			path = "model.cdln"
		}
		// Save twice (create, then atomic replace) and reload after each.
		for round := 0; round < 2; round++ {
			if err := SaveFile(path, cdln); err != nil {
				t.Fatal(err)
			}
			back, err := LoadFile(path)
			if err != nil {
				t.Fatalf("bare=%v round %d: %v", bare, round, err)
			}
			for i := 0; i < 10; i++ {
				if a, b := cdln.Classify(data[i].X), back.Classify(data[i].X); !a.Equal(b) {
					t.Fatalf("bare=%v: loaded model diverges on sample %d", bare, i)
				}
			}
		}
		// An invalid model must fail before touching path and clean its temp.
		bad := cdln.Clone()
		bad.Delta = 7 // outside [0,1]: Validate rejects at save time
		if err := SaveFile(path, bad); err == nil {
			t.Fatal("invalid model saved")
		}
		if _, err := LoadFile(path); err != nil {
			t.Fatalf("bare=%v: failed save corrupted the existing file: %v", bare, err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 1 || filepath.Base(files[0]) != "model.cdln" {
			t.Fatalf("bare=%v: temp files left behind: %v", bare, files)
		}
	}
}

// TestAllLayerKindsRoundTrip is the layer set's totality check across
// every consumer of a layer: each kind layerFromSpec accepts must survive
// the spec round trip with the same outputs, be costed by opcount.LayerOps
// and be itemized by hw.AnalyzeLayer, whose type switches panic on a layer
// they do not know. The paper's networks must use no kind outside the set.
func TestAllLayerKindsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	conv := nn.NewConv2D("c", 2, 3, 3)
	dense := nn.NewDense("d", 12, 5)
	nn.XavierConv(conv, rng)
	nn.XavierDense(dense, rng)
	cases := map[string]struct {
		layer nn.Layer
		in    []int
	}{
		"conv":    {conv, []int{2, 6, 6}},
		"dense":   {dense, []int{12}},
		"maxpool": {nn.NewMaxPool2D("p", 2), []int{3, 4, 4}},
		"sigmoid": {nn.NewSigmoid("s"), []int{3, 4, 4}},
		"flatten": {nn.NewFlatten("f"), []int{3, 2, 2}},
	}
	for _, arch := range []*nn.Arch{nn.Arch6Layer(rng), nn.Arch8Layer(rng), nn.ArchTiny(rng, 4)} {
		for _, l := range arch.Net.Layers {
			s, err := specFromLayer(l)
			if _, ok := cases[s.Kind]; err != nil || !ok {
				t.Errorf("%s layer %s: kind %q (err %v) is not in the table", arch.Name, l.Name(), s.Kind, err)
			}
		}
	}
	for kind, tc := range cases {
		s, err := specFromLayer(tc.layer)
		if err != nil || s.Kind != kind {
			t.Fatalf("%s: spec kind %q, err %v", kind, s.Kind, err)
		}
		back, err := layerFromSpec(s)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		x := tensor.New(tc.in...)
		for i := range x.Data {
			x.Data[i] = rng.Float64()*2 - 1
		}
		if !tensor.Equal(tc.layer.Forward(x), back.Forward(x)) {
			t.Errorf("%s: layer changed behaviour after the round trip", kind)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: a consumer panicked: %v", kind, r)
				}
			}()
			want := opcount.LayerOps(tc.layer, tc.in)
			if got := opcount.LayerOps(back, tc.in); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: ops %+v after the round trip, %+v before", kind, got, want)
			}
			if got, want := hw.AnalyzeLayer(back, tc.in), hw.AnalyzeLayer(tc.layer, tc.in); got != want {
				t.Errorf("%s: activity %+v after the round trip, %+v before", kind, got, want)
			}
		}()
	}
}

// TestRemovedLayerKindsRefused pins the layers no model uses as unknown:
// a spec naming one is an error from layerFromSpec and from a whole-file
// load, never a panic.
func TestRemovedLayerKindsRefused(t *testing.T) {
	valid, err := specFromCDLN(fuzzCDLN())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"tanh", "relu", "softmax", "meanpool", "dropout"} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", kind, r)
				}
			}()
			s := layerSpec{Kind: kind, Name: kind, Ints: map[string]int{"win": 2}, Weights: map[string][]float64{"rate": {0.5}}}
			if _, err := layerFromSpec(s); err == nil || !strings.Contains(err.Error(), "unknown layer kind") {
				t.Errorf("%s: layerFromSpec err %v, want unknown layer kind", kind, err)
			}
			spec := valid
			spec.Arch.Layers = append([]layerSpec(nil), valid.Arch.Layers...)
			spec.Arch.Layers[1] = s // the conv's activation
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadCDLN(&buf); err == nil || !strings.Contains(err.Error(), "unknown layer kind") {
				t.Errorf("%s: LoadCDLN err %v, want unknown layer kind", kind, err)
			}
		}()
	}
}
