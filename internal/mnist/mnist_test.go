package mnist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateBasics(t *testing.T) {
	imgs, err := Generate(GenConfig{N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 100 {
		t.Fatalf("got %d images, want 100", len(imgs))
	}
	for i, im := range imgs {
		if len(im.Pixels) != Side*Side {
			t.Fatalf("image %d: %d pixels", i, len(im.Pixels))
		}
		if im.Label < 0 || im.Label >= Classes {
			t.Fatalf("image %d: label %d", i, im.Label)
		}
		if im.Difficulty < 0 || im.Difficulty > 1 {
			t.Fatalf("image %d: difficulty %v", i, im.Difficulty)
		}
		for j, p := range im.Pixels {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("image %d pixel %d out of range: %v", i, j, p)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenConfig{N: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenConfig{N: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Label != b[i].Label || a[i].Difficulty != b[i].Difficulty {
			t.Fatalf("image %d metadata differs across same-seed runs", i)
		}
		for j := range a[i].Pixels {
			if a[i].Pixels[j] != b[i].Pixels[j] {
				t.Fatalf("image %d pixel %d differs across same-seed runs", i, j)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(GenConfig{N: 10, Seed: 1})
	b, _ := Generate(GenConfig{N: 10, Seed: 2})
	same := true
	for i := range a {
		for j := range a[i].Pixels {
			if a[i].Pixels[j] != b[i].Pixels[j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateBalanced(t *testing.T) {
	imgs, err := Generate(GenConfig{N: 200, Seed: 3, BalanceClasses: true})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, Classes)
	for _, im := range imgs {
		counts[im.Label]++
	}
	for c, n := range counts {
		if n != 20 {
			t.Errorf("class %d count %d, want 20", c, n)
		}
	}
}

func TestGenerateBadConfig(t *testing.T) {
	if _, err := Generate(GenConfig{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Generate(GenConfig{N: 10, NoiseLevel: 2}); err == nil {
		t.Error("NoiseLevel=2 accepted")
	}
	if _, err := Generate(GenConfig{N: 10, DifficultyExponent: -1}); err == nil {
		t.Error("negative DifficultyExponent accepted")
	}
}

func TestParseGroups(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want [][]int
	}{
		{"even,odd", [][]int{{0, 2, 4, 6, 8}, {1, 3, 5, 7, 9}}},
		{"all", [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}},
		{"0-4, 5-9", [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}},
		{"3-3", [][]int{{3}}},
		{"013,89", [][]int{{0, 1, 3}, {8, 9}}},
		{"0-2,567,odd", [][]int{{0, 1, 2}, {5, 6, 7}, {1, 3, 5, 7, 9}}},
	} {
		got, err := ParseGroups(tc.spec)
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q = %v, want %v", tc.spec, got, tc.want)
		}
	}
	for _, spec := range []string{"", "  ", "even,", ",odd", "5-2", "0-10", "-1-3", "a-b", "0-", "12x", "evens"} {
		if g, err := ParseGroups(spec); err == nil {
			t.Errorf("%q accepted as %v", spec, g)
		}
	}
}

func TestGenerateGrouped(t *testing.T) {
	groups := [][]int{{3, 8}, {0, 1, 2, 4, 5, 6, 7, 9}}
	imgs, err := Generate(GenConfig{N: 400, Seed: 4, Groups: groups[:1]})
	if err != nil {
		t.Fatal(err)
	}
	for i, im := range imgs {
		if im.Label != 3 && im.Label != 8 {
			t.Fatalf("image %d: label %d outside the group {3, 8}", i, im.Label)
		}
	}
	// Weights bias the group draw: 9:1 toward {3, 8} puts ~90% of labels
	// there, against ~50% unweighted.
	inFirst := func(weights []float64) float64 {
		imgs, err := Generate(GenConfig{N: 1000, Seed: 5, Groups: groups, GroupWeights: weights})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, im := range imgs {
			if im.Label == 3 || im.Label == 8 {
				n++
			}
		}
		return float64(n) / float64(len(imgs))
	}
	if f := inFirst([]float64{9, 1}); f < 0.85 || f > 0.95 {
		t.Errorf("weights 9:1: %.3f of labels in the first group, want ≈ 0.9", f)
	}
	if f := inFirst(nil); f < 0.44 || f > 0.56 {
		t.Errorf("uniform groups: %.3f of labels in the first group, want ≈ 0.5", f)
	}
	for _, cfg := range []GenConfig{
		{N: 10, Groups: [][]int{{1}, {}}},
		{N: 10, Groups: [][]int{{1, 10}}},
		{N: 10, Groups: [][]int{{-1}}},
		{N: 10, Groups: groups, GroupWeights: []float64{1}},
		{N: 10, Groups: groups, GroupWeights: []float64{1, 0}},
		{N: 10, Groups: groups, GroupWeights: []float64{1, -2}},
		{N: 10, Groups: groups, GroupWeights: []float64{1, math.NaN()}},
		{N: 10, Groups: groups, GroupWeights: []float64{math.Inf(1), 1}},
	} {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config accepted: groups %v weights %v", cfg.Groups, cfg.GroupWeights)
		}
	}
}

func TestDifficultyDistributionSkewsEasy(t *testing.T) {
	imgs, err := Generate(GenConfig{N: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	easy, hard := 0, 0
	for _, im := range imgs {
		if im.Difficulty < 0.3 {
			easy++
		}
		if im.Difficulty > 0.7 {
			hard++
		}
	}
	if easy <= hard {
		t.Errorf("difficulty not skewed easy: %d easy vs %d hard (CDL premise needs mostly-easy inputs)", easy, hard)
	}
}

func TestClassHardnessOrdering(t *testing.T) {
	imgs, err := Generate(GenConfig{N: 5000, Seed: 6, BalanceClasses: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]float64, Classes)
	n := make([]int, Classes)
	for _, im := range imgs {
		sum[im.Label] += im.Difficulty
		n[im.Label]++
	}
	mean1 := sum[1] / float64(n[1])
	mean5 := sum[5] / float64(n[5])
	if mean1 >= mean5 {
		t.Errorf("digit 1 mean difficulty %.3f >= digit 5 %.3f; paper ordering requires 1 easiest, 5 hardest", mean1, mean5)
	}
	for c := 0; c < Classes; c++ {
		if c != 1 && sum[c]/float64(n[c]) < mean1 {
			t.Errorf("digit %d easier than digit 1 on average", c)
		}
	}
}

func TestImagesHaveInk(t *testing.T) {
	imgs, err := Generate(GenConfig{N: 100, Seed: 7, BalanceClasses: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, im := range imgs {
		ink := 0.0
		for _, p := range im.Pixels {
			ink += p
		}
		if ink < 10 {
			t.Errorf("image %d (label %d) nearly blank: total ink %.2f", i, im.Label, ink)
		}
		if ink > float64(Side*Side)*0.7 {
			t.Errorf("image %d (label %d) nearly solid: total ink %.2f", i, im.Label, ink)
		}
	}
}

func TestTensorSharesPixels(t *testing.T) {
	imgs, _ := Generate(GenConfig{N: 1, Seed: 8})
	tt := imgs[0].Tensor()
	if got := tt.Shape(); got[0] != 1 || got[1] != Side || got[2] != Side {
		t.Fatalf("Tensor shape %v", got)
	}
	tt.Data[0] = 0.123
	if imgs[0].Pixels[0] != 0.123 {
		t.Error("Tensor should share pixel storage")
	}
	c := imgs[0].Clone()
	c.Pixels[0] = 0.5
	if imgs[0].Pixels[0] == 0.5 {
		t.Error("Clone should not share pixel storage")
	}
}

func TestToSamplesAndSplitByClass(t *testing.T) {
	imgs, _ := Generate(GenConfig{N: 30, Seed: 9, BalanceClasses: true})
	samples := ToSamples(imgs)
	if len(samples) != 30 {
		t.Fatalf("ToSamples len %d", len(samples))
	}
	for i := range samples {
		if samples[i].Label != imgs[i].Label {
			t.Fatal("label mismatch")
		}
	}
	buckets := SplitByClass(imgs)
	total := 0
	for c, idxs := range buckets {
		for _, i := range idxs {
			if imgs[i].Label != c {
				t.Fatal("SplitByClass misfiled an image")
			}
		}
		total += len(idxs)
	}
	if total != 30 {
		t.Fatalf("SplitByClass total %d", total)
	}
}

func TestIDXRoundTrip(t *testing.T) {
	imgs, _ := Generate(GenConfig{N: 25, Seed: 10, BalanceClasses: true})
	var ibuf, lbuf bytes.Buffer
	if err := WriteIDXImages(&ibuf, imgs); err != nil {
		t.Fatal(err)
	}
	if err := WriteIDXLabels(&lbuf, imgs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIDXImages(&ibuf)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := ReadIDXLabels(&lbuf)
	if err != nil {
		t.Fatal(err)
	}
	if err := MergeLabels(back, labels); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(imgs) {
		t.Fatalf("round trip count %d != %d", len(back), len(imgs))
	}
	for i := range back {
		if back[i].Label != imgs[i].Label {
			t.Fatalf("label %d mismatch", i)
		}
		for j := range back[i].Pixels {
			if math.Abs(back[i].Pixels[j]-imgs[i].Pixels[j]) > 1.0/255+1e-9 {
				t.Fatalf("pixel %d/%d quantization error too large: %v vs %v",
					i, j, back[i].Pixels[j], imgs[i].Pixels[j])
			}
		}
	}
}

func TestIDXBadMagic(t *testing.T) {
	if _, err := ReadIDXImages(bytes.NewReader([]byte{0, 0, 8, 1, 0, 0, 0, 0, 0, 0, 0, 28, 0, 0, 0, 28})); err == nil {
		t.Error("bad image magic accepted")
	}
	if _, err := ReadIDXLabels(bytes.NewReader([]byte{0, 0, 8, 3, 0, 0, 0, 0})); err == nil {
		t.Error("bad label magic accepted")
	}
}

func TestIDXTruncated(t *testing.T) {
	imgs, _ := Generate(GenConfig{N: 2, Seed: 11})
	var buf bytes.Buffer
	if err := WriteIDXImages(&buf, imgs); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadIDXImages(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestMergeLabelsMismatch(t *testing.T) {
	imgs, _ := Generate(GenConfig{N: 3, Seed: 12})
	if err := MergeLabels(imgs, []int{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := MergeLabels(imgs, []int{1, 2, 99}); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestRender(t *testing.T) {
	imgs, _ := Generate(GenConfig{N: 1, Seed: 13, BalanceClasses: true})
	s := Render(imgs[0])
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != Side {
		t.Fatalf("Render rows %d, want %d", len(lines), Side)
	}
	for _, l := range lines {
		if len(l) != Side {
			t.Fatalf("Render row width %d, want %d", len(l), Side)
		}
	}
	if !strings.ContainsAny(s, "#%@*+") {
		t.Error("Render contains no dark ink characters")
	}
}

func TestRenderSideBySide(t *testing.T) {
	imgs, _ := Generate(GenConfig{N: 3, Seed: 14})
	s := RenderSideBySide(imgs, 2)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != Side {
		t.Fatalf("rows %d", len(lines))
	}
	wantWidth := 3*Side + 2*2
	if len(lines[0]) != wantWidth {
		t.Fatalf("width %d, want %d", len(lines[0]), wantWidth)
	}
	if RenderSideBySide(nil, 1) != "" {
		t.Error("empty gallery should render empty")
	}
}

func TestGenerateSplitDisjointSeeds(t *testing.T) {
	tr, te, err := GenerateSplit(40, 20, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 40 || len(te) != 20 {
		t.Fatalf("split sizes %d/%d", len(tr), len(te))
	}
	// Train and test must not be pixel-identical datasets.
	identical := true
	for j := range tr[0].Pixels {
		if tr[0].Pixels[j] != te[0].Pixels[j] {
			identical = false
			break
		}
	}
	if identical {
		t.Error("train/test splits look identical; seeds not separated")
	}
}

// Property: every generated pixel stays in [0,1] across configs.
func TestQuickPixelRange(t *testing.T) {
	f := func(seed int64, noiseRaw uint8) bool {
		noise := float64(noiseRaw%100) / 200 // 0..0.495
		imgs, err := Generate(GenConfig{N: 3, Seed: seed, NoiseLevel: noise})
		if err != nil {
			return noise == 0 // NoiseLevel 0 means default, never errors
		}
		for _, im := range imgs {
			for _, p := range im.Pixels {
				if p < 0 || p > 1 || math.IsNaN(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLoadDirRoundTrip(t *testing.T) {
	// Writing our synthetic dataset as IDX files and loading them through
	// the real-MNIST path must reproduce labels and pixels (up to uint8
	// quantization) — this is the code path a user with the genuine LeCun
	// files exercises.
	dir := t.TempDir()
	trainImgs, testImgs, err := GenerateSplit(12, 8, 21)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, imgs []Image, labels bool) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if labels {
			err = WriteIDXLabels(f, imgs)
		} else {
			err = WriteIDXImages(f, imgs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	write("train-images-idx3-ubyte", trainImgs, false)
	write("train-labels-idx1-ubyte", trainImgs, true)
	write("t10k-images-idx3-ubyte", testImgs, false)
	write("t10k-labels-idx1-ubyte", testImgs, true)

	gotTrain, gotTest, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTrain) != 12 || len(gotTest) != 8 {
		t.Fatalf("loaded %d/%d images", len(gotTrain), len(gotTest))
	}
	for i := range gotTrain {
		if gotTrain[i].Label != trainImgs[i].Label {
			t.Fatalf("train label %d mismatch", i)
		}
		for j := range gotTrain[i].Pixels {
			if math.Abs(gotTrain[i].Pixels[j]-trainImgs[i].Pixels[j]) > 1.0/255+1e-9 {
				t.Fatalf("train pixel %d/%d beyond quantization error", i, j)
			}
		}
	}
}

func TestLoadDirMissing(t *testing.T) {
	if _, _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty directory accepted")
	}
}
