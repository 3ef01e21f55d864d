package nn

import (
	"math/rand"
	"strings"
	"testing"

	"cdl/internal/tensor"
)

func testNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	net := NewNetwork([]int{1, 8, 8},
		NewConv2D("C1", 1, 2, 3),
		NewSigmoid("C1.act"),
		NewMaxPool2D("P1", 2),
		NewFlatten("flat"),
		NewDense("FC", 2*3*3, 4),
		NewSigmoid("FC.act"),
	)
	InitNetwork(net, rng)
	return net
}

func TestNetworkShapes(t *testing.T) {
	net := testNet(1)
	if got := net.OutShape(); !shapeEq(got, []int{4}) {
		t.Errorf("OutShape = %v, want [4]", got)
	}
	if got := net.ShapeAt(0); !shapeEq(got, []int{1, 8, 8}) {
		t.Errorf("ShapeAt(0) = %v", got)
	}
	if got := net.ShapeAt(3); !shapeEq(got, []int{2, 3, 3}) {
		t.Errorf("ShapeAt(3) = %v, want [2 3 3]", got)
	}
}

func TestNetworkActivationsConsistentWithForward(t *testing.T) {
	net := testNet(2)
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(1, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	// Algorithm 1 harvests tap features one layer range at a time; walked
	// layer by layer, the activations must end at Forward's output.
	act := x
	for i := range net.Layers {
		act = net.ForwardRange(act, i, i+1)
	}
	if !tensor.AllClose(act, net.Forward(x), 1e-12) {
		t.Error("final activation != Forward output")
	}
}

func TestForwardRangeComposes(t *testing.T) {
	net := testNet(4)
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(1, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	full := net.Forward(x)
	mid := net.ForwardRange(x, 0, 3)
	end := net.ForwardRange(mid, 3, len(net.Layers))
	if !tensor.AllClose(full, end, 1e-12) {
		t.Error("ForwardRange composition != full Forward (early-exit resume broken)")
	}
}

func TestForwardRangeBounds(t *testing.T) {
	net := testNet(6)
	x := tensor.New(1, 8, 8)
	for _, r := range [][2]int{{-1, 2}, {0, 99}, {4, 2}} {
		func(from, to int) {
			defer func() {
				if recover() == nil {
					t.Errorf("ForwardRange(%d,%d) did not panic", from, to)
				}
			}()
			net.ForwardRange(x, from, to)
		}(r[0], r[1])
	}
}

func TestCloneSharesWeightsNotGrads(t *testing.T) {
	net := testNet(7)
	clone := net.Clone()
	p0 := net.Params()[0]
	c0 := clone.Params()[0]
	if &p0.W.Data[0] != &c0.W.Data[0] {
		t.Error("Clone should share weight storage")
	}
	if &p0.G.Data[0] == &c0.G.Data[0] {
		t.Error("Clone must not share gradient storage")
	}

	rng := rand.New(rand.NewSource(8))
	x := tensor.New(1, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	a := net.Forward(x)
	b := clone.Forward(x)
	if !tensor.AllClose(a, b, 1e-12) {
		t.Error("Clone produces different outputs")
	}
}

func TestZeroGradAndNumParams(t *testing.T) {
	net := testNet(9)
	rng := rand.New(rand.NewSource(10))
	x := tensor.New(1, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	out := net.Forward(x)
	net.Backward(MSE{}.Grad(out, OneHot(0, 4)))
	nonzero := false
	for _, p := range net.Params() {
		for _, g := range p.G.Data {
			if g != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("Backward accumulated no gradient")
	}
	net.ZeroGrad()
	for _, p := range net.Params() {
		for _, g := range p.G.Data {
			if g != 0 {
				t.Fatal("ZeroGrad left nonzero gradient")
			}
		}
	}
	// conv: 2*1*3*3+2 = 20, dense: 4*18+4 = 76 → 96
	if got := net.NumParams(); got != 96 {
		t.Errorf("NumParams = %d, want 96", got)
	}
}

func TestLayerIndexAndSummary(t *testing.T) {
	net := testNet(11)
	if i := net.LayerIndex("P1"); i != 2 {
		t.Errorf("LayerIndex(P1) = %d, want 2", i)
	}
	if i := net.LayerIndex("nope"); i != -1 {
		t.Errorf("LayerIndex(nope) = %d, want -1", i)
	}
	s := net.Summary()
	for _, name := range []string{"C1", "P1", "FC", "total params"} {
		if !strings.Contains(s, name) {
			t.Errorf("Summary missing %q:\n%s", name, s)
		}
	}
}

func TestPredictDeterministic(t *testing.T) {
	net := testNet(12)
	x := tensor.New(1, 8, 8)
	x.Fill(0.5)
	a, b := net.Predict(x), net.Predict(x)
	if a != b {
		t.Error("Predict not deterministic")
	}
	if a < 0 || a >= 4 {
		t.Errorf("Predict out of range: %d", a)
	}
}

func TestArch6LayerShapes(t *testing.T) {
	a := Arch6Layer(rand.New(rand.NewSource(1)))
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table I: C1 24x24x6, P1 12x12x6, C2 8x8x12, P2 4x4x12, FC 10.
	checks := []struct {
		layer string
		shape []int
	}{
		{"C1", []int{6, 24, 24}},
		{"P1", []int{6, 12, 12}},
		{"C2", []int{12, 8, 8}},
		{"P2", []int{12, 4, 4}},
		{"FC", []int{10}},
	}
	for _, c := range checks {
		idx := a.Net.LayerIndex(c.layer)
		if idx < 0 {
			t.Fatalf("layer %s missing", c.layer)
		}
		got := a.Net.ShapeAt(idx + 1)
		if !shapeEq(got, c.shape) {
			t.Errorf("%s out shape = %v, want %v (Table I)", c.layer, got, c.shape)
		}
	}
	if got := a.TapFeatureLen(0); got != 6*12*12 {
		t.Errorf("O1 feature len = %d, want %d", got, 6*12*12)
	}
}

func TestArch8LayerShapes(t *testing.T) {
	a := Arch8Layer(rand.New(rand.NewSource(1)))
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table II: C1 26x26x3, P1 13x13x3, C2 10x10x6, P2 5x5x6, C3 3x3x9,
	// P3 3x3x9, FC 10.
	checks := []struct {
		layer string
		shape []int
	}{
		{"C1", []int{3, 26, 26}},
		{"P1", []int{3, 13, 13}},
		{"C2", []int{6, 10, 10}},
		{"P2", []int{6, 5, 5}},
		{"C3", []int{9, 3, 3}},
		{"P3", []int{9, 3, 3}},
		{"FC", []int{10}},
	}
	for _, c := range checks {
		idx := a.Net.LayerIndex(c.layer)
		if idx < 0 {
			t.Fatalf("layer %s missing", c.layer)
		}
		got := a.Net.ShapeAt(idx + 1)
		if !shapeEq(got, c.shape) {
			t.Errorf("%s out shape = %v, want %v (Table II)", c.layer, got, c.shape)
		}
	}
	if len(a.Taps) != 3 {
		t.Errorf("8-layer should expose 3 taps (O1,O2,O3 candidates), got %d", len(a.Taps))
	}
	if got := a.TapFeatureLen(0); got != 3*13*13 {
		t.Errorf("O1 feature len = %d, want %d", got, 3*13*13)
	}
	if got := a.TapFeatureLen(1); got != 6*5*5 {
		t.Errorf("O2 feature len = %d, want %d", got, 6*5*5)
	}
}

func TestArchDeterministicInit(t *testing.T) {
	a := Arch6Layer(rand.New(rand.NewSource(42)))
	b := Arch6Layer(rand.New(rand.NewSource(42)))
	pa, pb := a.Net.Params(), b.Net.Params()
	for i := range pa {
		if !tensor.Equal(pa[i].W, pb[i].W) {
			t.Fatalf("param %s differs across same-seed inits", pa[i].Name)
		}
	}
}
