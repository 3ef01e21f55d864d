package opcount

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cdl/internal/nn"
	"cdl/internal/tensor"
)

func TestConvOps(t *testing.T) {
	c := nn.NewConv2D("C1", 1, 6, 5)
	b := LayerOps(c, []int{1, 28, 28})
	// 6 maps × 24×24 outputs × 1×5×5 MACs
	wantMACs := float64(6 * 24 * 24 * 25)
	if b.MACs != wantMACs {
		t.Errorf("conv MACs = %v, want %v", b.MACs, wantMACs)
	}
	if b.Adds != float64(6*24*24) {
		t.Errorf("conv bias adds = %v", b.Adds)
	}
}

func TestDenseOps(t *testing.T) {
	d := nn.NewDense("FC", 192, 10)
	b := LayerOps(d, []int{192})
	if b.MACs != 1920 || b.Adds != 10 {
		t.Errorf("dense ops = %+v", b)
	}
}

func TestPoolOps(t *testing.T) {
	p := nn.NewMaxPool2D("P1", 2)
	b := LayerOps(p, []int{6, 24, 24})
	// 6×12×12 outputs × 3 compares
	if b.Compares != float64(6*12*12*3) {
		t.Errorf("maxpool compares = %v", b.Compares)
	}
	p1 := nn.NewMaxPool2D("P3", 1)
	b1 := LayerOps(p1, []int{9, 3, 3})
	if b1.Compares != 0 {
		t.Errorf("window-1 pool should cost nothing, got %v", b1.Compares)
	}
}

func TestActivationOps(t *testing.T) {
	s := nn.NewSigmoid("act")
	b := LayerOps(s, []int{6, 24, 24})
	if b.Acts != float64(6*24*24) {
		t.Errorf("sigmoid acts = %v", b.Acts)
	}
	f := nn.NewFlatten("flat")
	bf := LayerOps(f, []int{6, 4, 4})
	if Default().Total(bf) != 0 {
		t.Error("flatten should be free")
	}
}

func TestCumulativeMatchesTotal(t *testing.T) {
	arch := nn.Arch6Layer(rand.New(rand.NewSource(1)))
	m := Default()
	cum := m.CumulativeOps(arch.Net)
	if len(cum) != len(arch.Net.Layers)+1 {
		t.Fatalf("cumulative len %d", len(cum))
	}
	if cum[0] != 0 {
		t.Error("cumulative[0] != 0")
	}
	total := m.NetworkOps(arch.Net)
	if cum[len(cum)-1] != total {
		t.Errorf("cumulative end %v != total %v", cum[len(cum)-1], total)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Error("cumulative ops must be nondecreasing")
		}
	}
}

func TestPaperArchOpsOrdering(t *testing.T) {
	// Paper §V.A: the 6-layer DLN is *more* complex (more neurons and
	// synapses) than the 8-layer one; our op model must agree because that
	// asymmetry explains MNIST_3C's higher benefit.
	m := Default()
	ops6 := m.NetworkOps(nn.Arch6Layer(rand.New(rand.NewSource(1))).Net)
	ops8 := m.NetworkOps(nn.Arch8Layer(rand.New(rand.NewSource(1))).Net)
	if ops6 <= ops8 {
		t.Errorf("6-layer ops %v should exceed 8-layer ops %v (paper §V.A)", ops6, ops8)
	}
}

func TestLinearClassifierOps(t *testing.T) {
	m := Default()
	got := m.LinearClassifierOps(507, 10)
	want := float64(507*10 + 10 + 10)
	if got != want {
		t.Errorf("LC ops = %v, want %v", got, want)
	}
}

func TestModelWeighting(t *testing.T) {
	m := Model{MAC: 2, Add: 0, Compare: 0, Act: 0}
	d := nn.NewDense("d", 10, 5)
	b := LayerOps(d, []int{10})
	if m.Total(b) != 100 {
		t.Errorf("weighted total = %v, want 100 (50 MACs × 2)", m.Total(b))
	}
}

// Property: op counts are additive — breakdown totals sum to NetworkOps.
func TestQuickAdditivity(t *testing.T) {
	f := func(seed int64) bool {
		arch := nn.ArchTiny(rand.New(rand.NewSource(seed)), 4)
		m := Default()
		sum := 0.0
		for _, b := range NetworkBreakdown(arch.Net) {
			sum += m.Total(b)
		}
		return sum == m.NetworkOps(arch.Net)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestUnknownLayerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown layer type did not panic")
		}
	}()
	LayerOps(fakeLayer{}, []int{1})
}

type fakeLayer struct{}

func (fakeLayer) Name() string                       { return "fake" }
func (fakeLayer) Forward(x *tensor.T) *tensor.T      { return x }
func (fakeLayer) ForwardBatch(x *tensor.T) *tensor.T { return x }
func (fakeLayer) Backward(g *tensor.T) *tensor.T     { return g }
func (fakeLayer) OutShape(in []int) []int            { return in }
func (fakeLayer) Params() []*nn.Param                { return nil }
func (fakeLayer) Clone() nn.Layer                    { return fakeLayer{} }
