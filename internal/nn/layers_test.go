package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cdl/internal/tensor"
)

func TestConvOutShape(t *testing.T) {
	c := NewConv2D("c", 1, 6, 5)
	got := c.OutShape([]int{1, 28, 28})
	want := []int{6, 24, 24}
	if !shapeEq(got, want) {
		t.Errorf("OutShape = %v, want %v", got, want)
	}
}

func TestConvShapePanics(t *testing.T) {
	c := NewConv2D("c", 2, 3, 5)
	for _, in := range [][]int{{1, 28, 28}, {2, 4, 4}, {2, 28}} {
		func(in []int) {
			defer func() {
				if recover() == nil {
					t.Errorf("OutShape(%v) did not panic", in)
				}
			}()
			c.OutShape(in)
		}(in)
	}
}

func TestConvForwardKnownValues(t *testing.T) {
	// 1 input channel, 1 output channel, 2x2 averaging-ish kernel, known sums.
	c := NewConv2D("c", 1, 1, 2)
	copy(c.Weight().W.Data, []float64{1, 1, 1, 1})
	c.Bias().W.Data[0] = 0.5
	in := tensor.FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	out := c.Forward(in)
	want := []float64{12.5, 16.5, 24.5, 28.5}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("conv out[%d]=%v want %v", i, out.Data[i], w)
		}
	}
}

func TestConvMultiChannelSumsFanIn(t *testing.T) {
	c := NewConv2D("c", 2, 1, 1)
	copy(c.Weight().W.Data, []float64{2, 3}) // w[0,0]=2, w[0,1]=3
	in := tensor.FromSlice([]float64{
		1, 1, // channel 0
		10, 10, // channel 1
	}, 2, 1, 2)
	out := c.Forward(in)
	for _, v := range out.Data {
		if v != 32 {
			t.Fatalf("conv fan-in got %v want 32", v)
		}
	}
}

func TestMaxPoolForward(t *testing.T) {
	p := NewMaxPool2D("p", 2)
	in := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 2,
		1, 1, 2, 3,
	}, 1, 4, 4)
	out := p.Forward(in)
	want := []float64{4, 8, 9, 3}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("maxpool out[%d]=%v want %v", i, out.Data[i], w)
		}
	}
}

func TestMaxPoolFloorSemantics(t *testing.T) {
	p := NewMaxPool2D("p", 2)
	got := p.OutShape([]int{3, 13, 13})
	want := []int{3, 6, 6}
	if !shapeEq(got, want) {
		t.Errorf("OutShape(13x13, win 2) = %v, want %v (floor division)", got, want)
	}
	// 26 → 13 as in the paper's 8-layer P1
	got = p.OutShape([]int{3, 26, 26})
	if !shapeEq(got, []int{3, 13, 13}) {
		t.Errorf("OutShape(26x26) = %v, want [3 13 13]", got)
	}
}

func TestMaxPoolWindow1IsIdentity(t *testing.T) {
	p := NewMaxPool2D("P3", 1)
	rng := rand.New(rand.NewSource(1))
	in := tensor.New(9, 3, 3)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	out := p.Forward(in)
	if !tensor.Equal(in, out) {
		t.Error("window-1 max pool should be the identity (paper's P3 stage)")
	}
}

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense("d", 3, 2)
	copy(d.Weight().W.Data, []float64{1, 2, 3, 4, 5, 6})
	copy(d.Bias().W.Data, []float64{0.5, -0.5})
	in := tensor.FromSlice([]float64{1, 0, -1}, 3)
	out := d.Forward(in)
	if out.Data[0] != -1.5 || out.Data[1] != -2.5 {
		t.Errorf("dense out = %v, want [-1.5 -2.5]", out.Data)
	}
}

func TestDenseAcceptsAnyShapeWithRightNumel(t *testing.T) {
	d := NewDense("d", 6, 2)
	in := tensor.New(2, 3) // 6 elements, rank 2
	if out := d.Forward(in); out.Numel() != 2 {
		t.Error("dense should flatten compatible inputs")
	}
}

func TestSigmoidRange(t *testing.T) {
	s := NewSigmoid("s")
	in := tensor.FromSlice([]float64{-100, 0, 100}, 3)
	out := s.Forward(in)
	if out.Data[0] > 1e-10 || math.Abs(out.Data[1]-0.5) > 1e-12 || out.Data[2] < 1-1e-10 {
		t.Errorf("sigmoid values wrong: %v", out.Data)
	}
}

func TestOneHot(t *testing.T) {
	h := OneHot(3, 10)
	if h.Numel() != 10 || h.Data[3] != 1 || h.Sum() != 1 {
		t.Errorf("OneHot wrong: %v", h.Data)
	}
	defer func() {
		if recover() == nil {
			t.Error("OneHot out of range did not panic")
		}
	}()
	OneHot(10, 10)
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	layers := []Layer{
		NewConv2D("c", 1, 1, 2),
		NewMaxPool2D("p", 2),
		NewDense("d", 4, 2),
		NewSigmoid("s"),
		NewFlatten("f"),
	}
	for _, l := range layers {
		func(l Layer) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s.Backward before Forward did not panic", l.Name())
				}
			}()
			l.Backward(tensor.New(2))
		}(l)
	}
}

// Pooling idempotence property: max-pooling an already-pooled constant
// plane with window 1 never changes it, and pooling preserves max value.
func TestQuickMaxPoolPreservesGlobalMax(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tensor.New(1, 4, 4)
		for i := range in.Data {
			in.Data[i] = rng.NormFloat64()
		}
		p := NewMaxPool2D("p", 2)
		out := p.Forward(in)
		inMax, _ := in.Max()
		outMax, _ := out.Max()
		return inMax == outMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Paper §II motivates max pooling as providing "translational invariance
// to small variations in positions of input images": a single activation
// peak moved anywhere within its pooling window must produce the same
// pooled output.
func TestMaxPoolTranslationInvarianceWithinWindow(t *testing.T) {
	p := NewMaxPool2D("p", 2)
	base := tensor.New(1, 4, 4)
	base.Set(1.0, 0, 0, 0)
	want := p.Forward(base).Clone()
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			in := tensor.New(1, 4, 4)
			in.Set(1.0, 0, dy, dx)
			got := p.Forward(in)
			if !tensor.Equal(got, want) {
				t.Errorf("peak at (%d,%d) changed the pooled output", dy, dx)
			}
		}
	}
}

// Shifting the whole input by one full pooling window shifts the pooled
// output by exactly one cell (equivariance at window granularity).
func TestMaxPoolWindowEquivariance(t *testing.T) {
	p := NewMaxPool2D("p", 2)
	rng := rand.New(rand.NewSource(77))
	in := tensor.New(1, 6, 6)
	// Fill only the top-left 4x4 region so a 2-pixel shift stays in range.
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			in.Set(rng.Float64(), 0, y, x)
		}
	}
	shifted := tensor.New(1, 6, 6)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			shifted.Set(in.At(0, y, x), 0, y+2, x+2)
		}
	}
	a := p.Forward(in).Clone()
	b := p.Forward(shifted)
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			if a.At(0, y, x) != b.At(0, y+1, x+1) {
				t.Fatalf("pooled output not equivariant at (%d,%d)", y, x)
			}
		}
	}
}
