package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatVec(t *testing.T) {
	w := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
	}, 2, 3)
	x := FromSlice([]float64{1, 0, -1}, 3)
	y := MatVec(w, x)
	if y.Numel() != 2 || y.Data[0] != -2 || y.Data[1] != -2 {
		t.Errorf("MatVec = %v, want [-2 -2]", y.Data)
	}
	// Every remainder of the four-row kernel against one running sum per
	// row, bit for bit.
	r := rand.New(rand.NewSource(3))
	for _, out := range []int{1, 2, 3, 5, 10} {
		for _, in := range []int{1, 7, 507} {
			w, x := New(out, in), New(in)
			for i := range w.Data {
				w.Data[i] = r.NormFloat64()
			}
			for i := range x.Data {
				x.Data[i] = r.NormFloat64()
			}
			y := MatVec(w, x)
			for o := 0; o < out; o++ {
				s := 0.0
				for i, v := range w.Data[o*in : (o+1)*in] {
					s += v * x.Data[i]
				}
				if math.Float64bits(y.Data[o]) != math.Float64bits(s) {
					t.Fatalf("MatVec %dx%d row %d = %v, one-accumulator loop %v", out, in, o, y.Data[o], s)
				}
			}
		}
	}
}

func TestMatVecDimPanics(t *testing.T) {
	w := New(2, 3)
	x := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("MatVec dim mismatch did not panic")
		}
	}()
	MatVec(w, x)
}

func TestMatTVecIntoIsAdjoint(t *testing.T) {
	// <Wx, g> == <x, Wᵀg> for all x, g — the defining adjoint property used
	// by dense-layer backprop.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		out := r.Intn(5) + 1
		in := r.Intn(5) + 1
		w := New(out, in)
		x := New(in)
		g := New(out)
		for i := range w.Data {
			w.Data[i] = r.NormFloat64()
		}
		for i := range x.Data {
			x.Data[i] = r.NormFloat64()
		}
		for i := range g.Data {
			g.Data[i] = r.NormFloat64()
		}
		wx := MatVec(w, x)
		wtg := New(in)
		MatTVecInto(w, g, wtg)
		lhs := wx.Dot(g)
		rhs := x.Dot(wtg)
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			t.Fatalf("adjoint violated: <Wx,g>=%v <x,Wᵀg>=%v", lhs, rhs)
		}
	}
}

func TestOuterAccum(t *testing.T) {
	w := New(2, 3)
	g := FromSlice([]float64{1, 2}, 2)
	x := FromSlice([]float64{3, 4, 5}, 3)
	OuterAccum(w, g, x)
	OuterAccum(w, g, x) // accumulate twice
	want := []float64{6, 8, 10, 12, 16, 20}
	for i, v := range want {
		if w.Data[i] != v {
			t.Fatalf("OuterAccum Data[%d]=%v want %v", i, w.Data[i], v)
		}
	}
}

func TestConv2DValidKnown(t *testing.T) {
	in := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 3, 3)
	k := FromSlice([]float64{
		1, 0,
		0, 1,
	}, 2, 2)
	out := New(2, 2)
	Conv2DValid(in, k, out)
	// correlation: out[y,x] = in[y,x]+in[y+1,x+1]
	want := []float64{6, 8, 12, 14}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("Conv2DValid Data[%d]=%v want %v", i, out.Data[i], v)
		}
	}
}

func TestConv2DValidAccumulates(t *testing.T) {
	in := FromSlice([]float64{1, 1, 1, 1}, 2, 2)
	k := FromSlice([]float64{1}, 1, 1)
	out := New(2, 2)
	out.Fill(10)
	Conv2DValid(in, k, out)
	for _, v := range out.Data {
		if v != 11 {
			t.Fatalf("Conv2DValid should accumulate, got %v", v)
		}
	}
}

func TestConv2DFullKnown(t *testing.T) {
	in := FromSlice([]float64{1, 2}, 1, 2)
	k := FromSlice([]float64{1, 10}, 1, 2)
	out := New(1, 3)
	Conv2DFull(in, k, out)
	// scatter: out[x+kx] += in[x]*k[kx] → [1,10+2,20]
	want := []float64{1, 12, 20}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("Conv2DFull Data[%d]=%v want %v", i, out.Data[i], v)
		}
	}
}

// The full convolution with the same kernel is the adjoint of the valid
// correlation: <valid(in,k), g> == <in, full(g, k)>. This identity is
// exactly what conv backprop relies on.
func TestConvAdjointProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		h := r.Intn(4) + 3
		w := r.Intn(4) + 3
		kh := r.Intn(h-1) + 1
		kw := r.Intn(w-1) + 1
		in := New(h, w)
		k := New(kh, kw)
		for i := range in.Data {
			in.Data[i] = r.NormFloat64()
		}
		for i := range k.Data {
			k.Data[i] = r.NormFloat64()
		}
		oh, ow := h-kh+1, w-kw+1
		g := New(oh, ow)
		for i := range g.Data {
			g.Data[i] = r.NormFloat64()
		}
		vout := New(oh, ow)
		Conv2DValid(in, k, vout)
		back := New(h, w)
		Conv2DFull(g, k, back)
		lhs := vout.Dot(g)
		rhs := in.Dot(back)
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			t.Fatalf("conv adjoint violated: lhs=%v rhs=%v (h=%d w=%d kh=%d kw=%d)", lhs, rhs, h, w, kh, kw)
		}
	}
}

func TestConcat(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{3, 4, 5}, 3)
	c := Concat(a, b)
	if c.Numel() != 5 {
		t.Fatalf("Concat numel = %d, want 5", c.Numel())
	}
	for i, v := range []float64{1, 2, 3, 4, 5} {
		if c.Data[i] != v {
			t.Fatalf("Concat Data[%d]=%v want %v", i, c.Data[i], v)
		}
	}
	if Concat().Numel() != 0 {
		t.Error("Concat() should be empty")
	}
}

// Property: MatVec is linear in x.
func TestQuickMatVecLinearity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		out, in := r.Intn(4)+1, r.Intn(4)+1
		w := New(out, in)
		x1, x2 := New(in), New(in)
		for i := range w.Data {
			w.Data[i] = r.NormFloat64()
		}
		for i := range x1.Data {
			x1.Data[i] = r.NormFloat64()
			x2.Data[i] = r.NormFloat64()
		}
		a := r.NormFloat64()
		// W(x1 + a*x2) == Wx1 + a*Wx2 up to fp tolerance
		sum := x1.Clone()
		sum.AddScaled(a, x2)
		lhs := MatVec(w, sum)
		rhs := MatVec(w, x1)
		rhs.AddScaled(a, MatVec(w, x2))
		return AllClose(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRot180Known(t *testing.T) {
	k := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	r := Rot180(k)
	want := []float64{6, 5, 4, 3, 2, 1}
	for i, v := range want {
		if r.Data[i] != v {
			t.Fatalf("Rot180 Data[%d]=%v want %v", i, r.Data[i], v)
		}
	}
}
