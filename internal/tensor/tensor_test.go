package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewShapeAndNumel(t *testing.T) {
	cases := []struct {
		shape []int
		numel int
	}{
		{[]int{}, 1},
		{[]int{3}, 3},
		{[]int{2, 3}, 6},
		{[]int{4, 1, 5}, 20},
		{[]int{0, 7}, 0},
	}
	for _, c := range cases {
		tt := New(c.shape...)
		if tt.Numel() != c.numel {
			t.Errorf("New(%v).Numel() = %d, want %d", c.shape, tt.Numel(), c.numel)
		}
		if tt.Rank() != len(c.shape) {
			t.Errorf("New(%v).Rank() = %d, want %d", c.shape, tt.Rank(), len(c.shape))
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice mismatch did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(2, 3, 4)
	val := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				tt.Set(val, i, j, k)
				val++
			}
		}
	}
	// Row-major: Data should be 0..23 in order.
	for i, v := range tt.Data {
		if v != float64(i) {
			t.Fatalf("Data[%d] = %v, want %d (row-major layout broken)", i, v, i)
		}
	}
	if got := tt.At(1, 2, 3); got != 23 {
		t.Errorf("At(1,2,3) = %v, want 23", got)
	}
}

func TestOffsetOutOfRangePanics(t *testing.T) {
	tt := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, -1}, {0}, {0, 0, 0}} {
		func(idx []int) {
			defer func() {
				if recover() == nil {
					t.Errorf("Offset(%v) did not panic", idx)
				}
			}()
			tt.Offset(idx...)
		}(idx)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares data with original")
	}
	if !a.SameShape(b) {
		t.Error("Clone changed shape")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(42, 0, 0)
	if a.At(0, 0) != 42 {
		t.Error("Reshape does not share data")
	}
	c := a.Reshape(-1, 2)
	if c.Dim(0) != 3 || c.Dim(1) != 2 {
		t.Errorf("Reshape(-1,2) shape = %v, want [3 2]", c.Shape())
	}
	if a.Flatten().Rank() != 1 || a.Flatten().Numel() != 6 {
		t.Error("Flatten wrong")
	}
}

// TestPoint re-points one header across ranks and sizes: shape, strides and
// data follow every call, a zero T works, a view's own storage is reused,
// and once the storage has the rank a call allocates nothing.
func TestPoint(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	var h T
	for _, shape := range [][]int{{3, 4}, {2, 3, 2}, {12}, {1, 2, 3, 2}, {2, 2}} {
		n := 1
		for _, d := range shape {
			n *= d
		}
		if got := h.Point(data[:n], shape...); got != &h {
			t.Fatal("Point did not return its receiver")
		}
		want := FromSlice(data[:n], shape...)
		if !Equal(&h, want) || !reflect.DeepEqual(h.Strides(), want.Strides()) {
			t.Fatalf("Point(%v): shape %v strides %v, want %v %v", shape, h.Shape(), h.Strides(), want.Shape(), want.Strides())
		}
	}
	v := New(2, 3)
	if v.Point(data[:4], 4); v.Rank() != 1 || v.Dim(0) != 4 || &v.Data[0] != &data[0] {
		t.Fatalf("Point on a view: shape %v", v.Shape())
	}
	if allocs := testing.AllocsPerRun(10, func() { h.Point(data[:6], 3, 2); h.Point(data, 1, 2, 3, 2) }); allocs != 0 {
		t.Fatalf("warm Point allocates %v objects, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Point length mismatch did not panic")
		}
	}()
	h.Point(data[:5], 2, 3)
}

func TestReshapeBadPanics(t *testing.T) {
	a := New(2, 3)
	for _, shape := range [][]int{{4}, {-1, -1}, {5, -1}, {0, -1}} {
		func(shape []int) {
			defer func() {
				if recover() == nil {
					t.Errorf("Reshape(%v) did not panic", shape)
				}
			}()
			a.Reshape(shape...)
		}(shape)
	}
}

func TestArithmetic(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 4)
	b := FromSlice([]float64{10, 20, 30, 40}, 4)
	a.Add(b)
	want := []float64{11, 22, 33, 44}
	for i, w := range want {
		if a.Data[i] != w {
			t.Fatalf("Add: Data[%d]=%v want %v", i, a.Data[i], w)
		}
	}
	a.Sub(b)
	for i, w := range []float64{1, 2, 3, 4} {
		if a.Data[i] != w {
			t.Fatalf("Sub: Data[%d]=%v want %v", i, a.Data[i], w)
		}
	}
	a.Mul(b)
	for i, w := range []float64{10, 40, 90, 160} {
		if a.Data[i] != w {
			t.Fatalf("Mul: Data[%d]=%v want %v", i, a.Data[i], w)
		}
	}
	a.Scale(0.5)
	if a.Data[0] != 5 {
		t.Fatalf("Scale: got %v want 5", a.Data[0])
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Fatal("Zero did not zero")
	}
	a.Fill(2)
	if a.Sum() != 8 {
		t.Fatalf("Fill/Sum: got %v want 8", a.Sum())
	}
	a.AddScaled(3, b)
	if a.Data[3] != 2+120 {
		t.Fatalf("AddScaled: got %v want 122", a.Data[3])
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(2, 2), New(4)
	for name, f := range map[string]func(){
		"Add":       func() { a.Add(b) },
		"Sub":       func() { a.Sub(b) },
		"Mul":       func() { a.Mul(b) },
		"AddScaled": func() { a.AddScaled(1, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched shapes did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMaxMinArgMax(t *testing.T) {
	a := FromSlice([]float64{3, -1, 7, 7, 2}, 5)
	mx, argmx := a.Max()
	if mx != 7 || argmx != 2 {
		t.Errorf("Max = (%v,%d), want (7,2) — first max wins", mx, argmx)
	}
	mn, argmn := a.Min()
	if mn != -1 || argmn != 1 {
		t.Errorf("Min = (%v,%d), want (-1,1)", mn, argmn)
	}
	if a.ArgMax() != 2 {
		t.Errorf("ArgMax = %d, want 2", a.ArgMax())
	}
}

func TestDotAndNorm(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := a.Norm2(); math.Abs(got-math.Sqrt(14)) > 1e-12 {
		t.Errorf("Norm2 = %v, want sqrt(14)", got)
	}
}

func TestMeanStd(t *testing.T) {
	a := FromSlice([]float64{2, 4, 4, 4, 5, 5, 7, 9}, 8)
	mean, std := a.MeanStd()
	if mean != 5 || math.Abs(std-2) > 1e-12 {
		t.Errorf("MeanStd = (%v,%v), want (5,2)", mean, std)
	}
	var empty T
	m, s := empty.MeanStd()
	if m != 0 || s != 0 {
		t.Errorf("empty MeanStd = (%v,%v), want (0,0)", m, s)
	}
}

func TestApplyMap(t *testing.T) {
	a := FromSlice([]float64{1, 4, 9}, 3)
	b := a.Map(math.Sqrt)
	if a.Data[1] != 4 {
		t.Error("Map mutated receiver")
	}
	if b.Data[2] != 3 {
		t.Errorf("Map: got %v want 3", b.Data[2])
	}
	a.Apply(func(x float64) float64 { return -x })
	if a.Data[0] != -1 {
		t.Error("Apply failed")
	}
}

func TestEqualAllClose(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1, 2.0000001}, 2)
	if Equal(a, b) {
		t.Error("Equal on unequal values")
	}
	if !AllClose(a, b, 1e-6) {
		t.Error("AllClose rejected close values")
	}
	if AllClose(a, b, 1e-9) {
		t.Error("AllClose accepted distant values")
	}
	if AllClose(a, New(3), 1) {
		t.Error("AllClose across shapes")
	}
}

func TestStringForms(t *testing.T) {
	small := FromSlice([]float64{1, 2}, 2)
	if s := small.String(); s == "" {
		t.Error("small String empty")
	}
	big := New(100)
	if s := big.String(); s == "" {
		t.Error("big String empty")
	}
}

// Property: Add is commutative up to float summation on identical data
// (a+b == b+a exactly for element-wise float64 addition).
func TestQuickAddCommutative(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		a := FromSlice(append([]float64(nil), raw...), len(raw))
		b := a.Map(func(x float64) float64 { return x/2 + 1 })
		ab := a.Clone()
		ab.Add(b)
		ba := b.Clone()
		ba.Add(a)
		return Equal(ab, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Scale(a); Scale(b) == Scale(a*b) exactly is not guaranteed in
// floats, but Scale(1) must be identity and Scale(0) must zero everything.
func TestQuickScaleIdentityAndZero(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		a := FromSlice(append([]float64(nil), raw...), len(raw))
		orig := a.Clone()
		a.Scale(1)
		if !Equal(a, orig) {
			return false
		}
		a.Scale(0)
		for _, v := range a.Data {
			if v != 0 && !math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Reshape preserves the flat data sequence.
func TestQuickReshapePreservesData(t *testing.T) {
	f := func(n uint8) bool {
		rows := int(n%6) + 1
		cols := int(n/37) + 1
		a := New(rows, cols)
		for i := range a.Data {
			a.Data[i] = float64(i) * 1.5
		}
		b := a.Reshape(cols, rows).Reshape(rows * cols)
		for i, v := range b.Data {
			if v != float64(i)*1.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Rot180 is an involution.
func TestQuickRot180Involution(t *testing.T) {
	f := func(n uint8) bool {
		h := int(n%5) + 1
		w := int(n/43) + 1
		k := New(h, w)
		r := rand.New(rand.NewSource(int64(n)))
		for i := range k.Data {
			k.Data[i] = r.NormFloat64()
		}
		return Equal(Rot180(Rot180(k)), k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestViewsAcrossRanks covers the single-allocation header on both sides
// of its inline capacity (rank ≤ 4 inline, rank 5 spilled) through every
// constructor that builds one, plus HasShape.
func TestViewsAcrossRanks(t *testing.T) {
	for _, shape := range [][]int{{6}, {2, 3}, {2, 3, 4, 5}, {2, 1, 3, 2, 2}} {
		x := New(shape...)
		for i := range x.Data {
			x.Data[i] = float64(i)
		}
		if !x.HasShape(shape) || x.HasShape(shape[1:]) || !x.SameShape(x.Clone()) {
			t.Fatalf("shape predicates wrong for %v", shape)
		}
		idx := make([]int, len(shape))
		for i := range idx {
			idx[i] = shape[i] - 1
		}
		if got := x.At(idx...); got != float64(x.Numel()-1) {
			t.Fatalf("shape %v: last element via strides = %v", shape, got)
		}
		flat := x.Reshape(shape[0], -1)
		if flat.Dim(1) != x.Numel()/shape[0] || flat.At(shape[0]-1, flat.Dim(1)-1) != float64(x.Numel()-1) {
			t.Fatalf("shape %v: Reshape(-1) gave %v", shape, flat.Shape())
		}
	}
}
