// Package tensor provides dense, row-major, float64 n-dimensional tensors.
//
// It is the numeric substrate for the CDL reproduction: the CNN framework
// (internal/nn), the LMS linear classifiers (internal/linclass) and the
// hardware model (internal/hw) all operate on tensor.T values. The package
// is deliberately small — shapes, element access, BLAS-1-style arithmetic,
// and the handful of reshaping operations a convolutional network needs —
// and every operation is bounds-checked in its *Checked variant while the
// hot paths index Data directly.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// T is a dense row-major tensor of float64. The zero value is an empty
// scalar-less tensor; use New or FromSlice to construct a usable one.
//
// Data is laid out contiguously: for shape [d0,d1,...,dk], element
// (i0,i1,...,ik) lives at Data[i0*s0 + i1*s1 + ... + ik] where the strides
// s are the row-major strides of the shape.
type T struct {
	shape   []int
	strides []int
	Data    []float64
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative or if the element count overflows int.
func New(shape ...int) *T {
	return view(make([]float64, checkedNumel(shape)), shape)
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *T {
	n := checkedNumel(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d != shape %v numel %d", len(data), append([]int(nil), shape...), n))
	}
	return view(data, shape)
}

// header is a T whose shape and strides, up to rank 4 (every activation in
// this repo), live in the same allocation as the T itself: a view over
// existing data costs one object, which is what keeps the batched walk's
// per-call allocations to a handful of headers.
type header struct {
	T
	dims [8]int
}

// view builds a tensor over data with a private copy of shape.
func view(data []float64, shape []int) *T {
	r := len(shape)
	h := &header{}
	dims := h.dims[:]
	if 2*r > len(dims) {
		dims = make([]int, 2*r)
	}
	h.shape, h.strides, h.Data = dims[:r:r], dims[r:2*r], data
	copy(h.shape, shape)
	setStrides(h.strides, h.shape)
	return &h.T
}

// Point re-points t at data viewed with the given shape and returns t:
// FromSlice into an existing header, for one that lives beside the scratch
// it describes and is rewritten on every call. It allocates only when t's
// own shape storage is too small for the rank.
func (t *T) Point(data []float64, shape ...int) *T {
	if n := checkedNumel(shape); len(data) != n {
		panic(fmt.Sprintf("tensor: Point data length %d != shape %v numel %d", len(data), append([]int(nil), shape...), n))
	}
	r := len(shape)
	if cap(t.shape) < r || cap(t.strides) < r {
		dims := make([]int, 2*r)
		t.shape, t.strides = dims[:r:r], dims[r:]
	}
	t.shape, t.strides, t.Data = t.shape[:r], t.strides[:r], data
	copy(t.shape, shape)
	setStrides(t.strides, t.shape)
	return t
}

func checkedNumel(shape []int) int {
	n := 1
	for _, d := range shape {
		// The panics format a copy so that shape itself never escapes:
		// callers' variadic shape arguments stay on their stacks.
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
		}
		if d != 0 && n > math.MaxInt/d {
			panic(fmt.Sprintf("tensor: shape %v overflows", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// setStrides fills s with the row-major strides of shape.
func setStrides(s, shape []int) {
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= shape[i]
	}
}

// Shape returns a copy of the tensor's shape.
func (t *T) Shape() []int { return append([]int(nil), t.shape...) }

// Rank returns the number of dimensions.
func (t *T) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *T) Dim(i int) int { return t.shape[i] }

// Numel returns the total number of elements.
func (t *T) Numel() int { return len(t.Data) }

// Strides returns a copy of the row-major strides.
func (t *T) Strides() []int { return append([]int(nil), t.strides...) }

// SameShape reports whether t and u have identical shapes.
func (t *T) SameShape(u *T) bool { return t.HasShape(u.shape) }

// HasShape reports whether t has exactly the given shape, without the copy
// Shape makes.
func (t *T) HasShape(shape []int) bool {
	if len(t.shape) != len(shape) {
		return false
	}
	for i, d := range t.shape {
		if shape[i] != d {
			return false
		}
	}
	return true
}

// Offset returns the flat Data index of the given multi-index. It panics on
// rank mismatch or out-of-range indices.
func (t *T) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += ix * t.strides[i]
	}
	return off
}

// At returns the element at the given multi-index.
func (t *T) At(idx ...int) float64 { return t.Data[t.Offset(idx...)] }

// Set stores v at the given multi-index.
func (t *T) Set(v float64, idx ...int) { t.Data[t.Offset(idx...)] = v }

// Clone returns a deep copy of t.
func (t *T) Clone() *T {
	return view(append([]float64(nil), t.Data...), t.shape)
}

// Reshape returns a new tensor view with the given shape sharing t's data.
// The element count must match. One dimension may be -1, in which case it is
// inferred.
func (t *T) Reshape(dims ...int) *T {
	v := view(t.Data, dims)
	shape := v.shape // the view's private copy: -1 is resolved in place
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
			continue
		}
		if d < 0 {
			panic(fmt.Sprintf("tensor: Reshape negative dimension in %v", shape))
		}
		known *= d
	}
	if infer >= 0 {
		if known == 0 || t.Numel()%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer -1 in reshape %v from %d elements", shape, t.Numel()))
		}
		shape[infer] = t.Numel() / known
		known *= shape[infer]
		setStrides(v.strides, shape)
	}
	if known != t.Numel() {
		panic(fmt.Sprintf("tensor: Reshape %v incompatible with %d elements", shape, t.Numel()))
	}
	return v
}

// Flatten returns a rank-1 view of t sharing its data.
func (t *T) Flatten() *T { return t.Reshape(t.Numel()) }

// Zero sets every element of t to 0.
func (t *T) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element of t to v.
func (t *T) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Add accumulates u into t element-wise (t += u). Shapes must match.
func (t *T) Add(u *T) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", t.shape, u.shape))
	}
	for i, v := range u.Data {
		t.Data[i] += v
	}
}

// Sub subtracts u from t element-wise (t -= u). Shapes must match.
func (t *T) Sub(u *T) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %v vs %v", t.shape, u.shape))
	}
	for i, v := range u.Data {
		t.Data[i] -= v
	}
}

// Mul multiplies t by u element-wise (Hadamard product). Shapes must match.
func (t *T) Mul(u *T) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %v vs %v", t.shape, u.shape))
	}
	for i, v := range u.Data {
		t.Data[i] *= v
	}
}

// Scale multiplies every element by a.
func (t *T) Scale(a float64) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// AddScaled accumulates a*u into t (t += a*u). Shapes must match.
func (t *T) AddScaled(a float64, u *T) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: AddScaled shape mismatch %v vs %v", t.shape, u.shape))
	}
	for i, v := range u.Data {
		t.Data[i] += a * v
	}
}

// Apply replaces every element x with f(x).
func (t *T) Apply(f func(float64) float64) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// Map returns a new tensor whose elements are f applied to t's elements.
func (t *T) Map(f func(float64) float64) *T {
	c := t.Clone()
	c.Apply(f)
	return c
}

// Sum returns the sum of all elements.
func (t *T) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Dot returns the inner product of t and u viewed as flat vectors.
func (t *T) Dot(u *T) float64 {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %d != %d", len(t.Data), len(u.Data)))
	}
	s := 0.0
	for i, v := range t.Data {
		s += v * u.Data[i]
	}
	return s
}

// Max returns the maximum element and its flat index. It panics on an empty
// tensor.
func (t *T) Max() (float64, int) {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	best, arg := t.Data[0], 0
	for i, v := range t.Data {
		if v > best {
			best, arg = v, i
		}
	}
	return best, arg
}

// Min returns the minimum element and its flat index. It panics on an empty
// tensor.
func (t *T) Min() (float64, int) {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	best, arg := t.Data[0], 0
	for i, v := range t.Data {
		if v < best {
			best, arg = v, i
		}
	}
	return best, arg
}

// ArgMax returns the flat index of the maximum element.
func (t *T) ArgMax() int {
	_, i := t.Max()
	return i
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *T) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MeanStd returns the mean and (population) standard deviation of the
// elements. An empty tensor yields (0, 0).
func (t *T) MeanStd() (mean, std float64) {
	n := float64(len(t.Data))
	if n == 0 {
		return 0, 0
	}
	for _, v := range t.Data {
		mean += v
	}
	mean /= n
	for _, v := range t.Data {
		d := v - mean
		std += d * d
	}
	return mean, math.Sqrt(std / n)
}

// Equal reports whether t and u have the same shape and identical elements.
func Equal(t, u *T) bool {
	if !t.SameShape(u) {
		return false
	}
	for i, v := range t.Data {
		if u.Data[i] != v {
			return false
		}
	}
	return true
}

// AllClose reports whether t and u have the same shape and all elements are
// within tol of each other (absolute difference).
func AllClose(t, u *T, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i, v := range t.Data {
		if math.Abs(u.Data[i]-v) > tol {
			return false
		}
	}
	return true
}

// String renders small tensors fully and larger ones as a summary.
func (t *T) String() string {
	if t.Numel() <= 64 {
		var b strings.Builder
		fmt.Fprintf(&b, "tensor%v", t.shape)
		b.WriteString("[")
		for i, v := range t.Data {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.4g", v)
		}
		b.WriteString("]")
		return b.String()
	}
	mean, std := t.MeanStd()
	return fmt.Sprintf("tensor%v{numel=%d mean=%.4g std=%.4g}", t.shape, t.Numel(), mean, std)
}
