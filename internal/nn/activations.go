package nn

import (
	"math"

	"cdl/internal/tensor"
)

// Sigmoid applies the logistic function 1/(1+e^-x) element-wise. The
// paper's networks (after Palm [19]) use sigmoid activations throughout,
// and the per-stage confidence values compared against δ are sigmoid
// outputs in [0,1].
type Sigmoid struct {
	name string
	out  *tensor.T
	bout tensor.T // ForwardBatch output, header and scratch, replica-owned (batch.go)
}

// NewSigmoid constructs a sigmoid activation layer.
func NewSigmoid(name string) *Sigmoid { return &Sigmoid{name: name} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return s.name }

// OutShape implements Layer.
func (s *Sigmoid) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer.
func (s *Sigmoid) Forward(in *tensor.T) *tensor.T {
	out := in.Map(sigmoid)
	s.out = out
	return out
}

// Backward implements Layer.
func (s *Sigmoid) Backward(gradOut *tensor.T) *tensor.T {
	if s.out == nil {
		panic("nn: Sigmoid.Backward before Forward")
	}
	gradIn := gradOut.Clone()
	for i, y := range s.out.Data {
		gradIn.Data[i] *= y * (1 - y)
	}
	return gradIn
}

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// Clone implements Layer.
func (s *Sigmoid) Clone() Layer { return &Sigmoid{name: s.name} }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Tanh applies the hyperbolic tangent element-wise.
type Tanh struct {
	name string
	out  *tensor.T
}

// NewTanh constructs a tanh activation layer.
func NewTanh(name string) *Tanh { return &Tanh{name: name} }

// Name implements Layer.
func (t *Tanh) Name() string { return t.name }

// OutShape implements Layer.
func (t *Tanh) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer.
func (t *Tanh) Forward(in *tensor.T) *tensor.T {
	out := in.Map(math.Tanh)
	t.out = out
	return out
}

// Backward implements Layer.
func (t *Tanh) Backward(gradOut *tensor.T) *tensor.T {
	if t.out == nil {
		panic("nn: Tanh.Backward before Forward")
	}
	gradIn := gradOut.Clone()
	for i, y := range t.out.Data {
		gradIn.Data[i] *= 1 - y*y
	}
	return gradIn
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Clone implements Layer.
func (t *Tanh) Clone() Layer { return &Tanh{name: t.name} }

// ReLU applies max(0, x) element-wise. Provided as an ablation alternative
// to the paper's sigmoid networks.
type ReLU struct {
	name string
	in   *tensor.T
}

// NewReLU constructs a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer.
func (r *ReLU) Forward(in *tensor.T) *tensor.T {
	r.in = in
	return in.Map(func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.T) *tensor.T {
	if r.in == nil {
		panic("nn: ReLU.Backward before Forward")
	}
	gradIn := gradOut.Clone()
	for i, x := range r.in.Data {
		if x <= 0 {
			gradIn.Data[i] = 0
		}
	}
	return gradIn
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return &ReLU{name: r.name} }

// Softmax normalizes a flat vector into a probability distribution. It is
// provided for the cross-entropy training ablation and for
// probability-style confidences; the paper's LMS-trained stages use sigmoid
// scores instead.
type Softmax struct {
	name string
	out  *tensor.T
}

// NewSoftmax constructs a softmax layer.
func NewSoftmax(name string) *Softmax { return &Softmax{name: name} }

// Name implements Layer.
func (s *Softmax) Name() string { return s.name }

// OutShape implements Layer.
func (s *Softmax) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer.
func (s *Softmax) Forward(in *tensor.T) *tensor.T {
	out := SoftmaxVec(in)
	s.out = out
	return out
}

// Backward implements Layer: full Jacobian-vector product
// dL/dx_i = y_i*(g_i - Σ_j g_j y_j).
func (s *Softmax) Backward(gradOut *tensor.T) *tensor.T {
	if s.out == nil {
		panic("nn: Softmax.Backward before Forward")
	}
	dot := 0.0
	for i, y := range s.out.Data {
		dot += gradOut.Data[i] * y
	}
	gradIn := tensor.New(s.out.Shape()...)
	for i, y := range s.out.Data {
		gradIn.Data[i] = y * (gradOut.Data[i] - dot)
	}
	return gradIn
}

// Params implements Layer.
func (s *Softmax) Params() []*Param { return nil }

// Clone implements Layer.
func (s *Softmax) Clone() Layer { return &Softmax{name: s.name} }

// SoftmaxVec returns the numerically stable softmax of a flat tensor.
func SoftmaxVec(x *tensor.T) *tensor.T {
	mx, _ := x.Max()
	out := tensor.New(x.Shape()...)
	sum := 0.0
	for i, v := range x.Data {
		e := math.Exp(v - mx)
		out.Data[i] = e
		sum += e
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range out.Data {
			out.Data[i] *= inv
		}
	}
	return out
}
