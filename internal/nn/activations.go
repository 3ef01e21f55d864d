package nn

import "cdl/internal/tensor"

// Sigmoid applies the logistic function 1/(1+e^-x) element-wise, as
// tensor.Sigmoid computes it. The paper's networks (after Palm [19]) use
// sigmoid activations throughout, and the per-stage confidence values
// compared against δ are sigmoid outputs in [0,1].
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
	out := in.Map(tensor.Sigmoid)
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
