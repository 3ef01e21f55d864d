package nn

import (
	"fmt"

	"cdl/internal/tensor"
)

// Dense is a fully connected layer mapping a flat input vector of length in
// to a vector of length out: y = W·x + b. The paper's final FC output layer
// and the per-stage linear classifiers are both Dense layers (the latter
// wrapped by internal/linclass).
type Dense struct {
	name    string
	in, out int

	weight *Param // [out, in]
	bias   *Param // [out]

	x    *tensor.T // cached input
	bout tensor.T  // ForwardBatch output, header and scratch, replica-owned (batch.go)
}

// NewDense constructs a dense layer with zeroed weights; call an
// initializer from init.go (e.g. XavierDense) before training.
func NewDense(name string, in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: NewDense bad dims in=%d out=%d", in, out))
	}
	return &Dense{
		name: name, in: in, out: out,
		weight: &Param{Name: name + ".w", W: tensor.New(out, in), G: tensor.New(out, in)},
		bias:   &Param{Name: name + ".b", W: tensor.New(out), G: tensor.New(out)},
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// In returns the input width.
func (d *Dense) In() int { return d.in }

// Out returns the output width.
func (d *Dense) Out() int { return d.out }

// Weight exposes the weight parameter.
func (d *Dense) Weight() *Param { return d.weight }

// Bias exposes the bias parameter.
func (d *Dense) Bias() *Param { return d.bias }

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) []int {
	mustShape(d.name, in, []int{d.in})
	return []int{d.out}
}

// Forward implements Layer.
func (d *Dense) Forward(in *tensor.T) *tensor.T {
	if in.Numel() != d.in {
		panic(fmt.Sprintf("nn: %s input numel %d, want %d", d.name, in.Numel(), d.in))
	}
	x := in.Flatten()
	y := tensor.New(d.out)
	tensor.MatVecInto(d.weight.W, x, y)
	for o := 0; o < d.out; o++ {
		y.Data[o] += d.bias.W.Data[o]
	}
	d.x = x
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.T) *tensor.T {
	if d.x == nil {
		panic("nn: Dense.Backward before Forward")
	}
	if gradOut.Numel() != d.out {
		panic(fmt.Sprintf("nn: %s gradOut numel %d, want %d", d.name, gradOut.Numel(), d.out))
	}
	g := gradOut.Flatten()
	tensor.OuterAccum(d.weight.G, g, d.x)
	d.bias.G.Add(g)
	gradIn := tensor.New(d.in)
	tensor.MatTVecInto(d.weight.W, g, gradIn)
	return gradIn
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// Clone implements Layer.
func (d *Dense) Clone() Layer {
	return &Dense{
		name: d.name, in: d.in, out: d.out,
		weight: &Param{Name: d.weight.Name, W: d.weight.W, G: tensor.New(d.out, d.in)},
		bias:   &Param{Name: d.bias.Name, W: d.bias.W, G: tensor.New(d.out)},
	}
}

// Flatten reshapes any input tensor into a rank-1 vector, remembering the
// original shape for the backward pass. It sits between the last pooling
// layer and the FC output layer.
type Flatten struct {
	name    string
	inShape []int
	bout    tensor.T // ForwardBatch output header, replica-owned (batch.go)
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}

// Forward implements Layer.
func (f *Flatten) Forward(in *tensor.T) *tensor.T {
	f.inShape = in.Shape()
	return in.Flatten()
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.T) *tensor.T {
	if f.inShape == nil {
		panic("nn: Flatten.Backward before Forward")
	}
	return gradOut.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Clone implements Layer.
func (f *Flatten) Clone() Layer { return &Flatten{name: f.name} }
