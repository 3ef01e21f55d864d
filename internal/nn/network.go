package nn

import (
	"fmt"
	"strings"

	"cdl/internal/tensor"
)

// Network is a sequential stack of layers with a fixed input shape. It is
// the paper's baseline DLN container: internal/core taps per-layer
// activations from it to feed the CDL linear classifiers.
type Network struct {
	InShape []int
	Layers  []Layer
}

// NewNetwork constructs a network for inputs of the given shape.
func NewNetwork(inShape []int, layers ...Layer) *Network {
	n := &Network{InShape: append([]int(nil), inShape...), Layers: layers}
	n.OutShape() // validate layer chain eagerly
	return n
}

// OutShape returns the network's final output shape, validating every
// intermediate shape along the way.
func (n *Network) OutShape() []int {
	shape := append([]int(nil), n.InShape...)
	for _, l := range n.Layers {
		shape = l.OutShape(shape)
	}
	return shape
}

// ShapeAt returns the activation shape after the first k layers
// (ShapeAt(0) is the input shape).
func (n *Network) ShapeAt(k int) []int {
	if k < 0 || k > len(n.Layers) {
		panic(fmt.Sprintf("nn: ShapeAt(%d) out of range [0,%d]", k, len(n.Layers)))
	}
	shape := append([]int(nil), n.InShape...)
	for _, l := range n.Layers[:k] {
		shape = l.OutShape(shape)
	}
	return shape
}

// Forward runs a full forward pass for one sample.
func (n *Network) Forward(x *tensor.T) *tensor.T {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// ForwardRange runs layers [from, to) on x. It is the incremental
// evaluation primitive behind CDL early exit: stage i resumes from the
// activation where stage i−1 stopped, so deactivated deep layers are never
// executed.
func (n *Network) ForwardRange(x *tensor.T, from, to int) *tensor.T {
	if from < 0 || to > len(n.Layers) || from > to {
		panic(fmt.Sprintf("nn: ForwardRange[%d,%d) out of range [0,%d]", from, to, len(n.Layers)))
	}
	for _, l := range n.Layers[from:to] {
		x = l.Forward(x)
	}
	return x
}

// Backward backpropagates dL/dOutput through the whole network, returning
// dL/dInput and accumulating parameter gradients. Must follow a Forward on
// the same sample.
func (n *Network) Backward(grad *tensor.T) *tensor.T {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears all parameter gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// NumParams returns the total number of scalar weights and biases.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Numel()
	}
	return total
}

// Clone returns a replica network sharing parameter storage but owning
// private caches and gradient buffers; replicas support concurrent
// Forward/Backward as long as no one updates the shared weights meanwhile.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = l.Clone()
	}
	return &Network{InShape: append([]int(nil), n.InShape...), Layers: layers}
}

// DeepClone returns a replica with private copies of the weights as well
// as the caches and gradients, for callers that mutate parameters (e.g.
// fixed-point quantization) without touching the original model.
func (n *Network) DeepClone() *Network {
	c := n.Clone()
	for _, p := range c.Params() {
		p.W = p.W.Clone()
	}
	return c
}

// LayerIndex returns the index of the layer with the given name, or -1.
func (n *Network) LayerIndex(name string) int {
	for i, l := range n.Layers {
		if l.Name() == name {
			return i
		}
	}
	return -1
}

// Predict runs a forward pass and returns the argmax class of the output.
func (n *Network) Predict(x *tensor.T) int {
	return n.Forward(x).ArgMax()
}

// Summary renders a human-readable table of layers and shapes.
func (n *Network) Summary() string {
	var b strings.Builder
	shape := append([]int(nil), n.InShape...)
	fmt.Fprintf(&b, "%-10s %-14s %v\n", "input", "", shape)
	for _, l := range n.Layers {
		shape = l.OutShape(shape)
		params := 0
		for _, p := range l.Params() {
			params += p.W.Numel()
		}
		fmt.Fprintf(&b, "%-10s %-14s %v params=%d\n", l.Name(), fmt.Sprintf("%T", l), shape, params)
	}
	fmt.Fprintf(&b, "total params: %d\n", n.NumParams())
	return b.String()
}
