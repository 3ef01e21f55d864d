// Package nn is a from-scratch convolutional neural network framework: the
// substrate the CDL paper builds on (the authors used Palm's MATLAB
// DeepLearnToolbox [19]; we reimplement the same convolutional
// backpropagation in Go).
//
// The package provides the five layers the paper's networks are built
// from (Conv2D, Sigmoid, MaxPool2D, Flatten, Dense), a sequential Network
// container with per-layer activation taps (needed by the CDL cascade),
// the MSE loss the paper trains with, and deterministic Xavier
// initialization.
//
// Forward and Backward process one sample at a time; training batches are
// handled by internal/train, which fans samples out across goroutine-local
// network replicas (see Layer.Clone). ForwardBatch is the batched
// inference path (batch.go).
package nn

import (
	"fmt"

	"cdl/internal/tensor"
)

// Param is a trainable parameter tensor paired with its gradient
// accumulator. Backward passes accumulate into G; optimizers read G and
// update W.
type Param struct {
	Name string
	W    *tensor.T
	G    *tensor.T
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Layer is one differentiable stage of a network.
//
// Forward caches whatever Backward needs, so a Layer value must not be used
// from multiple goroutines concurrently; use Clone to obtain a replica that
// shares parameter storage (W) but owns private caches and gradient buffers
// (G).
type Layer interface {
	// Name identifies the layer in diagnostics and op counting
	// (e.g. "C1", "P1", "FC").
	Name() string
	// Forward computes the layer's output for one input sample.
	Forward(in *tensor.T) *tensor.T
	// ForwardBatch maps a batched activation [B, ...in] to [B, ...out],
	// reproducing Forward exactly on every row. It is inference-only (no
	// Backward caches), and its result may live in layer-owned scratch:
	// valid until the next ForwardBatch on the same layer value.
	ForwardBatch(in *tensor.T) *tensor.T
	// Backward consumes dL/dOutput and returns dL/dInput, accumulating
	// parameter gradients into Params().G. It must be called after Forward.
	Backward(gradOut *tensor.T) *tensor.T
	// Params returns the layer's trainable parameters; may be empty.
	Params() []*Param
	// OutShape maps an input shape to this layer's output shape without
	// running it. It panics if the input shape is incompatible.
	OutShape(in []int) []int
	// Clone returns a replica sharing W but with fresh caches and gradients.
	Clone() Layer
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mustShape(layer string, got, want []int) {
	if !shapeEq(got, want) {
		panic(fmt.Sprintf("nn: %s input shape %v, want %v", layer, got, want))
	}
}
