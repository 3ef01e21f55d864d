package nn

import (
	"fmt"

	"cdl/internal/tensor"
)

// MSE is the half squared error loss L = ½·Σ(p−t)², the "least mean
// square" criterion the paper trains both the baseline DLN and the
// per-stage linear classifiers with (Algorithm 1 step 7).
type MSE struct{}

// Loss returns the scalar loss.
func (MSE) Loss(pred, target *tensor.T) float64 {
	if pred.Numel() != target.Numel() {
		panic(fmt.Sprintf("nn: MSE size mismatch %d vs %d", pred.Numel(), target.Numel()))
	}
	s := 0.0
	for i, p := range pred.Data {
		d := p - target.Data[i]
		s += d * d
	}
	return 0.5 * s
}

// Grad returns dL/dp = p − t.
func (MSE) Grad(pred, target *tensor.T) *tensor.T {
	if pred.Numel() != target.Numel() {
		panic(fmt.Sprintf("nn: MSE size mismatch %d vs %d", pred.Numel(), target.Numel()))
	}
	g := pred.Clone()
	g.Sub(target)
	return g
}

// OneHot builds a one-hot target vector of the given width.
func OneHot(label, width int) *tensor.T {
	if label < 0 || label >= width {
		panic(fmt.Sprintf("nn: OneHot label %d out of range [0,%d)", label, width))
	}
	t := tensor.New(width)
	t.Data[label] = 1
	return t
}
