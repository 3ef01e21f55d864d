package nn

import (
	"math"
	"math/rand"
	"testing"

	"cdl/internal/tensor"
)

// numGrad computes the central-difference gradient of loss(x) with respect
// to the entries of x.
func numGrad(x *tensor.T, loss func() float64) *tensor.T {
	const h = 1e-6
	g := tensor.New(x.Shape()...)
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := loss()
		x.Data[i] = orig - h
		lm := loss()
		x.Data[i] = orig
		g.Data[i] = (lp - lm) / (2 * h)
	}
	return g
}

// checkLayerGrads verifies Backward against finite differences for both the
// input gradient and every parameter gradient of a layer, using MSE loss
// against a random target.
func checkLayerGrads(t *testing.T, l Layer, inShape []int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := tensor.New(inShape...)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	outShape := l.OutShape(inShape)
	target := tensor.New(outShape...)
	for i := range target.Data {
		target.Data[i] = rng.Float64()
	}
	loss := MSE{}

	forwardLoss := func() float64 {
		return loss.Loss(l.Forward(in), target)
	}

	// analytic gradients
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	out := l.Forward(in)
	gradIn := l.Backward(loss.Grad(out, target))

	// numeric input gradient
	ng := numGrad(in, forwardLoss)
	assertClose(t, "input grad", gradIn, ng, 1e-4)

	// numeric parameter gradients
	for _, p := range l.Params() {
		np := numGrad(p.W, forwardLoss)
		assertClose(t, p.Name+" grad", p.G, np, 1e-4)
	}
}

func assertClose(t *testing.T, what string, got, want *tensor.T, tol float64) {
	t.Helper()
	if got.Numel() != want.Numel() {
		t.Fatalf("%s: numel %d vs %d", what, got.Numel(), want.Numel())
	}
	for i := range got.Data {
		diff := math.Abs(got.Data[i] - want.Data[i])
		scale := 1 + math.Abs(want.Data[i])
		if diff/scale > tol {
			t.Fatalf("%s: element %d analytic %.8g vs numeric %.8g (rel diff %.3g)",
				what, i, got.Data[i], want.Data[i], diff/scale)
		}
	}
}

func TestGradConv2DSingleChannel(t *testing.T) {
	l := NewConv2D("c", 1, 2, 3)
	rng := rand.New(rand.NewSource(1))
	XavierConv(l, rng)
	checkLayerGrads(t, l, []int{1, 6, 6}, 2)
}

func TestGradConv2DMultiChannel(t *testing.T) {
	l := NewConv2D("c", 3, 4, 2)
	rng := rand.New(rand.NewSource(3))
	XavierConv(l, rng)
	checkLayerGrads(t, l, []int{3, 5, 5}, 4)
}

func TestGradDense(t *testing.T) {
	l := NewDense("d", 7, 4)
	rng := rand.New(rand.NewSource(5))
	XavierDense(l, rng)
	checkLayerGrads(t, l, []int{7}, 6)
}

func TestGradSigmoid(t *testing.T) {
	checkLayerGrads(t, NewSigmoid("s"), []int{2, 3, 3}, 7)
}

func TestGradMaxPool(t *testing.T) {
	// Distinct values avoid argmax ties that break finite differences.
	l := NewMaxPool2D("p", 2)
	in := tensor.New(2, 4, 4)
	perm := rand.New(rand.NewSource(10)).Perm(in.Numel())
	for i, p := range perm {
		in.Data[i] = float64(p) * 0.37
	}
	target := tensor.New(2, 2, 2)
	for i := range target.Data {
		target.Data[i] = float64(i)
	}
	loss := MSE{}
	out := l.Forward(in)
	gradIn := l.Backward(loss.Grad(out, target))
	ng := numGrad(in, func() float64 { return loss.Loss(l.Forward(in), target) })
	assertClose(t, "maxpool input grad", gradIn, ng, 1e-4)
}

func TestGradFlatten(t *testing.T) {
	checkLayerGrads(t, NewFlatten("f"), []int{2, 3, 4}, 12)
}

func TestGradMSELoss(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pred := tensor.New(5)
	target := tensor.New(5)
	for i := range pred.Data {
		pred.Data[i] = rng.NormFloat64()
		target.Data[i] = rng.NormFloat64()
	}
	loss := MSE{}
	g := loss.Grad(pred, target)
	ng := numGrad(pred, func() float64 { return loss.Loss(pred, target) })
	assertClose(t, "mse grad", g, ng, 1e-6)
}

// End-to-end gradient check through a small full network (conv → sigmoid →
// pool → flatten → dense → sigmoid) — the exact layer sequence of the
// paper's baselines.
func TestGradFullNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	net := NewNetwork([]int{1, 8, 8},
		NewConv2D("C1", 1, 2, 3),
		NewSigmoid("C1.act"),
		NewMaxPool2D("P1", 2),
		NewFlatten("flat"),
		NewDense("FC", 2*3*3, 4),
		NewSigmoid("FC.act"),
	)
	InitNetwork(net, rng)

	in := tensor.New(1, 8, 8)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	target := OneHot(1, 4)
	loss := MSE{}

	net.ZeroGrad()
	out := net.Forward(in)
	gradIn := net.Backward(loss.Grad(out, target))

	forwardLoss := func() float64 { return loss.Loss(net.Forward(in), target) }
	ng := numGrad(in, forwardLoss)
	assertClose(t, "network input grad", gradIn, ng, 1e-4)

	for _, p := range net.Params() {
		np := numGrad(p.W, forwardLoss)
		assertClose(t, "network "+p.Name, p.G, np, 1e-4)
	}
}
