package nn

// fused_test.go attacks the identity behind the fused segment,
// maxpool(σ(g+b)) = σ(max(g)+b), where it could break: windows whose
// elements are ulps apart, exactly on the guard band, equal, signed zeros,
// saturated, or astride exp's range-reduction boundaries (multiples of
// ln2/2). equiv_test.go covers shapes and ranges on random data; random
// data never produces these windows.

import (
	"math"
	"math/rand"
	"testing"

	"cdl/internal/tensor"
)

// refPool is the per-layer computation spelled literally for one plane:
// bias, activation, then MaxPool2D's window scan with its `>`.
func refPool(dst, src []float64, ow, pw, win int, bias float64, act func(float64) float64) {
	for o := range dst {
		base := (o/pw)*win*ow + (o%pw)*win
		best := act(src[base] + bias)
		for dy := 0; dy < win; dy++ {
			for dx := 0; dx < win; dx++ {
				if v := act(src[base+dy*ow+dx] + bias); v > best {
					best = v
				}
			}
		}
		dst[o] = best
	}
}

// adversarialWindows returns 2×2 windows in scan order, every rotation of
// each so the max sits at every scan position.
func adversarialWindows() [][4]float64 {
	var ws [][4]float64
	add := func(a, b, c, d float64) {
		ws = append(ws, [4]float64{a, b, c, d}, [4]float64{b, c, d, a}, [4]float64{c, d, a, b}, [4]float64{d, a, b, c})
	}
	down := func(x float64, ulps int) float64 {
		for ; ulps > 0; ulps-- {
			x = math.Nextafter(x, math.Inf(-1))
		}
		return x
	}
	// Saturation both ways (σ is exactly 1 from about 36.8 up, exp overflows
	// past 709.78), the ordinary range, and both sides of zero.
	bases := []float64{0, 0.3, -0.3, 1, -5, 36.7, 40, -40, 709.78, 710, -710, 745.2, -745.2}
	for k := -24; k <= 24; k++ {
		bases = append(bases, float64(k)*math.Ln2/2)
	}
	for _, m := range bases {
		add(m, down(m, 1), down(m, 2), down(m, 3))
		add(m, m-1e-12, m-0.5e-12, m-2e-12)
		add(m, m, m, m)
		add(m, down(m, 1), m-1e-12, m-1)
		add(down(m, 1), math.Nextafter(m, math.Inf(1)), m, m-3e-13) // astride m
	}
	// 0 − (−1e-12) is exactly the band; its float neighbours sit just
	// inside and just outside it.
	add(0, -1e-12, -math.Nextafter(1e-12, 0), -math.Nextafter(1e-12, 1))
	negZero := math.Copysign(0, -1)
	add(0, negZero, negZero, 0)
	add(negZero, negZero, negZero, negZero)
	return ws
}

var adversarialBiases = []float64{0, math.Copysign(0, -1), 0.1, -3.7, -1e-13, 1e3, -710}

// packWindows lays 2×2 windows side by side in one [2, 2N] plane.
func packWindows(ws [][4]float64) []float64 {
	ow := 2 * len(ws)
	plane := make([]float64, 2*ow)
	for j, w := range ws {
		plane[2*j], plane[2*j+1] = w[0], w[1]
		plane[ow+2*j], plane[ow+2*j+1] = w[2], w[3]
	}
	return plane
}

// TestPoolSigmoidAdversarialWindows compares the fused epilogue with the
// literal per-layer computation, bitwise, on every adversarial window
// under every bias.
func TestPoolSigmoidAdversarialWindows(t *testing.T) {
	ws := adversarialWindows()
	src := packWindows(ws)
	got, want := make([]float64, len(ws)), make([]float64, len(ws))
	for _, bias := range adversarialBiases {
		poolSigmoid(got, src, 2*len(ws), len(ws), 2, bias, sigmoid)
		refPool(want, src, 2*len(ws), len(ws), 2, bias, sigmoid)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("bias %v window %v: fused %v (%#x), per-layer %v (%#x)", bias, ws[j],
					got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
}

// TestForwardBatchFusedAdversarialWindows drives the same windows through
// the real layers: a 1×1 convolution with weight 1 reproduces its input
// exactly (−0 becomes +0), so the conv output is the crafted plane, and
// ForwardBatchRange fused must equal the three layers run one at a time
// and the per-sample reference.
func TestForwardBatchFusedAdversarialWindows(t *testing.T) {
	ws := adversarialWindows()
	plane := packWindows(ws)
	for _, bias := range adversarialBiases {
		conv := NewConv2D("C", 1, 1, 1)
		conv.weight.W.Data[0] = 1
		conv.bias.W.Data[0] = bias
		net := NewNetwork([]int{1, 2, 2 * len(ws)}, conv, NewSigmoid("act"), NewMaxPool2D("P", 2))
		x := tensor.FromSlice(plane, 1, 1, 2, 2*len(ws))
		fused := net.ForwardBatchRange(x, 0, 3).Clone()
		byLayer := net.ForwardBatchRange(net.ForwardBatchRange(net.ForwardBatchRange(x, 0, 1), 1, 2), 2, 3)
		assertBitsEqual(t, "fused vs per-layer", fused, byLayer)
		ref := net.Forward(tensor.FromSlice(plane, 1, 2, 2*len(ws)))
		assertBitsEqual(t, "fused vs Forward", fused.Reshape(ref.Shape()...), ref)
	}
}

// TestPoolSigmoidGuardCarriesEquality substitutes an activation that is
// NOT monotone at one point and shows the equality survives because of the
// near-tie guard, not because math.Exp happens to be monotone here: with
// the bent σ the plain identity σ(max) gives the wrong answer, the guarded
// epilogue the right one. It also pins the cost: one activation call per
// pooled element unless a near tie exists.
func TestPoolSigmoidGuardCarriesEquality(t *testing.T) {
	const bias = 0.25
	lo := 0.5                   // lo, hi and both bias sums share a binade, so the pair survives the bias add
	hi := math.Nextafter(lo, 1) // the window max, one ulp above lo
	calls := 0
	bent := func(z float64) float64 {
		calls++
		if z == lo+bias {
			return sigmoid(z) + 1e-3 // σ(lo) > σ(hi): non-monotone at lo
		}
		return sigmoid(z)
	}
	if lo+bias == hi+bias {
		t.Fatal("bias add collapses the pair; the bent point is not reachable")
	}
	src := []float64{-1, lo, hi, -2}
	var got, want [1]float64
	refPool(want[:], src, 2, 1, 2, bias, bent)
	calls = 0
	poolSigmoid(got[:], src, 2, 1, 2, bias, bent)
	if got[0] != want[0] {
		t.Fatalf("guarded epilogue %v, per-layer %v", got[0], want[0])
	}
	if calls != 2 {
		t.Fatalf("near-tie window made %d activation calls, want 2 (max + one near tie)", calls)
	}
	if naive := bent(hi + bias); naive == want[0] {
		t.Fatal("σ(max) alone already equals the per-layer result: the test does not exercise the guard")
	}

	// No near tie: exactly one activation call per pooled element — the
	// 4× saving on a 2×2 window — across a random plane.
	rng := rand.New(rand.NewSource(5))
	plane := make([]float64, 26*26)
	for i := range plane {
		plane[i] = rng.NormFloat64()
	}
	pooled := make([]float64, 13*13)
	calls = 0
	poolSigmoid(pooled, plane, 26, 13, 2, bias, bent)
	if calls != len(pooled) {
		t.Fatalf("%d activation calls for %d pooled elements, want one each", calls, len(pooled))
	}
}
