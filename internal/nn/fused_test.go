package nn

// fused_test.go attacks the identity behind the fused segment,
// maxpool(σ(g+b)) = σ(max(g)+b), where it could break: windows whose
// elements are ulps apart, exactly on the guard band, equal, signed zeros,
// NaN, infinite, denormally close, saturated, or astride exp's
// range-reduction boundaries (multiples of ln2/2). equiv_test.go covers
// shapes and ranges on random data; random data never produces these
// windows. FuzzPoolSigmoid draws whole planes from the same values.

import (
	"math"
	"math/rand"
	"testing"

	"cdl/internal/obs"
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
	// +0 and -0 as joint maxima, in both orders: the builtin max prefers +0,
	// the scan whichever comes first, and no output bit may depend on it.
	add(0, negZero, -1, -2)
	add(negZero, 0, -1, -2)
	// A NaN first in the scan sticks (nothing is > NaN); anywhere else it
	// is skipped. The rotations put it in all four positions.
	nan, inf := math.NaN(), math.Inf(1)
	add(nan, 1, 2, 3)
	add(nan, 1, math.Nextafter(1, 0), -1)
	add(nan, nan, 0.5, nan)
	add(nan, nan, nan, nan)
	add(nan, inf, -inf, 0)
	// Inf - Inf is NaN, not a tie and not a near tie.
	add(inf, 1, 2, 3)
	add(inf, inf, 1, -inf)
	add(-inf, 1, 2, 3)
	add(-inf, -inf, -inf, -inf)
	add(-inf, -inf, -inf, -math.MaxFloat64)
	// Denormal gaps: best-v is exact, so it is +0 only for a true tie.
	add(5e-324, 0, negZero, -5e-324)
	add(1e-310, 1e-310-5e-324, 0, -1e-310)
	// The third rounds to 1+1e-12 again: a gap that rounds away is a tie.
	add(1+1e-12, 1, 1+1e-12-5e-324, 0)
	// The first m puts bentAt's point one ulp under the max.
	for _, m := range []float64{math.Nextafter(bentLo, 1), -2, 3} {
		// Exact ties in every pair of positions, over a lower rest.
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				w := [4]float64{m - 1, m - 1, m - 1, m - 1}
				w[i], w[j] = m, m
				ws = append(ws, w)
			}
		}
		// One near tie 1, 2, 3 ulps and exactly the band below the max, at
		// every position relative to it.
		for _, near := range []float64{down(m, 1), down(m, 2), down(m, 3), m - 1e-12} {
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					if i != j {
						w := [4]float64{m - 1, m - 1, m - 1, m - 1}
						w[i], w[j] = m, near
						ws = append(ws, w)
					}
				}
			}
		}
	}
	return ws
}

var adversarialBiases = []float64{0, math.Copysign(0, -1), 0.1, 0.3, -3.7, -1e-13, 1e3, -710}

// bentAt returns σ made non-monotone at exactly one argument, 3 ulps up:
// above σ of the next floats (σ' ≤ ¼ moves it at most an ulp per ulp), far
// below σ one guard band on (over a hundred ulps while |at| ≤ 4). An
// activation like that is what the near-tie guard exists for.
func bentAt(at float64) func(float64) float64 {
	return func(z float64) float64 {
		y := sigmoid(z)
		if z == at {
			for i := 0; i < 3; i++ {
				y = math.Nextafter(y, 2)
			}
		}
		return y
	}
}

// bentLo plus the bias is where checkPoolSigmoid bends σ.
const bentLo = 0.5

// checkPoolSigmoid requires poolSigmoid on the plane src (rows of ow) to
// equal refPool bit for bit: under σ called directly (act nil, the
// production path), under σ passed as a value and counted — the branch-free
// detection must evaluate exactly the elements the scan's guard does — and,
// where the bias leaves it in σ's steep range, under σ bent at bentLo+bias.
func checkPoolSigmoid(t *testing.T, src []float64, ow, win int, bias float64) {
	t.Helper()
	ph, pw := len(src)/ow/win, ow/win
	got, want := make([]float64, ph*pw), make([]float64, ph*pw)
	calls := 0
	counted := func(z float64) float64 { calls++; return sigmoid(z) }
	acts := map[string][2]func(float64) float64{"σ direct": {nil, sigmoid}, "σ": {counted, sigmoid}}
	if at := bentLo + bias; math.Abs(at) <= 4 {
		acts["bent σ"] = [2]func(float64) float64{bentAt(at), bentAt(at)}
	}
	for name, act := range acts {
		poolSigmoid(got, src, ow, pw, win, bias, act[0])
		refPool(want, src, ow, pw, win, bias, act[1])
		for o := range want {
			if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
				t.Fatalf("%s, win %d, bias %v, pooled element %d of a %d-wide plane: fused %v (%#x), per-layer %v (%#x)", name, win, bias, o, ow,
					got[o], math.Float64bits(got[o]), want[o], math.Float64bits(want[o]))
			}
		}
	}
	fused := calls
	calls = 0
	for o := range want {
		poolScan(src, (o/pw)*win*ow+(o%pw)*win, ow, win, bias, counted)
	}
	if fused != calls {
		t.Fatalf("win %d, bias %v: %d activation calls, the exact scan makes %d: the near-tie detection is not the guard's predicate", win, bias, fused, calls)
	}
}

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
	for _, bias := range adversarialBiases {
		checkPoolSigmoid(t, src, 2*len(ws), 2, bias)
	}
}

// poolAlphabet is the values the adversarial windows are made of, few
// enough that a plane drawn from them is dense in ties, near ties, NaNs
// and infinities at every window size. FuzzPoolSigmoid indexes it by byte.
func poolAlphabet() []float64 {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, 1e-310, 1e-310 - 5e-324, -1e-12, math.MaxFloat64, -math.MaxFloat64}
	for _, m := range []float64{bentLo, 1, -0.3, -5, 36.7, -40, 710, -745.2, math.Ln2 / 2, -3 * math.Ln2} {
		vals = append(vals, math.Nextafter(m, math.Inf(1)), m, m-1e-12, m-0.5e-12, m-2e-12, m-1)
		for ulps := 0; ulps < 3; ulps++ {
			m = math.Nextafter(m, math.Inf(-1))
			vals = append(vals, m)
		}
	}
	return vals
}

// TestPoolSigmoidWindowSizes runs planes of adversarial values through
// every window size the segment accepts: 1 (Arch8's P3), 2 (the
// straight-lined body) and 3 (the scan), on 12×12 and on 13×13, whose
// trailing row and column fill no 2-window (13→6) and whose trailing row
// and column fill no 3-window (13→4).
func TestPoolSigmoidWindowSizes(t *testing.T) {
	vals := poolAlphabet()
	rng := rand.New(rand.NewSource(11))
	for _, ow := range []int{12, 13} {
		src := make([]float64, ow*ow)
		for round := 0; round < 40; round++ {
			for i := range src {
				src[i] = vals[rng.Intn(len(vals))]
			}
			for win := 1; win <= 3; win++ {
				checkPoolSigmoid(t, src, ow, win, adversarialBiases[round%len(adversarialBiases)])
			}
		}
	}
}

// FuzzPoolSigmoid builds a plane from fuzz bytes — window size, bias, row
// width, then one poolAlphabet value per byte — and requires the fused
// epilogue to equal the per-layer computation bit for bit, under σ and
// under the bent σ that only the near-tie guard survives.
func FuzzPoolSigmoid(f *testing.F) {
	vals := poolAlphabet()
	f.Add([]byte{1, 0, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		win := 1 + int(data[0])%3
		bias := adversarialBiases[int(data[1])%len(adversarialBiases)]
		ow := win + int(data[2])%(14-win)
		cells := data[3:]
		oh := min(len(cells)/ow, 13)
		if oh < win {
			return
		}
		src := make([]float64, oh*ow)
		for i := range src {
			src[i] = vals[int(cells[i])%len(vals)]
		}
		checkPoolSigmoid(t, src, ow, win, bias)
	})
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

// TestFusedSegmentChargesEpilogue pins the layer's name and who charges
// it: under the opt-in phase profile every fused segment charges its
// pool + bias + σ time to the epilogue phase once per call, next to its
// GEMM, and a conv run on its own charges no epilogue. The convolution
// reads its taps from the activation, so nothing charges im2col. The
// package is serial, so the counts are per call at every batch size.
func TestFusedSegmentChargesEpilogue(t *testing.T) {
	obs.SetProfiling(true)
	defer obs.ProfReset()
	defer obs.SetProfiling(false)
	net := Arch8Layer(rand.New(rand.NewSource(2))).Net
	rng := rand.New(rand.NewSource(3))
	for _, bsz := range []int{1, 32} {
		xs := make([]*tensor.T, bsz)
		for i := range xs {
			xs[i] = randTensor(rng, net.InShape...)
		}
		x := stack(xs)
		obs.ProfReset()
		net.ForwardBatch(x)            // three fused segments
		net.ForwardBatchRange(x, 0, 1) // C1 alone
		calls := make(map[string]int64)
		for _, ph := range obs.ProfSnapshot() {
			calls[ph.Name] = ph.Calls
		}
		if calls["epilogue"] != 3 || calls["gemm"] != 4 || calls["im2col"] != 0 {
			t.Fatalf("batch %d: phase calls %v, want epilogue 3, gemm 4, im2col 0", bsz, calls)
		}
	}
}
