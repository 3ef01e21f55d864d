package nn

// equiv_test.go is the layer-level half of the fast-path differential
// harness (the cascade-level half is internal/core's batch_test.go): for
// every layer kind and for whole networks, the batched GEMM pipeline must
// reproduce the per-sample reference Forward on every row of the batch.
// The design pins the summation order (gemm.go), so the tests demand exact
// equality — stricter than the documented 1e-9 contract (DESIGN.md §2).

import (
	"math"
	"math/rand"
	"testing"

	"cdl/internal/tensor"
)

// randTensor fills a tensor of the given shape with values in [-1, 1).
func randTensor(rng *rand.Rand, shape ...int) *tensor.T {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float64()*2 - 1
	}
	return t
}

// stack builds the batched [B, ...] tensor from per-sample tensors.
func stack(xs []*tensor.T) *tensor.T {
	sshape := xs[0].Shape()
	ssz := xs[0].Numel()
	out := tensor.New(append([]int{len(xs)}, sshape...)...)
	for i, x := range xs {
		copy(out.Data[i*ssz:(i+1)*ssz], x.Data)
	}
	return out
}

// assertRowsEqual checks that row bi of the batched output equals the
// reference per-sample output exactly.
func assertRowsEqual(t *testing.T, label string, bi int, got *tensor.T, want *tensor.T) {
	t.Helper()
	ssz := want.Numel()
	row := got.Data[bi*ssz : (bi+1)*ssz]
	for i, w := range want.Data {
		if row[i] != w {
			t.Fatalf("%s: batch row %d element %d = %v, reference %v (diff %g)",
				label, bi, i, row[i], w, math.Abs(row[i]-w))
		}
	}
}

// layerCase builds one (layer, input shape) configuration for the
// differential sweep.
type layerCase struct {
	name  string
	layer Layer
	shape []int
}

// equivCases enumerates randomized layer configurations: convs across
// kernel sizes and channel counts (including the paper's LeNet shapes),
// max pooling across windows, dense, flatten and the sigmoid.
func equivCases(rng *rand.Rand) []layerCase {
	mkConv := func(name string, inC, outC, k int) *Conv2D {
		c := NewConv2D(name, inC, outC, k)
		XavierConv(c, rng)
		return c
	}
	mkDense := func(name string, in, out int) *Dense {
		d := NewDense(name, in, out)
		XavierDense(d, rng)
		return d
	}
	return []layerCase{
		{"conv-C1-6layer", mkConv("C1", 1, 6, 5), []int{1, 28, 28}},
		{"conv-C2-6layer", mkConv("C2", 6, 12, 5), []int{6, 12, 12}},
		{"conv-C1-8layer", mkConv("C1", 1, 3, 3), []int{1, 28, 28}},
		{"conv-C2-8layer", mkConv("C2", 3, 6, 4), []int{3, 13, 13}},
		{"conv-C3-8layer", mkConv("C3", 6, 9, 3), []int{6, 5, 5}},
		{"conv-wide", mkConv("CW", 4, 7, 2), []int{4, 9, 11}},
		{"conv-1x1", mkConv("C11", 3, 5, 1), []int{3, 6, 6}},
		{"maxpool-2", NewMaxPool2D("P", 2), []int{3, 12, 12}},
		{"maxpool-3", NewMaxPool2D("P", 3), []int{2, 9, 10}},
		{"maxpool-1", NewMaxPool2D("P", 1), []int{2, 3, 3}},
		{"dense", mkDense("FC", 48, 10), []int{48}},
		{"dense-from-map", mkDense("FC", 3*4*4, 10), []int{3, 4, 4}},
		{"flatten", NewFlatten("flat"), []int{3, 5, 5}},
		{"sigmoid", NewSigmoid("act"), []int{4, 6, 6}},
	}
}

// TestForwardBatchMatchesForward sweeps every layer kind across batch
// sizes, comparing each batched row against the per-sample reference.
func TestForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range equivCases(rng) {
		for _, bsz := range []int{1, 2, 5, 32} {
			xs := make([]*tensor.T, bsz)
			for i := range xs {
				xs[i] = randTensor(rng, tc.shape...)
			}
			got := tc.layer.ForwardBatch(stack(xs))
			if got.Dim(0) != bsz {
				t.Fatalf("%s: batch dim %d, want %d", tc.name, got.Dim(0), bsz)
			}
			for bi, x := range xs {
				want := tc.layer.Forward(x)
				assertRowsEqual(t, tc.name, bi, got, want)
			}
		}
	}
}

// TestForwardBatchRangeMatchesForwardRange runs randomized layer subranges
// of the paper's 8-layer architecture — the exact resumption pattern the
// cascade uses between taps.
func TestForwardBatchRangeMatchesForwardRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := Arch8Layer(rand.New(rand.NewSource(1))).Net
	ranges := [][2]int{{0, 3}, {3, 6}, {6, 9}, {0, len(net.Layers)}, {3, len(net.Layers)}, {5, 5}}
	for _, r := range ranges {
		from, to := r[0], r[1]
		sshape := net.ShapeAt(from)
		for _, bsz := range []int{1, 3, 16} {
			xs := make([]*tensor.T, bsz)
			for i := range xs {
				xs[i] = randTensor(rng, sshape...)
			}
			got := net.ForwardBatchRange(stack(xs), from, to)
			for bi, x := range xs {
				want := net.ForwardRange(x, from, to)
				assertRowsEqual(t, "arch8", bi, got, want)
			}
		}
	}
}

// TestForwardBatchRandomizedShapes fuzzes conv/pool/dense dimensions and
// weights beyond the fixed presets.
func TestForwardBatchRandomizedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		inC := 1 + rng.Intn(4)
		outC := 1 + rng.Intn(8)
		k := 1 + rng.Intn(4)
		h := k + rng.Intn(12)
		w := k + rng.Intn(12)
		conv := NewConv2D("C", inC, outC, k)
		XavierConv(conv, rng)
		bsz := 1 + rng.Intn(9)
		xs := make([]*tensor.T, bsz)
		for i := range xs {
			xs[i] = randTensor(rng, inC, h, w)
		}
		got := conv.ForwardBatch(stack(xs))
		for bi, x := range xs {
			assertRowsEqual(t, "conv-fuzz", bi, got, conv.Forward(x))
		}
	}
}

// TestGemmGroupedMatchesReference compares the tiled kernel against a
// naive triple loop that applies the same grouped accumulation, across
// randomized dimensions (including N big enough to exercise multiple
// column tiles and a short last tile).
func TestGemmGroupedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dims := [][4]int{ // m, k, n, groupK
		{1, 1, 1, 1},
		{3, 25, 40, 25},
		{6, 25, 2 * gemmTileN, 25},
		{12, 150, gemmTileN + 37, 25},
		{5, 9, 777, 4}, // groupK not dividing k: short tail group
		{4, 13, 600, 13},
		{2, 7, 3, 7},
	}
	for _, d := range dims {
		m, k, n, groupK := d[0], d[1], d[2], d[3]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		got := tensor.New(m, n)
		GemmGrouped(a, b, got, groupK)
		want := tensor.New(m, n)
		for row := 0; row < m; row++ {
			for col := 0; col < n; col++ {
				acc := 0.0
				for g0 := 0; g0 < k; g0 += groupK {
					g1 := g0 + groupK
					if g1 > k {
						g1 = k
					}
					s := 0.0
					for kk := g0; kk < g1; kk++ {
						s += a.Data[row*k+kk] * b.Data[kk*n+col]
					}
					acc += s
				}
				want.Data[row*n+col] = acc
			}
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("GemmGrouped(m=%d k=%d n=%d groupK=%d) diverges from reference", m, k, n, groupK)
		}
	}
}

// TestIm2Col checks the expansion on a hand-checkable case: every column
// must be the patch at its (sample, oy, ox) coordinate in (ic, ky, kx)
// row order.
func TestIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bsz, c, h, w, k := 2, 3, 5, 4, 2
	in := randTensor(rng, bsz, c, h, w)
	cols := Im2Col(in, k)
	oh, ow := h-k+1, w-k+1
	if cols.Dim(0) != c*k*k || cols.Dim(1) != bsz*oh*ow {
		t.Fatalf("cols shape %v, want [%d %d]", cols.Shape(), c*k*k, bsz*oh*ow)
	}
	for bi := 0; bi < bsz; bi++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				col := (bi*oh+oy)*ow + ox
				for ic := 0; ic < c; ic++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							row := (ic*k+ky)*k + kx
							got := cols.At(row, col)
							want := in.At(bi, ic, oy+ky, ox+kx)
							if got != want {
								t.Fatalf("cols[%d,%d] = %v, want in[%d,%d,%d,%d] = %v",
									row, col, got, bi, ic, oy+ky, ox+kx, want)
							}
						}
					}
				}
			}
		}
	}
}

// fusedNets are the networks the fused Conv→Sigmoid→MaxPool sweep runs:
// the three presets (Arch8 includes P3's win=1 window) plus a 13→6 pool
// whose trailing row and column fill no window.
func fusedNets() map[string]*Network {
	odd := NewNetwork([]int{2, 15, 15},
		NewConv2D("C1", 2, 3, 3),
		NewSigmoid("C1.act"),
		NewMaxPool2D("P1", 2),
	)
	InitNetwork(odd, rand.New(rand.NewSource(9)))
	return map[string]*Network{
		"arch6":     Arch6Layer(rand.New(rand.NewSource(1))).Net,
		"arch8":     Arch8Layer(rand.New(rand.NewSource(2))).Net,
		"tiny":      ArchTiny(rand.New(rand.NewSource(3)), 4).Net,
		"pool13to6": odd,
	}
}

// assertBitsEqual demands bitwise equality of two activations (so ±0 and
// NaN payloads count), shape included.
func assertBitsEqual(t *testing.T, label string, got, want *tensor.T) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	for i, w := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", label, i,
				got.Data[i], math.Float64bits(got.Data[i]), w, math.Float64bits(w))
		}
	}
}

// TestForwardBatchFusedSegment sweeps the fused segment over every preset
// and the non-divisible pool at batch sizes around the tile and scratch
// boundaries: the whole network must equal the per-sample reference, and
// every triple run fused — ForwardBatchRange(x, t, t+3) — must equal the
// same three layers run one by one and run as (conv+σ) then pool, the two
// ways a range can cut the triple, bit for bit.
func TestForwardBatchFusedSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for name, net := range fusedNets() {
		triples := 0
		for _, bsz := range []int{1, 2, 31, 32, 33} {
			xs := make([]*tensor.T, bsz)
			for i := range xs {
				xs[i] = randTensor(rng, net.InShape...)
			}
			got := net.ForwardBatch(stack(xs))
			for bi, x := range xs {
				assertRowsEqual(t, name, bi, got, net.Forward(x))
			}
			for from := 0; from+3 <= len(net.Layers); from++ {
				if c, _ := convSigmoidPool(net.Layers[from:]); c == nil {
					continue
				}
				triples++
				x := net.ForwardBatchRange(stack(xs), 0, from).Clone()
				// Results live in layer scratch: clone before the next run.
				fused := net.ForwardBatchRange(x, from, from+3).Clone()
				byLayer := net.ForwardBatchRange(net.ForwardBatchRange(net.ForwardBatchRange(x, from, from+1), from+1, from+2), from+2, from+3)
				assertBitsEqual(t, name+" fused vs 1+1+1", fused, byLayer)
				cut := net.ForwardBatchRange(net.ForwardBatchRange(x, from, from+2), from+2, from+3)
				assertBitsEqual(t, name+" fused vs 2+1", fused, cut)
			}
		}
		if triples == 0 {
			t.Fatalf("%s: no Conv→Sigmoid→MaxPool triple found; the sweep tested nothing", name)
		}
	}
}
