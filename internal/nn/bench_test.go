package nn

import (
	"math/rand"
	"testing"

	"cdl/internal/tensor"
)

func benchInput(seed int64) *tensor.T {
	x := tensor.New(1, 28, 28)
	r := rand.New(rand.NewSource(seed))
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	return x
}

func BenchmarkArch6Forward(b *testing.B) {
	net := Arch6Layer(rand.New(rand.NewSource(1))).Net
	x := benchInput(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

func BenchmarkArch8Forward(b *testing.B) {
	net := Arch8Layer(rand.New(rand.NewSource(1))).Net
	x := benchInput(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

func BenchmarkArch8ForwardBackward(b *testing.B) {
	net := Arch8Layer(rand.New(rand.NewSource(1))).Net
	x := benchInput(2)
	target := OneHot(3, 10)
	loss := MSE{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := net.Forward(x)
		net.Backward(loss.Grad(out, target))
	}
}

func BenchmarkArch8ForwardToP1(b *testing.B) {
	// The cost of the feature extraction feeding O1 — what an early-exit
	// input actually executes.
	net := Arch8Layer(rand.New(rand.NewSource(1))).Net
	x := benchInput(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardRange(x, 0, 3)
	}
}

// --- core-kernel benchmarks --------------------------------------------
//
// GEMM fast path vs naive per-sample conv at the paper's LeNet shapes
// (Table I: C1 1→6 maps k5 on 28×28, C2 6→12 maps k5 on 12×12), plus the
// whole-network batched forward. Run them with
// `go test -run '^$' -bench 'Conv|Forward' ./internal/nn`. Every benchmark
// reports images/s for direct naive-vs-GEMM throughput comparison.

// benchConvCase is one (conv layer, input shape) configuration.
type benchConvCase struct {
	name string
	inC  int
	outC int
	k    int
	h, w int
}

func lenetConvCases() []benchConvCase {
	return []benchConvCase{
		{"C1_1x28x28_to_6", 1, 6, 5, 28, 28},
		{"C2_6x12x12_to_12", 6, 12, 5, 12, 12},
	}
}

func benchBatch(rng *rand.Rand, bsz int, shape ...int) []*tensor.T {
	xs := make([]*tensor.T, bsz)
	for i := range xs {
		xs[i] = tensor.New(shape...)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.Float64()
		}
	}
	return xs
}

func stackBatch(xs []*tensor.T) *tensor.T {
	sshape := xs[0].Shape()
	ssz := xs[0].Numel()
	out := tensor.New(append([]int{len(xs)}, sshape...)...)
	for i, x := range xs {
		copy(out.Data[i*ssz:(i+1)*ssz], x.Data)
	}
	return out
}

// BenchmarkConvNaive is the reference path: per-sample nested-loop conv,
// batch of 32 per iteration.
func BenchmarkConvNaive(b *testing.B) {
	for _, tc := range lenetConvCases() {
		b.Run(tc.name+"_b32", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			conv := NewConv2D("C", tc.inC, tc.outC, tc.k)
			XavierConv(conv, rng)
			xs := benchBatch(rng, 32, tc.inC, tc.h, tc.w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, x := range xs {
					conv.Forward(x)
				}
			}
			b.ReportMetric(float64(len(xs))*float64(b.N)/b.Elapsed().Seconds(), "images/s")
		})
	}
}

// BenchmarkConvGemm is the fast path: one im2col+GEMM per batch of 32.
func BenchmarkConvGemm(b *testing.B) {
	for _, tc := range lenetConvCases() {
		b.Run(tc.name+"_b32", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			conv := NewConv2D("C", tc.inC, tc.outC, tc.k)
			XavierConv(conv, rng)
			batch := stackBatch(benchBatch(rng, 32, tc.inC, tc.h, tc.w))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conv.ForwardBatch(batch)
			}
			b.ReportMetric(32*float64(b.N)/b.Elapsed().Seconds(), "images/s")
		})
	}
}

// BenchmarkForwardLoop32 runs the full 6-layer LeNet baseline per sample —
// the pre-fast-path serving cost of a 32-image micro-batch.
func BenchmarkForwardLoop32(b *testing.B) {
	net := Arch6Layer(rand.New(rand.NewSource(1))).Net
	xs := benchBatch(rand.New(rand.NewSource(2)), 32, 1, 28, 28)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			net.Forward(x)
		}
	}
	b.ReportMetric(float64(len(xs))*float64(b.N)/b.Elapsed().Seconds(), "images/s")
}

// BenchmarkForwardBatch32 runs the same baseline through the batched GEMM
// pipeline.
func BenchmarkForwardBatch32(b *testing.B) { benchForwardBatch(b, Arch6Layer, 32) }

// BenchmarkForwardBatch1 pins the batch-of-one overhead: the fast path
// must not regress a lone request.
func BenchmarkForwardBatch1(b *testing.B) { benchForwardBatch(b, Arch6Layer, 1) }

// BenchmarkForwardBatch32Arch8 is BenchmarkForwardBatch32 on the 8-layer
// preset (MNIST_3C's baseline).
func BenchmarkForwardBatch32Arch8(b *testing.B) { benchForwardBatch(b, Arch8Layer, 32) }

// BenchmarkForwardBatch1Arch8 is BenchmarkForwardBatch1 on the 8-layer
// preset, whose stage-0 conv is the one most requests end after.
func BenchmarkForwardBatch1Arch8(b *testing.B) { benchForwardBatch(b, Arch8Layer, 1) }

func benchForwardBatch(b *testing.B, arch func(*rand.Rand) *Arch, bsz int) {
	net := arch(rand.New(rand.NewSource(1))).Net
	batch := stackBatch(benchBatch(rand.New(rand.NewSource(2)), bsz, 1, 28, 28))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(batch)
	}
	b.ReportMetric(float64(bsz)*float64(b.N)/b.Elapsed().Seconds(), "images/s")
}

// BenchmarkPoolSigmoid times the fused segment's epilogue alone, in ns per
// pooled element, on 96 conv-output planes of 26×26 (Arch8 C1 at batch 32):
// random planes, where the window max moves unpredictably, and MNIST-like
// ones (flat background, a few strokes), under σ and under the identity.
// The identity rows are the scan itself: a profile charges its mispredicted
// branches to whatever dependent chain follows, which once read as exp.
func BenchmarkPoolSigmoid(b *testing.B) {
	const planes, ow, pw = 96, 26, 13
	rng := rand.New(rand.NewSource(1))
	random := make([]float64, planes*ow*ow)
	for i := range random {
		random[i] = rng.NormFloat64()
	}
	strokes := make([]float64, planes*ow*ow)
	for p := 0; p < planes; p++ {
		plane := strokes[p*ow*ow:][:ow*ow]
		for s := 0; s < 3; s++ {
			y, x := 3+rng.Intn(ow-6), 3+rng.Intn(ow-6)
			dy, dx := rng.Intn(3)-1, rng.Intn(3)-1
			for t := 0; t < 12; t++ {
				if yy, xx := y+t*dy, x+t*dx; yy >= 0 && yy < ow && xx >= 0 && xx < ow {
					plane[yy*ow+xx] = 0.5 + rng.Float64()
				}
			}
		}
	}
	identity := func(z float64) float64 { return z }
	dst := make([]float64, pw*pw)
	for _, tc := range []struct {
		name string
		src  []float64
		act  func(float64) float64
	}{
		{"random/sigmoid", random, nil},
		{"random/identity", random, identity},
		{"strokes/sigmoid", strokes, nil},
		{"strokes/identity", strokes, identity},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for p := 0; p < planes; p++ {
					poolSigmoid(dst, tc.src[p*ow*ow:][:ow*ow], ow, pw, 2, -0.1, tc.act)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*planes*len(dst)), "ns/elt")
		})
	}
}
