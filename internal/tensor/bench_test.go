package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randTensor(shape []int, seed int64) *T {
	t := New(shape...)
	r := rand.New(rand.NewSource(seed))
	for i := range t.Data {
		t.Data[i] = r.NormFloat64()
	}
	return t
}

func BenchmarkMatVec507x10(b *testing.B) {
	// The O1 linear-classifier shape of the paper's 8-layer network.
	w := randTensor([]int{10, 507}, 1)
	x := randTensor([]int{507}, 2)
	y := New(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecInto(w, x, y)
	}
}

func BenchmarkConv2DValid26x26k3(b *testing.B) {
	// The C1 plane of the paper's 8-layer network.
	in := randTensor([]int{28, 28}, 3)
	k := randTensor([]int{3, 3}, 4)
	out := New(26, 26)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Zero()
		Conv2DValid(in, k, out)
	}
}

func BenchmarkConv2DFull(b *testing.B) {
	in := randTensor([]int{26, 26}, 5)
	k := randTensor([]int{3, 3}, 6)
	out := New(28, 28)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Zero()
		Conv2DFull(in, k, out)
	}
}

func BenchmarkOuterAccum(b *testing.B) {
	w := New(10, 507)
	g := randTensor([]int{10}, 7)
	x := randTensor([]int{507}, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OuterAccum(w, g, x)
	}
}

// BenchmarkSigmoidRow times σ over one 864-element row, a stage-0 output
// of the paper's 3-stage network (6 maps of 12×12), as SigmoidInPlace
// computes it and as the one-call-per-element 1/(1+math.Exp(-x)) did.
func BenchmarkSigmoidRow(b *testing.B) {
	src := randTensor([]int{864}, 9).Data
	row := make([]float64, len(src))
	b.Run("SigmoidInPlace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(row, src)
			SigmoidInPlace(row)
		}
	})
	b.Run("math.Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range src {
				row[j] = 1 / (1 + math.Exp(-x))
			}
		}
	})
}
