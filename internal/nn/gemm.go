package nn

// gemm.go is the batched fast-path matrix kernel: a cache-blocked, serial
// GEMM (parallelism lives in internal/core, by image range: the Session's
// lanes) whose floating-point summation order is pinned to
// the naive per-sample reference path (conv.go's Conv2DValid loop and
// dense.go's MatVecInto), so the im2col+GEMM convolution reproduces the
// reference forward bit for bit — the property the differential harness in
// equiv_test.go locks down (DESIGN.md §2, "reference vs fast path").
//
// The order pin works like this: the reference convolution computes each
// output element as
//
//	out = Σ_ic ( Σ_{ky,kx} w[ky,kx]·x[ky,kx] ) + bias
//
// with one running sum per input channel, channels accumulated in order and
// the bias added last. GemmGrouped therefore accumulates K in groups of
// groupK (= k·k for a convolution): each group runs its own running sum in
// k-order and groups fold into the output left-to-right. With groupK = K it
// degenerates to a plain running dot product — exactly MatVecInto's order.

import (
	"fmt"

	"cdl/internal/tensor"
)

// gemmTileN is the column-tile width in elements: one tile's group
// accumulator is 4 KiB, so a (row, tile) working set stays resident in L1
// while the k-loop streams over it.
const gemmTileN = 512

// GemmGrouped computes c = a·b for a of shape [M,K], b of shape [K,N] and c
// of shape [M,N], accumulating K in groups of groupK as described in the
// file comment. groupK must divide into K only at the tail (any 1 ≤ groupK
// ≤ K is legal; the final group may be short; anything else means K).
func GemmGrouped(a, b, c *tensor.T, groupK int) {
	if a.Rank() != 2 || b.Rank() != 2 || c.Rank() != 2 {
		panic(fmt.Sprintf("nn: GemmGrouped ranks a=%d b=%d c=%d, want 2", a.Rank(), b.Rank(), c.Rank()))
	}
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	if b.Dim(0) != k || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("nn: GemmGrouped dims a=%v b=%v c=%v", a.Shape(), b.Shape(), c.Shape()))
	}
	if groupK <= 0 || groupK > k {
		groupK = k
	}
	gemmTiles(a.Data, m, k, b.Data, n, c.Data, groupK, 0, n)
}

// gemmTiles computes columns [lo,hi) of c = a·b, one gemmTileN-wide tile at
// a time. Within a tile, each row's K loop runs in groups: a group's partial
// sums accumulate in a local buffer in k-order (the reference (ky,kx)
// order), then fold into the output row — so every c element sees exactly
// the reference summation sequence regardless of tiling or of N.
func gemmTiles(a []float64, m, k int, b []float64, n int, c []float64, groupK, lo, hi int) {
	var sbuf [gemmTileN]float64
	for n0 := lo; n0 < hi; n0 += gemmTileN {
		n1 := n0 + gemmTileN
		if n1 > hi {
			n1 = hi
		}
		for row := 0; row < m; row++ {
			gemmRow1(a, row, k, b, n, c, groupK, n0, n1-n0, &sbuf)
		}
	}
}

// gemmRow1 computes the tile [n0, n0+tn) of one output row, with a
// 4-wide k unroll: the adds into s[i] stay sequential in k-order
// (separate statements, never reassociated), so the unroll changes
// instruction-level parallelism only, not the floating-point result.
func gemmRow1(a []float64, row, k int, b []float64, n int, c []float64, groupK, n0, tn int, sbuf *[gemmTileN]float64) {
	arow := a[row*k : (row+1)*k]
	crow := c[row*n+n0:][:tn]
	s := sbuf[:tn]
	for g0 := 0; g0 < k; g0 += groupK {
		g1 := g0 + groupK
		if g1 > k {
			g1 = k
		}
		for i := range s {
			s[i] = 0
		}
		kk := g0
		for ; kk+3 < g1; kk += 4 {
			a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			b0 := b[kk*n+n0:][:tn]
			b1 := b[(kk+1)*n+n0:][:tn]
			b2 := b[(kk+2)*n+n0:][:tn]
			b3 := b[(kk+3)*n+n0:][:tn]
			for i := range s {
				v := s[i]
				v += a0 * b0[i]
				v += a1 * b1[i]
				v += a2 * b2[i]
				v += a3 * b3[i]
				s[i] = v
			}
		}
		for ; kk < g1; kk++ {
			av := arow[kk]
			brow := b[kk*n+n0:][:tn]
			for i := range s {
				s[i] += av * brow[i]
			}
		}
		if g0 == 0 {
			copy(crow, s)
		} else {
			for i := range s {
				crow[i] += s[i]
			}
		}
	}
}
