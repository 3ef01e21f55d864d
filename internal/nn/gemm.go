package nn

// gemm.go is the batched fast-path matrix kernel: a cache-blocked, serial
// GEMM (parallelism lives in internal/core, by image range: the Session's
// lanes) whose floating-point summation order is pinned to
// the naive per-sample reference path (conv.go's Conv2DValid loop), so the
// convolution reproduces the reference forward bit for bit — the property
// the differential harness in equiv_test.go locks down (DESIGN.md §2,
// "reference vs fast path"). Its B operand is a table of row offsets into
// one slice: a convolution's rows are its kernel taps, each a run of the
// input image itself (batch.go's Conv2D.lower), so nothing is copied.
//
// The order pin works like this: the reference convolution computes each
// output element as
//
//	out = Σ_ic ( Σ_{ky,kx} w[ky,kx]·x[ky,kx] ) + bias
//
// with one running sum per input channel, channels accumulated in order and
// the bias added last. The kernel therefore accumulates K in groups of
// groupK (= k·k for a convolution): each group runs its own running sum in
// k-order and groups fold into the output left-to-right. With groupK = K it
// degenerates to a plain running dot product.

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
	rows := make([]int, k)
	for kk := range rows {
		rows[kk] = kk * n
	}
	gemmTiles(a.Data, m, b.Data, rows, n, c.Data, n, groupK)
}

// gemmTiles computes c = a·b over n columns, one gemmTileN-wide tile at a
// time, where a is m rows of len(off) and b's row kk is the n-long run
// b[off[kk]:] — a matrix's rows, or a convolution's taps read straight
// from its input (batch.go's Conv2D.lower). Output row r starts at c[r·ldc].
// Within a tile, each row's K loop runs in groups: a group's partial sums
// accumulate in a local buffer in k-order (the reference (ky,kx) order),
// then fold into the output row — so every c element sees exactly the
// reference summation sequence regardless of tiling or of n.
func gemmTiles(a []float64, m int, b []float64, off []int, n int, c []float64, ldc, groupK int) {
	var sbuf [gemmTileN]float64
	k := len(off)
	for n0 := 0; n0 < n; n0 += gemmTileN {
		tn := min(gemmTileN, n-n0)
		for row := 0; row < m; row++ {
			gemmRow1(a[row*k:][:k], b, off, n0, c[row*ldc+n0:][:tn], groupK, sbuf[:tn])
		}
	}
}

// gemmRow1 computes the tile crow = columns [n0, n0+len(crow)) of one
// output row: per group, four taps per pass over the tile (madd4), the
// remainder one at a time (madd1), then the fold into crow (fold).
func gemmRow1(arow, b []float64, off []int, n0 int, crow []float64, groupK int, s []float64) {
	k := len(arow)
	for g0 := 0; g0 < k; g0 += groupK {
		g1 := min(g0+groupK, k)
		clear(s)
		kk := g0
		for ; kk+3 < g1; kk += 4 {
			madd4(s, b[off[kk]+n0:], b[off[kk+1]+n0:], b[off[kk+2]+n0:], b[off[kk+3]+n0:],
				arow[kk], arow[kk+1], arow[kk+2], arow[kk+3])
		}
		for ; kk < g1; kk++ {
			madd1(s, b[off[kk]+n0:], arow[kk])
		}
		if g0 == 0 {
			copy(crow, s)
		} else {
			fold(crow, s)
		}
	}
}

// madd4 adds a0·b0[i], a1·b1[i], a2·b2[i] and a3·b3[i] into s[i] in that
// order: separate statements, never reassociated, so the 4-wide k unroll
// changes instruction-level parallelism only, not the floating-point
// result. madd4, madd1 and fold stay out of line: inlined into gemmRow1,
// their loop index spilled to the stack on every iteration.
//
//go:noinline
func madd4(s, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	b0, b1, b2, b3 = b0[:len(s)], b1[:len(s)], b2[:len(s)], b3[:len(s)]
	for i := range s {
		v := s[i]
		v += a0 * b0[i]
		v += a1 * b1[i]
		v += a2 * b2[i]
		v += a3 * b3[i]
		s[i] = v
	}
}

// madd1 adds a·b[i] into s[i].
//
//go:noinline
func madd1(s, b []float64, a float64) {
	b = b[:len(s)]
	for i := range s {
		s[i] += a * b[i]
	}
}

// fold adds s[i] into c[i].
//
//go:noinline
func fold(c, s []float64) {
	c = c[:len(s)]
	for i, v := range s {
		c[i] += v
	}
}
