package nn

// im2col.go lowers batched valid convolution onto the GEMM kernel: the
// classic im2col expansion rearranges every k×k input patch into a column,
// so the convolution of B images becomes one [outC, inC·k·k]×[inC·k·k,
// B·oh·ow] matrix product (gemm.go). The batched walk lowers one image at a
// time (B = 1, batch.go's Conv2D.lower), which keeps the columns in cache,
// and on one goroutine: image ranges run in parallel only as internal/core
// Session lanes, each over its own replica. Im2Col keeps the batch-wide
// form. Rows are laid out (ic, ky, kx)-major —
// the same order Conv2DValid visits kernel taps — which is what lets
// GemmGrouped's per-channel grouped accumulation reproduce the reference
// summation exactly.

import (
	"fmt"

	"cdl/internal/tensor"
)

// Im2Col expands a batch of images in (shape [B, C, H, W]) for a square k×k
// valid convolution into the column matrix of shape [C·k·k, B·oh·ow], where
// oh = H−k+1 and ow = W−k+1. Column j = (b·oh + oy)·ow + ox holds the patch
// of sample b whose top-left corner is (oy, ox); row r = (ic·k + ky)·k + kx
// holds input channel ic at kernel tap (ky, kx).
func Im2Col(in *tensor.T, k int) *tensor.T {
	if in.Rank() != 4 {
		panic(fmt.Sprintf("nn: Im2Col input rank %d, want [B C H W]", in.Rank()))
	}
	bsz, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	oh, ow := h-k+1, w-k+1
	if k <= 0 || oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: Im2Col kernel %d too large for input %v", k, in.Shape()))
	}
	cols := tensor.New(c*k*k, bsz*oh*ow)
	im2colInto(in.Data, bsz, c, h, w, k, cols.Data)
	return cols
}

// im2colInto is the allocation-free core of Im2Col: it fills cols (length
// c·k·k · b·oh·ow) from the batch at in (length b·c·h·w). Each (ic, ky, kx)
// row is a gather of contiguous ow-length runs, so the inner loop is a pure
// copy.
func im2colInto(in []float64, bsz, c, h, w, k int, cols []float64) {
	oh, ow := h-k+1, w-k+1
	planeIn := h * w
	chw := c * planeIn
	ncols := bsz * oh * ow
	for ic := 0; ic < c; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				r := (ic*k+ky)*k + kx
				dst := cols[r*ncols : (r+1)*ncols]
				di := 0
				for bi := 0; bi < bsz; bi++ {
					base := bi*chw + ic*planeIn
					for oy := 0; oy < oh; oy++ {
						src := in[base+(oy+ky)*w+kx:][:ow]
						// Manual copy: the runs are short (ow elements, tens
						// of bytes), where a copy() call's memmove overhead
						// costs more than the moves themselves.
						d := dst[di:][:ow]
						for x, v := range src {
							d[x] = v
						}
						di += ow
					}
				}
			}
		}
	}
}
