package tensor

import "fmt"

// MatVec computes y = W·x for a rank-2 weight tensor W of shape [out,in]
// and a flat vector x of length in, writing into a new vector of length out.
func MatVec(w, x *T) *T {
	if w.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatVec weight rank %d != 2", w.Rank()))
	}
	out, in := w.shape[0], w.shape[1]
	if x.Numel() != in {
		panic(fmt.Sprintf("tensor: MatVec input length %d != %d", x.Numel(), in))
	}
	y := New(out)
	MatVecInto(w, x, y)
	return y
}

// MatVecInto computes y = W·x in place into y (length out). It performs no
// allocation and is the hot path of the fully connected and linear
// classifier layers.
func MatVecInto(w, x, y *T) {
	out, in := w.shape[0], w.shape[1]
	if x.Numel() != in || y.Numel() != out {
		panic(fmt.Sprintf("tensor: MatVecInto dims w=%v x=%d y=%d", w.shape, x.Numel(), y.Numel()))
	}
	MatVecRows(w.Data, x.Data, y.Data)
}

// MatVecRows sets y[o] to the dot product of row o of w (len(y) rows of
// len(x) weights, contiguous) with x. It is the one running-dot kernel of
// MatVecInto and the batched Dense and linear-classifier paths: four rows'
// sums run side by side, each a single running sum in i order, so every
// y[o] is bitwise the one-accumulator loop's and the interleaving only
// hides the FP-add latency.
func MatVecRows(w, x, y []float64) {
	n := len(x)
	o := 0
	for ; o+4 <= len(y); o += 4 {
		r0, r1 := w[o*n:][:len(x)], w[(o+1)*n:][:len(x)]
		r2, r3 := w[(o+2)*n:][:len(x)], w[(o+3)*n:][:len(x)]
		var s0, s1, s2, s3 float64
		for i, v := range x {
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < len(y); o++ {
		row := w[o*n:][:len(x)]
		s := 0.0
		for i, v := range x {
			s += row[i] * v
		}
		y[o] = s
	}
}

// MatTVecInto computes x = Wᵀ·g into x (length in) for W of shape [out,in]
// and g of length out; used for backpropagating through a dense layer.
func MatTVecInto(w, g, x *T) {
	out, in := w.shape[0], w.shape[1]
	if g.Numel() != out || x.Numel() != in {
		panic(fmt.Sprintf("tensor: MatTVecInto dims w=%v g=%d x=%d", w.shape, g.Numel(), x.Numel()))
	}
	wd, gd, xd := w.Data, g.Data, x.Data
	for i := range xd {
		xd[i] = 0
	}
	for o := 0; o < out; o++ {
		gv := gd[o]
		if gv == 0 {
			continue
		}
		row := wd[o*in : (o+1)*in]
		for i, v := range row {
			xd[i] += v * gv
		}
	}
}

// OuterAccum accumulates the outer product g⊗x into W (shape [out,in]):
// W[o,i] += g[o]*x[i]. Used for dense-layer weight gradients.
func OuterAccum(w, g, x *T) {
	out, in := w.shape[0], w.shape[1]
	if g.Numel() != out || x.Numel() != in {
		panic(fmt.Sprintf("tensor: OuterAccum dims w=%v g=%d x=%d", w.shape, g.Numel(), x.Numel()))
	}
	wd, gd, xd := w.Data, g.Data, x.Data
	for o := 0; o < out; o++ {
		gv := gd[o]
		if gv == 0 {
			continue
		}
		row := wd[o*in : (o+1)*in]
		for i, v := range xd {
			row[i] += gv * v
		}
	}
}

// Conv2DValid computes the "valid" 2-D correlation of a single-channel
// input plane in (shape [H,W]) with kernel k (shape [kh,kw]), accumulating
// into out (shape [H-kh+1, W-kw+1]). This is the primitive under
// nn.Conv2D; the layer handles multi-channel fan-in and bias.
func Conv2DValid(in, k, out *T) {
	h, w := in.shape[0], in.shape[1]
	kh, kw := k.shape[0], k.shape[1]
	oh, ow := h-kh+1, w-kw+1
	if out.shape[0] != oh || out.shape[1] != ow {
		panic(fmt.Sprintf("tensor: Conv2DValid out shape %v want [%d %d]", out.shape, oh, ow))
	}
	ind, kd, outd := in.Data, k.Data, out.Data
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			s := 0.0
			for ky := 0; ky < kh; ky++ {
				irow := ind[(oy+ky)*w+ox:]
				krow := kd[ky*kw : ky*kw+kw]
				for kx, kv := range krow {
					s += kv * irow[kx]
				}
			}
			outd[oy*ow+ox] += s
		}
	}
}

// Conv2DFull computes the "full" 2-D convolution of in (shape [H,W]) with
// kernel k (shape [kh,kw]) — equivalently, full correlation with the
// 180°-rotated kernel — accumulating into out (shape [H+kh-1, W+kw-1]).
// Because Conv2DValid is a correlation, Conv2DFull with the *same* kernel is
// its exact adjoint and is used to backpropagate gradients to a convolution
// layer's input.
func Conv2DFull(in, k, out *T) {
	h, w := in.shape[0], in.shape[1]
	kh, kw := k.shape[0], k.shape[1]
	oh, ow := h+kh-1, w+kw-1
	if out.shape[0] != oh || out.shape[1] != ow {
		panic(fmt.Sprintf("tensor: Conv2DFull out shape %v want [%d %d]", out.shape, oh, ow))
	}
	ind, kd, outd := in.Data, k.Data, out.Data
	// out[y+ky, x+kx] += in[y,x] * k[ky,kx]  — scatter form avoids branch-heavy
	// boundary clamping in the gather form.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			iv := ind[y*w+x]
			if iv == 0 {
				continue
			}
			for ky := 0; ky < kh; ky++ {
				orow := outd[(y+ky)*ow+x:]
				krow := kd[ky*kw : ky*kw+kw]
				for kx, kv := range krow {
					orow[kx] += iv * kv
				}
			}
		}
	}
}

// Rot180 returns a copy of the rank-2 tensor k rotated by 180 degrees.
func Rot180(k *T) *T {
	if k.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Rot180 rank %d != 2", k.Rank()))
	}
	h, w := k.shape[0], k.shape[1]
	r := New(h, w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r.Data[(h-1-y)*w+(w-1-x)] = k.Data[y*w+x]
		}
	}
	return r
}

// Concat concatenates the flattened contents of the given tensors into a
// single rank-1 tensor. It is used to build the 1-D feature vectors fed to
// the CDL linear classifiers (paper Algorithm 1, step 6).
func Concat(ts ...*T) *T {
	n := 0
	for _, t := range ts {
		n += t.Numel()
	}
	out := New(n)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:], t.Data)
		off += t.Numel()
	}
	return out
}
