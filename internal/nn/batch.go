package nn

// batch.go is the batched inference fast path: every layer's ForwardBatch
// (a method of Layer) processes a whole micro-batch per call, with the
// convolutions lowered one image at a time onto the GEMM (gemm.go), whose
// B rows are the kernel taps read straight from the activation, instead of
// the per-sample nested loops of Forward. The package is
// serial: a batch's parallelism lives a level up, in internal/core's
// Session, which walks contiguous image ranges on replicas of its own.
//
// The contract — enforced by the differential harness in equiv_test.go and
// internal/core's batch_test.go — is that ForwardBatch applied to a stack
// of samples produces, for each sample, floats identical to Forward on that
// sample alone (same operations in the same order; see gemm.go for how the
// convolution preserves the reference summation). ForwardBatch is
// inference-only: it does not populate the Backward caches.
//
// A batched activation is a single tensor whose leading dimension is the
// batch: [B, ...sample shape...], rows contiguous, so per-sample views and
// survivor compaction (internal/core's Session walker) are cheap slices.
//
// The hot layers (the fused conv segment, Dense, Sigmoid) write into scratch
// the layer owns, grown to the largest batch seen and never shared between
// Clone replicas: a result is valid until the next call on the same replica.

import (
	"fmt"
	"math"
	"time"

	"cdl/internal/obs"
	"cdl/internal/tensor"
)

// ForwardBatch runs a full batched forward pass (layers [0, len)).
func (n *Network) ForwardBatch(x *tensor.T) *tensor.T {
	return n.ForwardBatchRange(x, 0, len(n.Layers))
}

// ForwardBatchRange runs layers [from, to) on the batched activation x
// (leading dimension = batch). It is the batched counterpart of
// ForwardRange — the primitive internal/core's Session walker resumes the
// baseline with between cascade taps. A Conv2D → Sigmoid → MaxPool2D triple
// wholly inside [from, to) runs fused (forwardBatchSigmoidPool); every other
// layer, and a range that cuts the triple, runs its own ForwardBatch, same
// floats. The result is valid until the next ForwardBatch* on this replica.
func (n *Network) ForwardBatchRange(x *tensor.T, from, to int) *tensor.T {
	if from < 0 || to > len(n.Layers) || from > to {
		panic(fmt.Sprintf("nn: ForwardBatchRange[%d,%d) out of range [0,%d]", from, to, len(n.Layers)))
	}
	if x.Rank() < 1 {
		panic("nn: ForwardBatchRange input has no batch dimension")
	}
	ls := n.Layers[from:to]
	for i := 0; i < len(ls); i++ {
		if c, p := convSigmoidPool(ls[i:]); c != nil {
			x = c.forwardBatchSigmoidPool(x, p)
			i += 2
		} else {
			x = ls[i].ForwardBatch(x)
		}
	}
	return x
}

// convSigmoidPool returns the conv and pool of a leading Conv2D → Sigmoid →
// MaxPool2D triple (every stage of the paper's architectures), else nils.
func convSigmoidPool(ls []Layer) (*Conv2D, *MaxPool2D) {
	if len(ls) < 3 {
		return nil, nil
	}
	c, _ := ls[0].(*Conv2D)
	p, _ := ls[2].(*MaxPool2D)
	if _, ok := ls[1].(*Sigmoid); !ok || c == nil || p == nil {
		return nil, nil
	}
	return c, p
}

// sampleSize returns the per-sample element count of a batched activation.
func sampleSize(in *tensor.T, bsz int) int {
	if bsz == 0 {
		return 0
	}
	return in.Numel() / bsz
}

// growScratch returns a buffer of at least n elements, reusing buf when it
// is already big enough.
func growScratch(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// checkBatch panics unless in is [B, inC, H, W] with room for the kernel,
// and returns the output plane's height and width.
func (c *Conv2D) checkBatch(in *tensor.T) (oh, ow int) {
	if in.Rank() != 4 || in.Dim(1) != c.inC {
		panic(fmt.Sprintf("nn: %s batch input shape %v, want [B %d H W]", c.name, in.Shape(), c.inC))
	}
	oh, ow = in.Dim(2)-c.k+1, in.Dim(3)-c.k+1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: %s kernel %d too large for input %v", c.name, c.k, in.Shape()))
	}
	return oh, ow
}

// lower is the one batched convolution (win 0: unfused, else the fused
// segment's pooling window), one image at a time: the serial grouped GEMM
// reads tap (ic, ky, kx)'s row straight from the image at offset
// ic·H·W + ky·W + kx (taps), so output maps come out W wide, each of the
// (oh−1)·W + ow computed columns holding Forward's sum in Forward's order.
// The last k−1 columns of a row wrap into the next input row and are never
// read: per map, pool + bias + σ into the pooled output at row stride W or,
// unfused, the ow valid columns copied out with the bias added. Under the
// phase profile a call charges each phase once, summed.
func (c *Conv2D) lower(in *tensor.T, out []float64, win int) {
	bsz, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh, ow, pwin := h-c.k+1, w-c.k+1, max(win, 1)
	plane, pw, chw := oh*w, ow/pwin, c.inC*h*w
	pplane, oplane := oh/pwin*pw, oh*ow
	off := c.taps(h, w)
	c.buf = growScratch(c.buf, c.outC*plane)
	var spent *[2]time.Duration // GEMM, epilogue; nil unless profiling
	var t time.Time
	if obs.ProfilingEnabled() {
		spent, t = new([2]time.Duration), time.Now()
	}
	lap := func(phase int) {
		if spent != nil {
			now := time.Now()
			spent[phase] += now.Sub(t)
			t = now
		}
	}
	for bi := range bsz {
		gemmTiles(c.weight.W.Data, c.outC, in.Data[bi*chw:][:chw], off, plane-c.k+1, c.buf, plane, c.k*c.k)
		lap(0)
		for oc, b := range c.bias.W.Data {
			src := c.buf[oc*plane:][:plane]
			if win > 0 {
				poolSigmoid(out[(bi*c.outC+oc)*pplane:][:pplane], src, w, pw, win, b, nil)
				continue
			}
			dst := out[(bi*c.outC+oc)*oplane:][:oplane]
			for y := range oh {
				d := dst[y*ow:][:ow]
				for x, v := range src[y*w:][:ow] {
					d[x] = v + b
				}
			}
		}
		lap(1)
	}
	if spent != nil {
		obs.ProfAdd(obs.PhaseGEMM, spent[0])
		if win > 0 {
			obs.ProfAdd(obs.PhaseEpilogue, spent[1])
		}
	}
}

// taps returns the offset of tap (ic, ky, kx) into one [inC, h, w] image,
// in the weights' (ic, ky, kx) order, rebuilt in the layer's scratch only
// when the input plane changes.
func (c *Conv2D) taps(h, w int) []int {
	if c.tapsHW != [2]int{h, w} {
		c.tapsOff = c.tapsOff[:0]
		for ic := range c.inC {
			for ky := range c.k {
				for kx := range c.k {
					c.tapsOff = append(c.tapsOff, (ic*h+ky)*w+kx)
				}
			}
		}
		c.tapsHW = [2]int{h, w}
	}
	return c.tapsOff
}

// ForwardBatch implements Layer: lower with no fused epilogue, into a
// fresh [B, outC, oh, ow] activation.
func (c *Conv2D) ForwardBatch(in *tensor.T) *tensor.T {
	oh, ow := c.checkBatch(in)
	out := tensor.New(in.Dim(0), c.outC, oh, ow)
	c.lower(in, out.Data, 0)
	return out
}

// nearTie is the fused segment's guard band around a pooling window's max.
const nearTie = 1e-12

var nearTieBits = math.Float64bits(nearTie)

// forwardBatchSigmoidPool is the fused Conv2D → Sigmoid → MaxPool2D
// segment: lower with each image's GEMM product pooled straight into the
// [B, outC, oh/win, ow/win] activation in the layer's scratch.
// fl(g+b) and σ are monotone, so maxpool(σ(conv+b)) = σ(max(conv)+b): one
// math.Exp per pooled element, not one per conv output. No libm documents
// that the COMPUTED σ is monotone, so every element within nearTie of the
// max is evaluated too: inside the band that is the reference computation,
// outside it exp moves by thousands of ulps (DESIGN.md §2).
func (c *Conv2D) forwardBatchSigmoidPool(in *tensor.T, p *MaxPool2D) *tensor.T {
	oh, ow := c.checkBatch(in)
	ph, pw := oh/p.win, ow/p.win
	if ph <= 0 || pw <= 0 {
		panic(fmt.Sprintf("nn: %s window %d too large for %s output [%d %d]", p.name, p.win, c.name, oh, ow))
	}
	bsz := in.Dim(0)
	out := c.bpool.Point(growScratch(c.bpool.Data, bsz*c.outC*ph*pw), bsz, c.outC, ph, pw)
	c.lower(in, out.Data, p.win)
	return out
}

// poolSigmoid fills one pooled plane dst (rows of pw) from one conv output
// plane src (row stride ow, bias not added): every element is poolScan's of
// its window. act is a parameter so a test can bend σ and show the guard
// carries the equality; nil is σ itself, called directly.
//
// The 2×2 window, the only pooling shape the paper's architectures compute
// with, has no data-dependent branch: on conv outputs the scan's compares
// mispredict, and the refills cost more than the exp they precede. best-v
// is +0 exactly when v == best, and positive doubles order like their bits,
// so u, the least Float64bits(best-v)-1 (a tie wraps to MaxUint64; Inf-Inf
// is NaN, whose bits are large), is below nearTieBits exactly when some v
// has 0 < best-v ≤ nearTie, the guard's predicate. Such a window, and one
// holding a NaN, takes poolScan. In any other the scan finds the same max
// or the other zero of a +0/-0 pair, and no output bit depends on which:
// fl(±0+b) is b for b ≠ 0, σ(+0) = σ(-0) = 0.5 exactly (DESIGN.md §2).
func poolSigmoid(dst, src []float64, ow, pw, win int, bias float64, act func(float64) float64) {
	if win != 2 {
		for o := range dst {
			dst[o] = poolScan(src, (o/pw)*win*ow+(o%pw)*win, ow, win, bias, act)
		}
		return
	}
	for py := 0; py < len(dst)/pw; py++ {
		r0, r1 := src[2*py*ow:][:2*pw], src[(2*py+1)*ow:][:2*pw]
		d := dst[py*pw:][:pw]
		for px := range d {
			a, b, c, e := r0[2*px], r0[2*px+1], r1[2*px], r1[2*px+1]
			best := max(a, b, c, e)
			u := min(math.Float64bits(best-a)-1, math.Float64bits(best-b)-1,
				math.Float64bits(best-c)-1, math.Float64bits(best-e)-1)
			switch {
			case best != best || u < nearTieBits:
				d[px] = poolScan(src, 2*py*ow+2*px, ow, 2, bias, act)
			case act == nil:
				d[px] = sigmoid(best + bias)
			default:
				d[px] = act(best + bias)
			}
		}
	}
}

// poolScan is one pooled element, exactly: the max of the win×win window
// at src[base] in MaxPool2D's scan order with its `>`, act(max+bias), then
// every element within nearTie of the max evaluated too.
func poolScan(src []float64, base, ow, win int, bias float64, act func(float64) float64) float64 {
	if act == nil {
		act = sigmoid
	}
	best := src[base]
	for dy := 0; dy < win; dy++ {
		for _, v := range src[base+dy*ow:][:win] {
			if v > best {
				best = v
			}
		}
	}
	y := act(best + bias)
	for dy := 0; dy < win; dy++ {
		for _, v := range src[base+dy*ow:][:win] {
			if v != best && best-v <= nearTie {
				y = max(y, act(v+bias))
			}
		}
	}
	return y
}

// ForwardBatch implements Layer: per-row W·x + b through MatVecInto's
// kernel, the bias added after the dot as in Forward.
func (d *Dense) ForwardBatch(in *tensor.T) *tensor.T {
	bsz := in.Dim(0)
	ssz := sampleSize(in, bsz)
	if ssz != d.in {
		panic(fmt.Sprintf("nn: %s batch sample numel %d, want %d", d.name, ssz, d.in))
	}
	out := d.bout.Point(growScratch(d.bout.Data, bsz*d.out), bsz, d.out)
	for bi := 0; bi < bsz; bi++ {
		y := out.Data[bi*d.out:][:d.out]
		tensor.MatVecRows(d.weight.W.Data, in.Data[bi*ssz:][:ssz], y)
		for o, b := range d.bias.W.Data {
			y[o] += b
		}
	}
	return out
}

// ForwardBatch implements Layer: a flat reshape to [B, n].
func (f *Flatten) ForwardBatch(in *tensor.T) *tensor.T {
	bsz := in.Dim(0)
	return f.bout.Point(in.Data, bsz, sampleSize(in, bsz))
}

// ForwardBatch implements Layer: element-wise, so batching is the
// identity transformation on the math. in is left untouched.
func (s *Sigmoid) ForwardBatch(in *tensor.T) *tensor.T {
	data := growScratch(s.bout.Data, in.Numel())
	for i, v := range in.Data {
		data[i] = sigmoid(v)
	}
	s.bout = *in // in's shape over the layer's own data
	s.bout.Data = data
	return &s.bout
}

// ForwardBatch implements Layer: the same window scan as Forward per
// sample (identical comparison order, so ties break identically), without
// recording argmax state.
func (p *MaxPool2D) ForwardBatch(in *tensor.T) *tensor.T {
	shape := in.Shape()
	if len(shape) != 4 {
		panic(fmt.Sprintf("nn: %s batch input shape %v, want [B C H W]", p.name, shape))
	}
	bsz, c, h, w := shape[0], shape[1], shape[2], shape[3]
	oh, ow := h/p.win, w/p.win
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: %s window %d too large for input %v", p.name, p.win, shape))
	}
	out := tensor.New(bsz, c, oh, ow)
	for bi := 0; bi < bsz; bi++ {
		ind := in.Data[bi*c*h*w:]
		outd := out.Data[bi*c*oh*ow:]
		for ch := 0; ch < c; ch++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					baseY, baseX := oy*p.win, ox*p.win
					best := ind[ch*h*w+baseY*w+baseX]
					for dy := 0; dy < p.win; dy++ {
						rowOff := ch*h*w + (baseY+dy)*w + baseX
						for dx := 0; dx < p.win; dx++ {
							if v := ind[rowOff+dx]; v > best {
								best = v
							}
						}
					}
					outd[ch*oh*ow+oy*ow+ox] = best
				}
			}
		}
	}
	return out
}
