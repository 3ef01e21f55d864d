package nn

import (
	"fmt"

	"cdl/internal/tensor"
)

// Conv2D is a valid (no padding, stride 1) multi-channel 2-D convolution
// layer. Input shape is [inC, H, W]; output shape is
// [outC, H-k+1, W-k+1] for square k×k kernels.
//
// Weights are stored as a rank-4 tensor [outC, inC, k, k] plus a bias per
// output map, matching the classic LeNet/DeepLearnToolbox formulation used
// by the paper's baseline DLNs (Tables I and II).
type Conv2D struct {
	name         string
	inC, outC, k int

	weight *Param // [outC, inC, k, k]
	bias   *Param // [outC]

	// caches for Backward
	in  *tensor.T
	out *tensor.T

	// batched fast path state (batch.go), grown on demand, never shared:
	// Clone starts replicas without it. buf is one image's GEMM product
	// (outC maps of oh rows W wide), tapsOff the tap offsets for the input
	// plane tapsHW, bpool the fused segment's pooled output under its
	// returned header.
	buf     []float64
	tapsOff []int
	tapsHW  [2]int
	bpool   tensor.T
}

// NewConv2D constructs a conv layer with zeroed weights; call an
// initializer from init.go (e.g. XavierConv) before training.
func NewConv2D(name string, inC, outC, k int) *Conv2D {
	if inC <= 0 || outC <= 0 || k <= 0 {
		panic(fmt.Sprintf("nn: NewConv2D bad dims inC=%d outC=%d k=%d", inC, outC, k))
	}
	return &Conv2D{
		name: name,
		inC:  inC, outC: outC, k: k,
		weight: &Param{Name: name + ".w", W: tensor.New(outC, inC, k, k), G: tensor.New(outC, inC, k, k)},
		bias:   &Param{Name: name + ".b", W: tensor.New(outC), G: tensor.New(outC)},
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// InChannels returns the number of input maps.
func (c *Conv2D) InChannels() int { return c.inC }

// OutChannels returns the number of output maps.
func (c *Conv2D) OutChannels() int { return c.outC }

// KernelSize returns the square kernel side length.
func (c *Conv2D) KernelSize() int { return c.k }

// Weight exposes the weight parameter (for initialization and hardware
// modelling).
func (c *Conv2D) Weight() *Param { return c.weight }

// Bias exposes the bias parameter.
func (c *Conv2D) Bias() *Param { return c.bias }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != c.inC {
		panic(fmt.Sprintf("nn: %s input shape %v, want [%d H W]", c.name, in, c.inC))
	}
	oh, ow := in[1]-c.k+1, in[2]-c.k+1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: %s kernel %d too large for input %v", c.name, c.k, in))
	}
	return []int{c.outC, oh, ow}
}

// Forward implements Layer.
func (c *Conv2D) Forward(in *tensor.T) *tensor.T {
	os := c.OutShape(in.Shape())
	oh, ow := os[1], os[2]
	h, w := in.Dim(1), in.Dim(2)
	out := tensor.New(c.outC, oh, ow)
	planeIn := h * w
	planeOut := oh * ow
	kk := c.k * c.k
	for oc := 0; oc < c.outC; oc++ {
		oplane := tensor.FromSlice(out.Data[oc*planeOut:(oc+1)*planeOut], oh, ow)
		for ic := 0; ic < c.inC; ic++ {
			iplane := tensor.FromSlice(in.Data[ic*planeIn:(ic+1)*planeIn], h, w)
			kern := tensor.FromSlice(c.weight.W.Data[(oc*c.inC+ic)*kk:(oc*c.inC+ic+1)*kk], c.k, c.k)
			tensor.Conv2DValid(iplane, kern, oplane)
		}
		b := c.bias.W.Data[oc]
		for i := range oplane.Data {
			oplane.Data[i] += b
		}
	}
	c.in, c.out = in, out
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.T) *tensor.T {
	if c.in == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	in := c.in
	h, w := in.Dim(1), in.Dim(2)
	oh, ow := gradOut.Dim(1), gradOut.Dim(2)
	gradIn := tensor.New(c.inC, h, w)
	planeIn := h * w
	planeOut := oh * ow
	kk := c.k * c.k
	for oc := 0; oc < c.outC; oc++ {
		gplane := tensor.FromSlice(gradOut.Data[oc*planeOut:(oc+1)*planeOut], oh, ow)
		// bias gradient: sum over the output plane
		s := 0.0
		for _, v := range gplane.Data {
			s += v
		}
		c.bias.G.Data[oc] += s
		for ic := 0; ic < c.inC; ic++ {
			iplane := tensor.FromSlice(in.Data[ic*planeIn:(ic+1)*planeIn], h, w)
			kern := tensor.FromSlice(c.weight.W.Data[(oc*c.inC+ic)*kk:(oc*c.inC+ic+1)*kk], c.k, c.k)
			gw := tensor.FromSlice(c.weight.G.Data[(oc*c.inC+ic)*kk:(oc*c.inC+ic+1)*kk], c.k, c.k)
			// dW = valid correlation of input with the output gradient
			tensor.Conv2DValid(iplane, gplane, gw)
			// dIn = full convolution of the output gradient with the kernel
			giplane := tensor.FromSlice(gradIn.Data[ic*planeIn:(ic+1)*planeIn], h, w)
			tensor.Conv2DFull(gplane, kern, giplane)
		}
	}
	return gradIn
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// Clone implements Layer: the replica shares weight storage (W) but owns
// fresh gradient buffers and caches, so replicas may run Forward/Backward
// concurrently as long as weights are not updated meanwhile.
func (c *Conv2D) Clone() Layer {
	return &Conv2D{
		name: c.name,
		inC:  c.inC, outC: c.outC, k: c.k,
		weight: &Param{Name: c.weight.Name, W: c.weight.W, G: tensor.New(c.outC, c.inC, c.k, c.k)},
		bias:   &Param{Name: c.bias.Name, W: c.bias.W, G: tensor.New(c.outC)},
	}
}
