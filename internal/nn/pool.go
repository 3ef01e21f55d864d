package nn

import (
	"fmt"

	"cdl/internal/tensor"
)

// MaxPool2D is a non-overlapping max pooling layer with a square window and
// stride equal to the window size. Input shape [C, H, W] maps to
// [C, H/win, W/win] (floor division; trailing rows/columns that do not fill
// a window are dropped, as in the paper's 26→13 and 10→5 reductions).
//
// A window of 1 is the identity spatially; the paper's P3 stage (3×3 in,
// 3×3 out) is modelled this way.
type MaxPool2D struct {
	name string
	win  int

	inShape []int
	argmax  []int // flat input index chosen per output element
}

// NewMaxPool2D constructs a max pool layer with the given window size.
func NewMaxPool2D(name string, win int) *MaxPool2D {
	if win <= 0 {
		panic(fmt.Sprintf("nn: NewMaxPool2D bad window %d", win))
	}
	return &MaxPool2D{name: name, win: win}
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return p.name }

// Window returns the pooling window size.
func (p *MaxPool2D) Window() int { return p.win }

// OutShape implements Layer.
func (p *MaxPool2D) OutShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: %s input shape %v, want [C H W]", p.name, in))
	}
	oh, ow := in[1]/p.win, in[2]/p.win
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: %s window %d too large for input %v", p.name, p.win, in))
	}
	return []int{in[0], oh, ow}
}

// Forward implements Layer.
func (p *MaxPool2D) Forward(in *tensor.T) *tensor.T {
	os := p.OutShape(in.Shape())
	c, oh, ow := os[0], os[1], os[2]
	h, w := in.Dim(1), in.Dim(2)
	out := tensor.New(c, oh, ow)
	p.inShape = in.Shape()
	p.argmax = make([]int, c*oh*ow)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				baseY, baseX := oy*p.win, ox*p.win
				bestIdx := ch*h*w + baseY*w + baseX
				best := in.Data[bestIdx]
				for dy := 0; dy < p.win; dy++ {
					rowOff := ch*h*w + (baseY+dy)*w + baseX
					for dx := 0; dx < p.win; dx++ {
						if v := in.Data[rowOff+dx]; v > best {
							best = v
							bestIdx = rowOff + dx
						}
					}
				}
				oidx := ch*oh*ow + oy*ow + ox
				out.Data[oidx] = best
				p.argmax[oidx] = bestIdx
			}
		}
	}
	return out
}

// Backward implements Layer: gradient routes to the argmax element of each
// window.
func (p *MaxPool2D) Backward(gradOut *tensor.T) *tensor.T {
	if p.argmax == nil {
		panic("nn: MaxPool2D.Backward before Forward")
	}
	gradIn := tensor.New(p.inShape...)
	for oidx, iidx := range p.argmax {
		gradIn.Data[iidx] += gradOut.Data[oidx]
	}
	return gradIn
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// Clone implements Layer.
func (p *MaxPool2D) Clone() Layer { return &MaxPool2D{name: p.name, win: p.win} }
