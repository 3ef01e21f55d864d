// Package opcount implements the operation-accounting model behind the
// paper's efficiency metric: "the average number of operations (or
// computations) per input (OPS)". It supplies the per-stage costs γ_i used
// by Algorithm 1's gain rule (Eq. 1) and the dynamic OPS-per-input numbers
// behind Figs. 5, 9 and 10.
//
// The default weighting counts one operation per multiply-accumulate, per
// pooling comparison, per bias addition and per activation-function
// evaluation. The weights are exported so ablations can, e.g., cost a MAC
// as two operations (multiply + add).
package opcount

import (
	"fmt"

	"cdl/internal/nn"
)

// Model weights each primitive operation class.
type Model struct {
	// MAC is the cost of one multiply-accumulate (default 1).
	MAC float64
	// Add is the cost of one standalone addition, e.g. a bias add
	// (default 1).
	Add float64
	// Compare is the cost of one comparison in a max-pool window
	// (default 1).
	Compare float64
	// Act is the cost of one activation-function evaluation (default 1).
	Act float64
}

// Default returns the paper-style unit-cost model.
func Default() Model { return Model{MAC: 1, Add: 1, Compare: 1, Act: 1} }

// LayerBreakdown itemizes the operations one layer performs on one input.
type LayerBreakdown struct {
	Name                       string
	MACs, Adds, Compares, Acts float64
	InShape, OutShape          []int
}

// Total applies the model's weights to the breakdown.
func (m Model) Total(b LayerBreakdown) float64 {
	return m.MAC*b.MACs + m.Add*b.Adds + m.Compare*b.Compares + m.Act*b.Acts
}

// LayerOps itemizes the operation count of a single layer given its input
// shape.
func LayerOps(l nn.Layer, inShape []int) LayerBreakdown {
	out := l.OutShape(inShape)
	b := LayerBreakdown{
		Name:     l.Name(),
		InShape:  append([]int(nil), inShape...),
		OutShape: out,
	}
	outN := 1
	for _, d := range out {
		outN *= d
	}
	switch t := l.(type) {
	case *nn.Conv2D:
		// one MAC per kernel element per output pixel, one bias add per
		// output pixel
		b.MACs = float64(outN * t.InChannels() * t.KernelSize() * t.KernelSize())
		b.Adds = float64(outN)
	case *nn.Dense:
		b.MACs = float64(t.In() * t.Out())
		b.Adds = float64(t.Out())
	case *nn.MaxPool2D:
		// win²−1 comparisons per output element
		b.Compares = float64(outN * (t.Window()*t.Window() - 1))
	case *nn.Sigmoid:
		b.Acts = float64(outN)
	case *nn.Flatten:
		// free: a reshape moves no data in this implementation
	default:
		panic(fmt.Sprintf("opcount: unknown layer type %T", l))
	}
	return b
}

// NetworkBreakdown itemizes every layer of a network in order.
func NetworkBreakdown(net *nn.Network) []LayerBreakdown {
	shape := append([]int(nil), net.InShape...)
	bs := make([]LayerBreakdown, 0, len(net.Layers))
	for _, l := range net.Layers {
		b := LayerOps(l, shape)
		bs = append(bs, b)
		shape = b.OutShape
	}
	return bs
}

// NetworkOps returns the total weighted op count of a full forward pass —
// the paper's baseline cost γ_base.
func (m Model) NetworkOps(net *nn.Network) float64 {
	total := 0.0
	for _, b := range NetworkBreakdown(net) {
		total += m.Total(b)
	}
	return total
}

// CumulativeOps returns the weighted op count of running the first k
// layers, for every k in 0..len(Layers). CumulativeOps(net)[k] is the cost
// of the feature extraction feeding a linear classifier tapped after layer
// k; the last entry equals NetworkOps.
func (m Model) CumulativeOps(net *nn.Network) []float64 {
	bs := NetworkBreakdown(net)
	cum := make([]float64, len(bs)+1)
	for i, b := range bs {
		cum[i+1] = cum[i] + m.Total(b)
	}
	return cum
}

// LinearClassifierOps returns the cost of one linear-classifier evaluation
// on a feature vector of width in with out classes: in×out MACs, out bias
// adds, out sigmoid evaluations. This is the additional per-stage cost the
// paper's Eq. 1 charges for every admitted output layer.
func (m Model) LinearClassifierOps(in, out int) float64 {
	return m.MAC*float64(in*out) + m.Add*float64(out) + m.Act*float64(out)
}
