package hw

import (
	"fmt"

	"cdl/internal/nn"
)

// LayerActivity is the per-input datapath and memory activity of one layer:
// the dynamic event counts an RTL power tool would integrate.
type LayerActivity struct {
	// Name is the layer name.
	Name string
	// MACs, Adds, Compares, ActEvals are datapath event counts.
	MACs, Adds, Compares, ActEvals float64
	// WeightReads, InputReads, OutputWrites are SRAM word transfers.
	WeightReads, InputReads, OutputWrites float64
}

// AnalyzeLayer derives the activity of one layer from its shape. The
// mapping assumes a direct (no-reuse) dataflow: each MAC fetches one weight
// word and one activation word; results are written once. Real accelerators
// exploit reuse, but the *same* mapping is applied to every design point,
// which is what relative energy claims require.
func AnalyzeLayer(l nn.Layer, inShape []int) LayerActivity {
	out := l.OutShape(inShape)
	outN := 1
	for _, d := range out {
		outN *= d
	}
	a := LayerActivity{Name: l.Name()}
	switch t := l.(type) {
	case *nn.Conv2D:
		macs := float64(outN * t.InChannels() * t.KernelSize() * t.KernelSize())
		a.MACs = macs
		a.Adds = float64(outN) // bias
		a.WeightReads = macs
		a.InputReads = macs
		a.OutputWrites = float64(outN)
	case *nn.Dense:
		macs := float64(t.In() * t.Out())
		a.MACs = macs
		a.Adds = float64(t.Out())
		a.WeightReads = macs
		a.InputReads = macs
		a.OutputWrites = float64(t.Out())
	case *nn.MaxPool2D:
		win := float64(t.Window() * t.Window())
		a.Compares = float64(outN) * (win - 1)
		a.InputReads = float64(outN) * win
		a.OutputWrites = float64(outN)
	case *nn.Sigmoid:
		a.ActEvals = float64(outN)
		a.InputReads = float64(outN)
		a.OutputWrites = float64(outN)
	case *nn.Flatten:
		// pure re-indexing: free in hardware (address generation)
	default:
		panic(fmt.Sprintf("hw: unknown layer type %T", l))
	}
	return a
}

// AnalyzeNetwork itemizes every layer of the network.
func AnalyzeNetwork(net *nn.Network) []LayerActivity {
	shape := append([]int(nil), net.InShape...)
	acts := make([]LayerActivity, 0, len(net.Layers))
	for _, l := range net.Layers {
		acts = append(acts, AnalyzeLayer(l, shape))
		shape = l.OutShape(shape)
	}
	return acts
}

// LinearClassifierActivity returns the activity of one CDL stage
// classifier: a dense in→out layer plus out sigmoid evaluations.
func LinearClassifierActivity(in, out int) LayerActivity {
	macs := float64(in * out)
	return LayerActivity{
		Name:         "LC",
		MACs:         macs,
		Adds:         float64(out),
		ActEvals:     float64(out),
		WeightReads:  macs,
		InputReads:   macs,
		OutputWrites: float64(out),
	}
}
