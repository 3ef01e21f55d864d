// Package nn stubs the layer abstraction: the Layer surface plus two
// fixture implementations exercising the exhaustive analyzer.
package nn

// Layer is the minimal layer surface.
type Layer interface {
	Name() string
	Forward(x []float64) []float64
	ForwardBatch(xs [][]float64) [][]float64
}

// Good implements Layer and has an opcount.LayerOps case.
type Good struct{}

// Name implements Layer.
func (*Good) Name() string { return "good" }

// Forward implements Layer.
func (*Good) Forward(x []float64) []float64 { return x }

// ForwardBatch implements Layer.
func (*Good) ForwardBatch(xs [][]float64) [][]float64 { return xs }

// NoOps implements Layer but is missing from opcount.LayerOps.
type NoOps struct{} // want:exhaustive "NoOps implements nn.Layer but is not handled in opcount.LayerOps"

// Name implements Layer.
func (*NoOps) Name() string { return "noops" }

// Forward implements Layer.
func (*NoOps) Forward(x []float64) []float64 { return x }

// ForwardBatch implements Layer.
func (*NoOps) ForwardBatch(xs [][]float64) [][]float64 { return xs }
