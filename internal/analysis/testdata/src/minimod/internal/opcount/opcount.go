// Package opcount stubs the op-accounting surface: LayerOps's type switch
// is the exhaustiveness target.
package opcount

import "cdl/internal/nn"

// LayerOps costs one layer; the type switch must cover every Layer
// implementation in the module.
func LayerOps(l nn.Layer) float64 {
	switch l.(type) {
	case *nn.Good:
		return 1
	default:
		panic("opcount: unknown layer")
	}
}
