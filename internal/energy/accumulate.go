package energy

import (
	"fmt"

	"cdl/internal/core"
)

// Accumulator aggregates 45 nm energy incrementally, one ExitRecord at a
// time, instead of summarizing a whole EvalResult after the fact: a caller
// that classifies inputs one call at a time (the benchmark's per-record
// ruler) feeds it every classified input and can read a Summary at any
// moment without retaining per-sample records. A server derives the same
// figures from its exit counts instead (serve's /statsz: count × exit
// price, summed in exit order when read), so it never sums in arrival
// order.
//
// Per-class attribution uses the record's *predicted* label — at serving
// time the true label is unknown. FromEval, which sees labelled
// evaluations, attributes by true label; the aggregate (mean, per-exit)
// numbers agree between the two.
//
// An Accumulator is not safe for concurrent use.
type Accumulator struct {
	exits    []float64 // pJ of exiting at each exit point
	baseline float64   // pJ of one full baseline pass
	classes  int

	count     int64
	total     float64 // summed pJ over all inputs
	perClass  []float64
	perClassN []int64
}

// NewAccumulator validates the accelerator and the CDLN and precomputes
// its exit energies so Add is O(1) per record.
func (e Evaluator) NewAccumulator(c *core.CDLN) (*Accumulator, error) {
	if err := e.Acc.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	classes := c.Arch.NumClasses
	return &Accumulator{
		exits:     e.ExitEnergies(c),
		baseline:  e.BaselineEnergy(c),
		classes:   classes,
		perClass:  make([]float64, classes),
		perClassN: make([]int64, classes),
	}, nil
}

// Add charges one classified input to the counters. Records with an exit
// index or label outside the model the accumulator was built for are
// rejected.
func (a *Accumulator) Add(rec core.ExitRecord) error {
	if rec.StageIndex < 0 || rec.StageIndex >= len(a.exits) {
		return fmt.Errorf("energy: exit index %d outside [0,%d)", rec.StageIndex, len(a.exits))
	}
	if rec.Label < 0 || rec.Label >= a.classes {
		return fmt.Errorf("energy: label %d outside [0,%d)", rec.Label, a.classes)
	}
	pj := a.exits[rec.StageIndex]
	a.count++
	a.total += pj
	a.perClass[rec.Label] += pj
	a.perClassN[rec.Label]++
	return nil
}

// Summary snapshots the counters in the same shape FromEval produces
// (per-class means keyed by predicted label; see type doc).
func (a *Accumulator) Summary() Summary {
	s := Summary{
		BaselineEnergy: a.baseline,
		PerClassMean:   make([]float64, a.classes),
		ExitEnergies:   append([]float64(nil), a.exits...),
	}
	if a.count > 0 {
		s.MeanEnergy = a.total / float64(a.count)
	}
	for c := range s.PerClassMean {
		if a.perClassN[c] > 0 {
			s.PerClassMean[c] = a.perClass[c] / float64(a.perClassN[c])
		}
	}
	return s
}
