package energy

import (
	"fmt"

	"cdl/internal/core"
)

// Accumulator aggregates 45 nm energy incrementally, one ExitRecord at a
// time, instead of summarizing a whole EvalResult after the fact. It is the
// serving-path counterpart of Evaluator.FromEval: a long-running server
// feeds it every classified input and can read a Summary at any moment
// without retaining per-sample records.
//
// Per-class attribution uses the record's *predicted* label — at serving
// time the true label is unknown. FromEval, which sees labelled
// evaluations, attributes by true label; the aggregate (mean, total,
// per-exit) numbers agree between the two.
//
// An Accumulator is not safe for concurrent use; shard per worker and
// Merge, or guard with a lock.
type Accumulator struct {
	exits    []float64 // pJ of exiting at each exit point
	baseline float64   // pJ of one full baseline pass
	classes  int

	count     int64
	total     float64 // summed pJ over all inputs
	perExit   []int64
	perClass  []float64
	perClassN []int64
}

// NewAccumulator validates the accelerator and precomputes the CDLN's exit
// energies so Add is O(1) per record.
func (e Evaluator) NewAccumulator(c *core.CDLN) (*Accumulator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return e.NewGraphAccumulator(core.LinearGraph(c))
}

// NewGraphAccumulator is NewAccumulator for a routing graph: per-exit
// tables are sized and costed by the graph's global exit numbering
// (Graph.NumExits / GraphExitEnergies), so branch exits accumulate their
// whole-path energy. Labels are in the trunk's class space (branch records
// carry mapped labels), and the baseline is the trunk's unconditioned
// pass — the same normalization denominator the linear accounting uses.
func (e Evaluator) NewGraphAccumulator(g *core.Graph) (*Accumulator, error) {
	if err := e.Acc.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	classes := g.Trunk().Arch.NumClasses
	return &Accumulator{
		exits:     e.GraphExitEnergies(g),
		baseline:  e.BaselineEnergy(g.Trunk()),
		classes:   classes,
		perExit:   make([]int64, g.NumExits()),
		perClass:  make([]float64, classes),
		perClassN: make([]int64, classes),
	}, nil
}

// NewSplitAccumulator is NewGraphAccumulator for g deployed split as tc
// describes: each exit is charged its whole-system energy,
// tc.ExitEnergies(wireBytes), link transfer included.
func (e Evaluator) NewSplitAccumulator(g *core.Graph, tc *TierCosts, wireBytes []int) (*Accumulator, error) {
	a, err := e.NewGraphAccumulator(g)
	if err != nil {
		return nil, err
	}
	a.exits = tc.ExitEnergies(wireBytes)
	return a, nil
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
	a.perExit[rec.StageIndex]++
	a.perClass[rec.Label] += pj
	a.perClassN[rec.Label]++
	return nil
}

// Merge folds another accumulator's counters into this one. Both must have
// been built for the same CDLN/accelerator pair.
func (a *Accumulator) Merge(b *Accumulator) error {
	if len(a.exits) != len(b.exits) || a.classes != b.classes {
		return fmt.Errorf("energy: merging accumulators of different shapes (%d/%d exits, %d/%d classes)",
			len(a.exits), len(b.exits), a.classes, b.classes)
	}
	a.count += b.count
	a.total += b.total
	for i := range a.perExit {
		a.perExit[i] += b.perExit[i]
	}
	for c := range a.perClass {
		a.perClass[c] += b.perClass[c]
		a.perClassN[c] += b.perClassN[c]
	}
	return nil
}

// Count returns the number of inputs charged so far.
func (a *Accumulator) Count() int64 { return a.count }

// TotalEnergy returns the summed pJ over all inputs charged so far.
func (a *Accumulator) TotalEnergy() float64 { return a.total }

// MeanEnergy returns the mean pJ per charged input (0 before any Add) —
// the windowless counterpart of the telemetry the SLO controller's energy
// target is evaluated against.
func (a *Accumulator) MeanEnergy() float64 {
	if a.count == 0 {
		return 0
	}
	return a.total / float64(a.count)
}

// ExitEnergy returns the pJ cost of exit point i.
func (a *Accumulator) ExitEnergy(i int) float64 { return a.exits[i] }

// ExitCounts returns a copy of the per-exit input counts.
func (a *Accumulator) ExitCounts() []int64 {
	return append([]int64(nil), a.perExit...)
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
