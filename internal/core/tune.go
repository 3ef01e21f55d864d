package core

import (
	"fmt"

	"cdl/internal/train"
)

// Per-stage thresholds are an extension beyond the paper, which uses one
// global δ: the paper's own Fig. 4 discussion implies different stages
// have different confidence profiles, so letting each stage carry its own
// threshold recovers accuracy the single knob leaves on the table.
//
// A CDLN uses StageDeltas[i] for stage i when StageDeltas is non-nil;
// otherwise every stage uses Delta.

// TuneDeltas sweeps each stage's δ over 0.30, 0.35, …, 0.90 (the bound's
// extra 0.001 absorbs the running sum's rounding).
const (
	tuneGridLo   = 0.30
	tuneGridHi   = 0.901
	tuneGridStep = 0.05
)

// TuneDeltas greedily assigns a per-stage threshold by sweeping each
// stage's δ over the grid (deepest stage last), keeping the value that
// maximizes validation accuracy and breaking ties toward lower OPS. It
// returns the chosen thresholds and the final validation result; the CDLN
// is updated in place with StageDeltas set. workers bounds evaluation
// parallelism.
func TuneDeltas(c *CDLN, val []train.Sample, workers int) ([]float64, *EvalResult, error) {
	if len(val) == 0 {
		return nil, nil, fmt.Errorf("core: empty validation set")
	}
	if len(c.Stages) == 0 {
		res, err := Evaluate(c, val, workers, false)
		return nil, res, err
	}

	deltas := make([]float64, len(c.Stages))
	for i := range deltas {
		deltas[i] = c.Delta
	}
	c.StageDeltas = deltas

	best, err := Evaluate(c, val, workers, false)
	if err != nil {
		return nil, nil, err
	}
	for si := range c.Stages {
		bestDelta := deltas[si]
		for d := tuneGridLo; d <= tuneGridHi; d += tuneGridStep {
			deltas[si] = d
			res, err := Evaluate(c, val, workers, false)
			if err != nil {
				return nil, nil, err
			}
			better := res.Confusion.Accuracy() > best.Confusion.Accuracy()
			tie := res.Confusion.Accuracy() == best.Confusion.Accuracy() &&
				res.NormalizedOps() < best.NormalizedOps()
			if better || tie {
				best = res
				bestDelta = d
			}
		}
		deltas[si] = bestDelta
	}
	return deltas, best, nil
}
