package experiments

import (
	"fmt"
	"strings"

	"cdl/internal/core"
	"cdl/internal/stats"
)

// RobustnessRow is one seed's headline results for the 8-layer pipeline.
type RobustnessRow struct {
	Seed          int64
	BaselineAcc   float64
	CDLNAcc       float64
	NormalizedOps float64
}

// RobustnessResult replicates the MNIST_3C headline across independent
// seeds (fresh dataset, fresh initialization, fresh training), answering
// the question the reproduced claims (DESIGN.md §5) hang on: do the
// qualitative results survive resampling, or did one lucky seed produce
// them?
type RobustnessResult struct {
	Rows []RobustnessRow
	// AccGain summarizes CDLN − baseline accuracy across seeds.
	AccGain stats.Summary
	// NormOps summarizes normalized OPS across seeds.
	NormOps stats.Summary
}

// Robustness runs the full 8-layer pipeline once per seed. Each seed costs
// a complete baseline training run, so callers choose the seed count to
// match their time budget (cmd/cdlexp exposes -robust N).
func Robustness(base Config, seeds []int64) (*RobustnessResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: no seeds")
	}
	r := &RobustnessResult{}
	var gains, ops []float64
	for _, seed := range seeds {
		cfg := base
		cfg.Seed = seed
		ctx := NewContext(cfg)
		arch, err := ctx.Arch8()
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		cdln, _, err := ctx.MNIST3C()
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		_, testS, err := ctx.Data()
		if err != nil {
			return nil, err
		}
		baseAcc := evalBaseline(arch, testS, cfg.Workers).Accuracy()
		res, err := core.Evaluate(cdln, testS, cfg.Workers, false)
		if err != nil {
			return nil, err
		}
		row := RobustnessRow{
			Seed:          seed,
			BaselineAcc:   baseAcc,
			CDLNAcc:       res.Confusion.Accuracy(),
			NormalizedOps: res.NormalizedOps(),
		}
		r.Rows = append(r.Rows, row)
		gains = append(gains, row.CDLNAcc-row.BaselineAcc)
		ops = append(ops, row.NormalizedOps)
	}
	r.AccGain = stats.Summarize(gains)
	r.NormOps = stats.Summarize(ops)
	return r, nil
}

// String renders the replicate table.
func (r *RobustnessResult) String() string {
	var b strings.Builder
	b.WriteString("Robustness across seeds (8-layer / MNIST_3C)\n")
	b.WriteString("seed   baseline   CDLN      Δacc      norm OPS\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-5d   %.4f    %.4f   %+.4f    %.3f\n",
			row.Seed, row.BaselineAcc, row.CDLNAcc, row.CDLNAcc-row.BaselineAcc, row.NormalizedOps)
	}
	fmt.Fprintf(&b, "accuracy gain: mean %+.4f ± %.4f | normalized OPS: mean %.3f ± %.3f\n",
		r.AccGain.Mean, r.AccGain.Std, r.NormOps.Mean, r.NormOps.Std)
	return b.String()
}
