package experiments

import (
	"fmt"
	"strings"

	"cdl/internal/core"
	"cdl/internal/fixed"
)

// Ablations probe the design choices DESIGN.md calls out: the activation
// module's decision rule, Algorithm 1's passed-only training policy, and
// the fixed-point precision of a hardware deployment. None of these are
// paper figures; they are the sensitivity analyses a downstream user needs
// before changing a default.

// AblationRuleRow is one exit rule's best operating point over a δ sweep.
type AblationRuleRow struct {
	Rule          string
	BestDelta     float64
	Accuracy      float64
	NormalizedOps float64
}

// AblationRulesResult compares the paper's threshold rule against margin
// and entropy gating at each rule's own accuracy-optimal δ.
type AblationRulesResult struct {
	Rows []AblationRuleRow
}

// AblationRules evaluates each rule over a δ grid on MNIST_3C and keeps
// its accuracy-maximal setting (ties toward fewer ops), making the
// comparison fair even though the three confidence scales differ.
func AblationRules(ctx *Context) (*AblationRulesResult, error) {
	cdln3, _, err := ctx.MNIST3C()
	if err != nil {
		return nil, err
	}
	_, testS, err := ctx.Data()
	if err != nil {
		return nil, err
	}
	rules := []core.ExitRule{core.ThresholdRule{}, core.MarginRule{}, core.EntropyRule{}}
	r := &AblationRulesResult{}
	for _, rule := range rules {
		sweep := cdln3.Clone()
		sweep.Rule = rule
		best := AblationRuleRow{Rule: rule.Name(), NormalizedOps: 1e18}
		for d := 0.10; d <= 0.951; d += 0.05 {
			sweep.Delta = d
			res, err := core.Evaluate(sweep, testS, ctx.Cfg.Workers, false)
			if err != nil {
				return nil, err
			}
			acc, ops := res.Confusion.Accuracy(), res.NormalizedOps()
			if acc > best.Accuracy || (acc == best.Accuracy && ops < best.NormalizedOps) {
				best = AblationRuleRow{Rule: rule.Name(), BestDelta: d, Accuracy: acc, NormalizedOps: ops}
			}
		}
		r.Rows = append(r.Rows, best)
	}
	return r, nil
}

// String renders the comparison.
func (r *AblationRulesResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — exit rules at each rule's best δ (MNIST_3C)\n")
	b.WriteString("rule        best δ   accuracy   norm OPS\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s   %.2f    %.4f     %.3f\n", row.Rule, row.BestDelta, row.Accuracy, row.NormalizedOps)
	}
	return b.String()
}

// AblationLCDataResult compares Algorithm 1's passed-only stage training
// against training every stage on the full dataset.
type AblationLCDataResult struct {
	PassedOnlyAcc, PassedOnlyOps float64
	AllDataAcc, AllDataOps       float64
}

// AblationLCData rebuilds the 8-layer cascade under both policies.
func AblationLCData(ctx *Context) (*AblationLCDataResult, error) {
	arch, err := ctx.Arch8()
	if err != nil {
		return nil, err
	}
	trainS, testS, err := ctx.Data()
	if err != nil {
		return nil, err
	}
	r := &AblationLCDataResult{}
	for _, allData := range []bool{false, true} {
		bcfg := ctx.buildConfig()
		bcfg.ForceAllStages = true
		bcfg.MaxStages = 2
		bcfg.TrainLCOnAllData = allData
		cdln, _, err := core.Build(arch, trainS, bcfg)
		if err != nil {
			return nil, err
		}
		res, err := core.Evaluate(cdln, testS, ctx.Cfg.Workers, false)
		if err != nil {
			return nil, err
		}
		if allData {
			r.AllDataAcc, r.AllDataOps = res.Confusion.Accuracy(), res.NormalizedOps()
		} else {
			r.PassedOnlyAcc, r.PassedOnlyOps = res.Confusion.Accuracy(), res.NormalizedOps()
		}
	}
	return r, nil
}

// String renders the comparison.
func (r *AblationLCDataResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — stage-classifier training data (MNIST_3C, O1-O2-FC)\n")
	fmt.Fprintf(&b, "passed-only (Algorithm 1): accuracy %.4f, norm OPS %.3f\n", r.PassedOnlyAcc, r.PassedOnlyOps)
	fmt.Fprintf(&b, "full dataset             : accuracy %.4f, norm OPS %.3f\n", r.AllDataAcc, r.AllDataOps)
	return b.String()
}

// AblationQuantRow is one fixed-point format's deployment cost.
type AblationQuantRow struct {
	Format        string
	Accuracy      float64
	NormalizedOps float64
	MaxRoundErr   float64
}

// AblationQuantResult sweeps datapath precision for the MNIST_3C cascade.
type AblationQuantResult struct {
	FloatAccuracy float64
	Rows          []AblationQuantRow
}

// AblationQuantization quantizes the trained cascade to progressively
// coarser Qm.n formats and measures test accuracy — the check a hardware
// team runs before freezing the RTL datapath width.
func AblationQuantization(ctx *Context) (*AblationQuantResult, error) {
	cdln3, _, err := ctx.MNIST3C()
	if err != nil {
		return nil, err
	}
	_, testS, err := ctx.Data()
	if err != nil {
		return nil, err
	}
	float, err := core.Evaluate(cdln3, testS, ctx.Cfg.Workers, false)
	if err != nil {
		return nil, err
	}
	r := &AblationQuantResult{FloatAccuracy: float.Confusion.Accuracy()}
	formats := []fixed.Format{
		{IntBits: 2, FracBits: 13}, // 16-bit, the Tech45nm default
		{IntBits: 2, FracBits: 9},  // 12-bit
		{IntBits: 2, FracBits: 5},  // 8-bit
		{IntBits: 2, FracBits: 3},  // 6-bit
	}
	for _, f := range formats {
		q, maxErr, err := core.QuantizeCDLN(cdln3, f)
		if err != nil {
			return nil, err
		}
		res, err := core.Evaluate(q, testS, ctx.Cfg.Workers, false)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, AblationQuantRow{
			Format:        f.String(),
			Accuracy:      res.Confusion.Accuracy(),
			NormalizedOps: res.NormalizedOps(),
			MaxRoundErr:   maxErr,
		})
	}
	return r, nil
}

// String renders the sweep.
func (r *AblationQuantResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — fixed-point datapath precision (MNIST_3C)\n")
	fmt.Fprintf(&b, "float64 reference accuracy: %.4f\n", r.FloatAccuracy)
	b.WriteString("format   accuracy   norm OPS   max rounding err\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-7s  %.4f     %.3f      %.2e\n", row.Format, row.Accuracy, row.NormalizedOps, row.MaxRoundErr)
	}
	return b.String()
}

// AblationTunedDeltas compares the paper's single global δ against the
// per-stage thresholds found by core.TuneDeltas (a beyond-paper
// extension).
type AblationTunedDeltasResult struct {
	GlobalAcc, GlobalOps float64
	TunedAcc, TunedOps   float64
	TunedDeltas          []float64
}

// AblationTunedDeltas tunes per-stage thresholds on the training set and
// evaluates both settings on the test set.
func AblationTunedDeltas(ctx *Context) (*AblationTunedDeltasResult, error) {
	cdln3, _, err := ctx.MNIST3C()
	if err != nil {
		return nil, err
	}
	trainS, testS, err := ctx.Data()
	if err != nil {
		return nil, err
	}
	global, err := core.Evaluate(cdln3, testS, ctx.Cfg.Workers, false)
	if err != nil {
		return nil, err
	}
	tuned := cdln3.Clone()
	deltas, _, err := core.TuneDeltas(tuned, trainS, ctx.Cfg.Workers)
	if err != nil {
		return nil, err
	}
	after, err := core.Evaluate(tuned, testS, ctx.Cfg.Workers, false)
	if err != nil {
		return nil, err
	}
	return &AblationTunedDeltasResult{
		GlobalAcc: global.Confusion.Accuracy(), GlobalOps: global.NormalizedOps(),
		TunedAcc: after.Confusion.Accuracy(), TunedOps: after.NormalizedOps(),
		TunedDeltas: deltas,
	}, nil
}

// String renders the comparison.
func (r *AblationTunedDeltasResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — global δ vs per-stage tuned δ (MNIST_3C)\n")
	fmt.Fprintf(&b, "global δ : accuracy %.4f, norm OPS %.3f\n", r.GlobalAcc, r.GlobalOps)
	fmt.Fprintf(&b, "tuned δ %v: accuracy %.4f, norm OPS %.3f\n", r.TunedDeltas, r.TunedAcc, r.TunedOps)
	return b.String()
}

// RunAblations executes every ablation and renders them in sequence.
func RunAblations(ctx *Context) (string, error) {
	var b strings.Builder
	rules, err := AblationRules(ctx)
	if err != nil {
		return "", fmt.Errorf("experiments: ablation rules: %w", err)
	}
	b.WriteString(rules.String() + "\n")
	lcdata, err := AblationLCData(ctx)
	if err != nil {
		return "", fmt.Errorf("experiments: ablation lc data: %w", err)
	}
	b.WriteString(lcdata.String() + "\n")
	quant, err := AblationQuantization(ctx)
	if err != nil {
		return "", fmt.Errorf("experiments: ablation quantization: %w", err)
	}
	b.WriteString(quant.String() + "\n")
	tuned, err := AblationTunedDeltas(ctx)
	if err != nil {
		return "", fmt.Errorf("experiments: ablation tuned deltas: %w", err)
	}
	b.WriteString(tuned.String())
	return b.String(), nil
}
