package experiments

import (
	"fmt"
	"strings"

	"cdl/internal/core"
	"cdl/internal/mnist"
	"cdl/internal/nn"
	"cdl/internal/stats"
	"cdl/internal/train"
)

// TableI renders the 6-layer baseline architecture exactly as specified by
// the paper's Table I.
func TableI(ctx *Context) (string, error) {
	arch, err := ctx.Arch6()
	if err != nil {
		return "", err
	}
	return "Table I — 6-layer DLN (baseline of MNIST_2C)\n" + arch.Net.Summary(), nil
}

// TableII renders the 8-layer baseline architecture (paper Table II).
func TableII(ctx *Context) (string, error) {
	arch, err := ctx.Arch8()
	if err != nil {
		return "", err
	}
	return "Table II — 8-layer DLN (baseline of MNIST_3C)\n" + arch.Net.Summary(), nil
}

// TableIIIResult reproduces Table III: overall accuracy of both baselines
// and both CDLNs on the test set.
type TableIIIResult struct {
	Baseline6, CDLN2C float64
	Baseline8, CDLN3C float64
}

// TableIII measures the four accuracies.
func TableIII(ctx *Context) (*TableIIIResult, error) {
	arch6, err := ctx.Arch6()
	if err != nil {
		return nil, err
	}
	arch8, err := ctx.Arch8()
	if err != nil {
		return nil, err
	}
	cdln2, _, err := ctx.MNIST2C()
	if err != nil {
		return nil, err
	}
	cdln3, _, err := ctx.MNIST3C()
	if err != nil {
		return nil, err
	}
	_, testS, err := ctx.Data()
	if err != nil {
		return nil, err
	}
	r := &TableIIIResult{}
	r.Baseline6 = evalBaseline(arch6, testS, ctx.Cfg.Workers).Accuracy()
	r.Baseline8 = evalBaseline(arch8, testS, ctx.Cfg.Workers).Accuracy()
	res2, err := core.Evaluate(cdln2, testS, ctx.Cfg.Workers, false)
	if err != nil {
		return nil, err
	}
	r.CDLN2C = res2.Confusion.Accuracy()
	res3, err := core.Evaluate(cdln3, testS, ctx.Cfg.Workers, false)
	if err != nil {
		return nil, err
	}
	r.CDLN3C = res3.Confusion.Accuracy()
	return r, nil
}

// String renders the accuracy table.
func (r *TableIIIResult) String() string {
	var b strings.Builder
	b.WriteString("Table III — Accuracy for 6-layer and 8-layer networks\n")
	b.WriteString("network    baseline    CDLN\n")
	fmt.Fprintf(&b, "6-layer    %7.4f    %7.4f (MNIST_2C, %+.2f%%)\n",
		r.Baseline6, r.CDLN2C, 100*(r.CDLN2C-r.Baseline6))
	fmt.Fprintf(&b, "8-layer    %7.4f    %7.4f (MNIST_3C, %+.2f%%)\n",
		r.Baseline8, r.CDLN3C, 100*(r.CDLN3C-r.Baseline8))
	return b.String()
}

// TableIVResult reproduces Table IV: example test images of the least- and
// most-difficult digits (1 and 5) classified correctly at each exit stage
// of MNIST_3C.
type TableIVResult struct {
	// Galleries[digit][exit] holds one correctly-classified example per
	// exit point, if any was found; nil entries mean no example exited
	// there.
	Galleries map[int][]*mnist.Image
	// ExitNames labels the gallery columns.
	ExitNames []string
	// Digits lists the gallery rows (paper: 1 and 5).
	Digits []int
}

// TableIV collects exemplar images per (digit, exit stage).
func TableIV(ctx *Context) (*TableIVResult, error) {
	cdln3, _, err := ctx.MNIST3C()
	if err != nil {
		return nil, err
	}
	_, testImgs, err := ctx.Images()
	if err != nil {
		return nil, err
	}
	_, testS, err := ctx.Data()
	if err != nil {
		return nil, err
	}
	res, err := core.Evaluate(cdln3, testS, ctx.Cfg.Workers, true)
	if err != nil {
		return nil, err
	}
	r := &TableIVResult{
		Galleries: map[int][]*mnist.Image{},
		ExitNames: res.ExitNames,
		Digits:    []int{1, 5},
	}
	for _, digit := range r.Digits {
		r.Galleries[digit] = make([]*mnist.Image, len(res.ExitNames))
		// Prefer the hardest (highest difficulty) correct exemplar per exit,
		// making the depth progression visible.
		for i := range testImgs {
			img := &testImgs[i]
			rec := res.Records[i]
			if img.Label != digit || rec.Label != digit {
				continue
			}
			cur := r.Galleries[digit][rec.StageIndex]
			if cur == nil || img.Difficulty > cur.Difficulty {
				r.Galleries[digit][rec.StageIndex] = img
			}
		}
	}
	return r, nil
}

// String renders the ASCII gallery.
func (r *TableIVResult) String() string {
	var b strings.Builder
	b.WriteString("Table IV — Example images classified at each stage (MNIST_3C)\n")
	for _, digit := range r.Digits {
		fmt.Fprintf(&b, "digit %d:\n", digit)
		var present []mnist.Image
		var labels []string
		for e, img := range r.Galleries[digit] {
			if img != nil {
				present = append(present, *img)
				labels = append(labels, fmt.Sprintf("%s (difficulty %.2f)", r.ExitNames[e], img.Difficulty))
			}
		}
		if len(present) == 0 {
			b.WriteString("  (no correct classifications)\n")
			continue
		}
		b.WriteString("  " + strings.Join(labels, " | ") + "\n")
		b.WriteString(mnist.RenderSideBySide(present, 4))
	}
	return b.String()
}

// GainReport summarizes Algorithm 1's admission decisions for both CDLNs —
// the §V.D narrative that the gain rule keeps O1 and O2 but rejects O3.
func GainReport(ctx *Context) (string, error) {
	_, rep2, err := ctx.MNIST2C()
	if err != nil {
		return "", err
	}
	_, rep3, err := ctx.MNIST3C()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Algorithm 1 gain-rule decisions (Eq. 1)\n")
	for _, entry := range []struct {
		name string
		rep  *core.Report
	}{{"MNIST_2C", rep2}, {"MNIST_3C", rep3}} {
		name, rep := entry.name, entry.rep
		fmt.Fprintf(&b, "%s (baseline %.0f ops):\n", name, rep.BaselineOps)
		for _, s := range rep.Stages {
			fmt.Fprintf(&b, "  %-3s reach=%-5d classify=%-5d lcAcc=%.3f gain=%8.1f ops/input admitted=%v\n",
				s.Name, s.Reaching, s.Classified, s.LCAccuracy, s.Gain, s.Admitted)
		}
	}
	return b.String(), nil
}

// evalBaseline measures plain-DLN accuracy with parallel replicas.
func evalBaseline(arch *nn.Arch, data []train.Sample, workers int) *stats.Confusion {
	return train.Evaluate(arch.Net, data, arch.NumClasses, workers)
}

// fcMisclassifiedFraction returns the fraction of all inputs that reached
// the final layer and were misclassified there.
func fcMisclassifiedFraction(res *core.EvalResult, data []train.Sample) float64 {
	if len(res.Records) == 0 {
		return 0
	}
	fcExit := len(res.ExitNames) - 1
	wrong := 0
	for i, rec := range res.Records {
		if rec.StageIndex == fcExit && rec.Label != data[i].Label {
			wrong++
		}
	}
	return float64(wrong) / float64(len(data))
}

// RunAll executes every experiment and renders them in paper order. It is
// the single entry point used by cmd/cdlexp and the benchmark harness.
func RunAll(ctx *Context) (string, error) {
	var b strings.Builder

	type step struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	t1, err := TableI(ctx)
	if err != nil {
		return "", err
	}
	t2, err := TableII(ctx)
	if err != nil {
		return "", err
	}
	b.WriteString(t1 + "\n" + t2 + "\n")

	steps := []step{
		{"Fig5", func() (fmt.Stringer, error) { return Fig5(ctx) }},
		{"Fig6", func() (fmt.Stringer, error) { return Fig6(ctx) }},
		{"TableIII", func() (fmt.Stringer, error) { return TableIII(ctx) }},
		{"Fig7", func() (fmt.Stringer, error) { return Fig7(ctx) }},
		{"Fig8", func() (fmt.Stringer, error) { return Fig8(ctx) }},
		{"Fig9", func() (fmt.Stringer, error) { return Fig9(ctx) }},
		{"Fig10", func() (fmt.Stringer, error) { return Fig10(ctx) }},
		{"TableIV", func() (fmt.Stringer, error) { return TableIV(ctx) }},
	}
	for _, s := range steps {
		r, err := s.run()
		if err != nil {
			return "", fmt.Errorf("experiments: %s: %w", s.name, err)
		}
		b.WriteString(r.String() + "\n")
	}
	gain, err := GainReport(ctx)
	if err != nil {
		return "", err
	}
	b.WriteString(gain)
	return b.String(), nil
}
