package experiments_test

// One benchmark per table and figure of the paper (see DESIGN.md §5 for the
// experiment index). Each benchmark regenerates its result from the shared
// paper-scale context (trained once per `go test -bench` process) and
// reports the headline numbers as custom benchmark metrics, so
// `go test -bench=. -benchmem` both times the experiment and prints the
// reproduced values.

import (
	"math/rand"
	"sync"
	"testing"

	"cdl/internal/core"
	"cdl/internal/experiments"
	"cdl/internal/mnist"
	"cdl/internal/nn"
	"cdl/internal/tensor"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
)

// benchContext trains the paper-scale models once per process.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx = experiments.NewContext(experiments.DefaultConfig())
	})
	return benchCtx
}

// BenchmarkTableI_Arch6 times one forward pass of the Table I baseline and
// reports its parameter count.
func BenchmarkTableI_Arch6(b *testing.B) {
	ctx := benchContext(b)
	arch, err := ctx.Arch6()
	if err != nil {
		b.Fatal(err)
	}
	_, testS, err := ctx.Data()
	if err != nil {
		b.Fatal(err)
	}
	net := arch.Net.Clone()
	b.ReportMetric(float64(net.NumParams()), "params")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(testS[i%len(testS)].X)
	}
}

// BenchmarkTableII_Arch8 times one forward pass of the Table II baseline.
func BenchmarkTableII_Arch8(b *testing.B) {
	ctx := benchContext(b)
	arch, err := ctx.Arch8()
	if err != nil {
		b.Fatal(err)
	}
	_, testS, err := ctx.Data()
	if err != nil {
		b.Fatal(err)
	}
	net := arch.Net.Clone()
	b.ReportMetric(float64(net.NumParams()), "params")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(testS[i%len(testS)].X)
	}
}

// BenchmarkFig5_NormalizedOPS regenerates Fig. 5 (normalized OPS per digit)
// and reports both networks' average improvements.
func BenchmarkFig5_NormalizedOPS(b *testing.B) {
	ctx := benchContext(b)
	var r *experiments.Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig5(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgImp2C, "improve2C_x")
	b.ReportMetric(r.AvgImp3C, "improve3C_x")
	b.ReportMetric(float64(r.BestDigit), "bestDigit")
}

// BenchmarkFig6_Energy regenerates Fig. 6 (normalized energy per digit).
func BenchmarkFig6_Energy(b *testing.B) {
	ctx := benchContext(b)
	var r *experiments.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig6(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgImp2C, "energy2C_x")
	b.ReportMetric(r.AvgImp3C, "energy3C_x")
}

// BenchmarkTableIII_Accuracy regenerates Table III (baseline vs CDLN
// accuracy for both architectures).
func BenchmarkTableIII_Accuracy(b *testing.B) {
	ctx := benchContext(b)
	var r *experiments.TableIIIResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.TableIII(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Baseline6, "base6_acc")
	b.ReportMetric(r.CDLN2C, "cdln2C_acc")
	b.ReportMetric(r.Baseline8, "base8_acc")
	b.ReportMetric(r.CDLN3C, "cdln3C_acc")
}

// BenchmarkFig7_AccuracyVsStages regenerates Fig. 7 (accuracy as output
// layers are added one at a time).
func BenchmarkFig7_AccuracyVsStages(b *testing.B) {
	ctx := benchContext(b)
	var r *experiments.Fig7Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig7(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Points[0].Accuracy, "acc_baseline")
	b.ReportMetric(r.Points[len(r.Points)-1].Accuracy, "acc_3stages")
}

// BenchmarkFig8_DifficultyEnergy regenerates Fig. 8 (energy benefit vs
// input difficulty with FC activation fractions).
func BenchmarkFig8_DifficultyEnergy(b *testing.B) {
	ctx := benchContext(b)
	var r *experiments.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig8(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.EasiestDigit), "easiestDigit")
	b.ReportMetric(float64(r.HardestDigit), "hardestDigit")
	b.ReportMetric(r.MinImprovement, "minImprove_x")
}

// BenchmarkFig9_StageSweep regenerates Fig. 9 (normalized OPS vs number of
// stages, the break-even curve).
func BenchmarkFig9_StageSweep(b *testing.B) {
	ctx := benchContext(b)
	var r *experiments.Fig9Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig9(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.BestStages), "bestStages")
	b.ReportMetric(r.BestNormalizedOps, "bestNormOPS")
}

// BenchmarkFig10_DeltaSweep regenerates Fig. 10 (efficiency–accuracy
// trade-off over δ).
func BenchmarkFig10_DeltaSweep(b *testing.B) {
	ctx := benchContext(b)
	var r *experiments.Fig10Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig10(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.BestDelta, "bestDelta")
	b.ReportMetric(r.BestAccuracy, "bestAcc")
}

// BenchmarkTableIV_ExitGallery regenerates Table IV (exemplar digits per
// exit stage).
func BenchmarkTableIV_ExitGallery(b *testing.B) {
	ctx := benchContext(b)
	var r *experiments.TableIVResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.TableIV(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	found := 0
	for _, digit := range r.Digits {
		for _, img := range r.Galleries[digit] {
			if img != nil {
				found++
			}
		}
	}
	b.ReportMetric(float64(found), "exemplars")
}

// BenchmarkGainRule times Algorithm 1's stage-admission decision (Eq. 1)
// by rebuilding the MNIST_3C cascade report.
func BenchmarkGainRule(b *testing.B) {
	ctx := benchContext(b)
	_, rep, err := ctx.MNIST3C()
	if err != nil {
		b.Fatal(err)
	}
	admitted := 0
	for _, s := range rep.Stages {
		if s.Admitted {
			admitted++
		}
	}
	b.ReportMetric(float64(admitted), "stagesAdmitted")
	b.ReportMetric(float64(len(rep.Stages)), "stagesConsidered")
	for i := 0; i < b.N; i++ {
		if _, _, err := ctx.BuildSweepCDLN(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRules compares the three activation-module rules at
// their per-rule best δ (design-choice ablation from DESIGN.md).
func BenchmarkAblationRules(b *testing.B) {
	ctx := benchContext(b)
	var r *experiments.AblationRulesResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.AblationRules(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Rows {
		b.ReportMetric(row.Accuracy, row.Rule+"_acc")
	}
}

// BenchmarkAblationQuantization sweeps fixed-point datapath precision.
func BenchmarkAblationQuantization(b *testing.B) {
	ctx := benchContext(b)
	var r *experiments.AblationQuantResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.AblationQuantization(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.FloatAccuracy, "float_acc")
	b.ReportMetric(r.Rows[0].Accuracy, "q2_13_acc")
	b.ReportMetric(r.Rows[len(r.Rows)-1].Accuracy, "coarsest_acc")
}

// BenchmarkAblationLCData compares Algorithm 1's passed-only stage
// training against full-dataset training.
func BenchmarkAblationLCData(b *testing.B) {
	ctx := benchContext(b)
	var r *experiments.AblationLCDataResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.AblationLCData(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PassedOnlyAcc, "passedOnly_acc")
	b.ReportMetric(r.AllDataAcc, "allData_acc")
}

// BenchmarkCDLNClassifyEasy times Algorithm 2 on an input that exits at
// stage 1 — the common case whose cost the whole paper is about.
func BenchmarkCDLNClassifyEasy(b *testing.B) {
	ctx := benchContext(b)
	cdln, _, err := ctx.MNIST3C()
	if err != nil {
		b.Fatal(err)
	}
	_, testS, err := ctx.Data()
	if err != nil {
		b.Fatal(err)
	}
	replica := cdln.Clone()
	// Find an input that exits at O1 and one that reaches FC.
	easy := -1
	for i := range testS {
		if rec := replica.Classify(testS[i].X); rec.StageIndex == 0 {
			easy = i
			break
		}
	}
	if easy < 0 {
		b.Skip("no early-exit input found")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replica.Classify(testS[easy].X)
	}
}

// BenchmarkCDLNClassifyHard times Algorithm 2 on an input that travels the
// whole cascade.
func BenchmarkCDLNClassifyHard(b *testing.B) {
	ctx := benchContext(b)
	cdln, _, err := ctx.MNIST3C()
	if err != nil {
		b.Fatal(err)
	}
	_, testS, err := ctx.Data()
	if err != nil {
		b.Fatal(err)
	}
	replica := cdln.Clone()
	hard := -1
	fc := len(replica.Stages)
	for i := range testS {
		if rec := replica.Classify(testS[i].X); rec.StageIndex == fc {
			hard = i
			break
		}
	}
	if hard < 0 {
		b.Skip("no full-depth input found")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replica.Classify(testS[hard].X)
	}
}

// BenchmarkClassifyClonePerCall is the serving anti-pattern the session API
// replaces: clone a replica per request, then classify once. Compare
// against BenchmarkClassifySession — the gap is the per-request cost of
// Clone (fresh cache and gradient buffers for every layer) plus the
// per-call ExitOps/score allocations inside Classify.
func BenchmarkClassifyClonePerCall(b *testing.B) {
	ctx := benchContext(b)
	cdln, _, err := ctx.MNIST3C()
	if err != nil {
		b.Fatal(err)
	}
	_, testS, err := ctx.Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replica := cdln.Clone()
		replica.Classify(testS[i%len(testS)].X)
	}
}

// BenchmarkClassifySession is the pooled serving path: one warm
// core.Session (pre-cloned replica, precomputed exit costs, reused score
// buffers) classifying request after request.
func BenchmarkClassifySession(b *testing.B) {
	ctx := benchContext(b)
	cdln, _, err := ctx.MNIST3C()
	if err != nil {
		b.Fatal(err)
	}
	_, testS, err := ctx.Data()
	if err != nil {
		b.Fatal(err)
	}
	sess, err := core.NewSession(cdln)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Classify(testS[i%len(testS)].X)
	}
}

// BenchmarkEvaluateParallel times the full-dataset evaluation path (which
// now rides the session API internally: one clone per worker, zero
// per-sample cascade allocations).
func BenchmarkEvaluateParallel(b *testing.B) {
	ctx := benchContext(b)
	cdln, _, err := ctx.MNIST3C()
	if err != nil {
		b.Fatal(err)
	}
	_, testS, err := ctx.Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Evaluate(cdln, testS, 0, false)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(testS))/b.Elapsed().Seconds()*float64(b.N), "images/s")
			b.ReportMetric(res.NormalizedOps(), "normOPS")
		}
	}
}

// BenchmarkBaselineForward28x28 is the reference cost of an unconditioned
// inference, for comparing against the two Classify benchmarks above.
func BenchmarkBaselineForward28x28(b *testing.B) {
	net := nn.Arch8Layer(rand.New(rand.NewSource(1))).Net
	x := tensor.New(1, mnist.Side, mnist.Side)
	for i := range x.Data {
		x.Data[i] = rand.New(rand.NewSource(2)).Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

// BenchmarkSyntheticMNISTGen times the dataset substrate.
func BenchmarkSyntheticMNISTGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mnist.Generate(mnist.GenConfig{N: 10, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
