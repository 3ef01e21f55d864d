// MNIST_3C: the paper's headline configuration — the 8-layer network
// (Table II) with early exits O1 and O2, reproducing the 1.91x OPS and
// 1.84x energy improvements and the per-digit difficulty analysis of
// Figs. 5, 6 and 8.
//
// Run with:
//
//	go run ./examples/mnist3c
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cdl/internal/core"
	"cdl/internal/energy"
	"cdl/internal/mnist"
	"cdl/internal/nn"
	"cdl/internal/train"
)

func main() {
	trainS, testS, err := mnist.GenerateSamples(4000, 1500, 1)
	if err != nil {
		log.Fatal(err)
	}

	arch := nn.Arch8Layer(rand.New(rand.NewSource(201)))
	tcfg := train.Defaults(arch.NumClasses)
	tcfg.Epochs = 7
	if _, err := train.SGD(arch.Net, trainS, tcfg); err != nil {
		log.Fatal(err)
	}
	baseAcc := train.Accuracy(arch.Net, testS, arch.NumClasses)

	cfg := core.DefaultBuildConfig()
	cfg.Epsilon = 10 // rejects O3, as the paper's Fig. 9 break-even demands
	cdln, _, err := core.Build(arch, trainS, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(cdln.Summary())

	res, err := core.Evaluate(cdln, testS, 0, false)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := energy.NewEvaluator().FromEval(cdln, res)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nbaseline accuracy %.4f → CDLN %.4f (%+.2f%%)\n",
		baseAcc, res.Confusion.Accuracy(), 100*(res.Confusion.Accuracy()-baseAcc))
	fmt.Printf("OPS:    %.2fx improvement (normalized %.3f)\n", res.Improvement(), res.NormalizedOps())
	fmt.Printf("energy: %.2fx improvement (%.1f nJ → %.1f nJ per input)\n",
		sum.Improvement(), sum.BaselineEnergy/1000, sum.MeanEnergy/1000)

	fmt.Println("\nper-digit analysis (Figs. 5, 6, 8):")
	fmt.Println("digit  normOPS  normEnergy  exit@O1  exit@FC")
	fcExit := len(res.ExitNames) - 1
	for d := 0; d < 10; d++ {
		fmt.Printf("  %d     %.3f    %.3f      %5.1f%%   %5.1f%%\n",
			d, res.ClassNormalizedOps(d), sum.ClassNormalized(d),
			100*res.ExitFraction(0, d), 100*res.ExitFraction(fcExit, d))
	}
}
