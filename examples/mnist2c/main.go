// MNIST_2C: the paper's 6-layer network (Table I) with one early-exit
// stage O1 after the first pooling layer. Reports per-digit normalized OPS
// (the Fig. 5 left-hand bars) and the accuracy comparison of Table III.
//
// Run with:
//
//	go run ./examples/mnist2c
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cdl/internal/core"
	"cdl/internal/mnist"
	"cdl/internal/nn"
	"cdl/internal/train"
)

func main() {
	trainS, testS, err := mnist.GenerateSamples(4000, 1500, 1)
	if err != nil {
		log.Fatal(err)
	}

	arch := nn.Arch6Layer(rand.New(rand.NewSource(101)))
	tcfg := train.Defaults(arch.NumClasses)
	tcfg.Epochs = 3
	if _, err := train.SGD(arch.Net, trainS, tcfg); err != nil {
		log.Fatal(err)
	}
	baseAcc := train.Accuracy(arch.Net, testS, arch.NumClasses)

	cfg := core.DefaultBuildConfig()
	cfg.Epsilon = 10
	cdln, report, err := core.Build(arch, trainS, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range report.Stages {
		fmt.Printf("stage %s: classifies %d of %d training inputs, gain %.0f ops/input, admitted=%v\n",
			s.Name, s.Classified, s.Reaching, s.Gain, s.Admitted)
	}

	res, err := core.Evaluate(cdln, testS, 0, false)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nTable III (6-layer row):")
	fmt.Printf("  baseline %.4f → MNIST_2C %.4f (%+.2f%%)\n",
		baseAcc, res.Confusion.Accuracy(), 100*(res.Confusion.Accuracy()-baseAcc))

	fmt.Println("\nFig. 5 (MNIST_2C): normalized OPS per digit")
	for d := 0; d < 10; d++ {
		bar := ""
		for i := 0.0; i < res.ClassNormalizedOps(d)*40; i++ {
			bar += "█"
		}
		fmt.Printf("  %d %5.3f %s\n", d, res.ClassNormalizedOps(d), bar)
	}
	fmt.Printf("mean improvement: %.2fx\n", res.Improvement())
}
