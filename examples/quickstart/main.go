// Quickstart: train a Conditional Deep Learning network and watch easy
// inputs exit early.
//
// Run with:
//
//	go run ./examples/quickstart
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
	// 1. Data: a deterministic synthetic MNIST split (28×28 digits).
	trainS, testS, err := mnist.GenerateSamples(3000, 500, 1)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Baseline: the paper's Table II 8-layer DLN, trained briefly — CDL
	// explicitly works with baselines that are "less than optimal".
	arch := nn.Arch8Layer(rand.New(rand.NewSource(7)))
	cfg := train.Defaults(arch.NumClasses)
	cfg.Epochs = 10
	if _, err := train.SGD(arch.Net, trainS, cfg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline accuracy: %.4f\n", train.Accuracy(arch.Net, testS, arch.NumClasses))

	// 3. CDL: attach linear classifiers to the conv stages (Algorithm 1).
	cdln, _, err := core.Build(arch, trainS, core.DefaultBuildConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(cdln.Summary())

	// 4. Early-exit inference (Algorithm 2).
	res, err := core.Evaluate(cdln, testS, 0, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CDLN accuracy:  %.4f\n", res.Confusion.Accuracy())
	fmt.Printf("normalized OPS: %.3f (%.2fx fewer operations per input)\n",
		res.NormalizedOps(), res.Improvement())
	for e, name := range res.ExitNames {
		fmt.Printf("  %5.1f%% of inputs exit at %s\n", 100*res.ExitFraction(e, -1), name)
	}

	// 5. Classify one input and see where it exits.
	rec := cdln.Classify(testS[0].X)
	fmt.Printf("sample 0: predicted %d at stage %s with confidence %.2f (%.0f ops)\n",
		rec.Label, rec.StageName, rec.Confidence, rec.Ops)
}
