// Deltasweep: the paper's runtime knob (§III.B, Fig. 10). The confidence
// threshold δ of a *trained* CDLN is adjusted at runtime — no retraining —
// trading operations for accuracy on the fly.
//
// Run with:
//
//	go run ./examples/deltasweep
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
	trainS, testS, err := mnist.GenerateSamples(3000, 1000, 1)
	if err != nil {
		log.Fatal(err)
	}
	arch := nn.Arch8Layer(rand.New(rand.NewSource(11)))
	tcfg := train.Defaults(arch.NumClasses)
	tcfg.Epochs = 7
	if _, err := train.SGD(arch.Net, trainS, tcfg); err != nil {
		log.Fatal(err)
	}
	cdln, _, err := core.Build(arch, trainS, core.DefaultBuildConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Fig. 10 — runtime δ sweep on one trained CDLN")
	fmt.Println("delta  accuracy  normOPS   accuracy-vs-ops trade")
	for delta := 0.30; delta <= 0.951; delta += 0.05 {
		cdln.Delta = delta
		res, err := core.Evaluate(cdln, testS, 0, false)
		if err != nil {
			log.Fatal(err)
		}
		bar := ""
		for i := 0.0; i < res.NormalizedOps()*40; i++ {
			bar += "▒"
		}
		fmt.Printf(" %.2f   %.4f    %.3f   %s\n",
			delta, res.Confusion.Accuracy(), res.NormalizedOps(), bar)
	}
	fmt.Println("\nlow δ: loose gate, most inputs exit early (cheap, riskier)")
	fmt.Println("high δ: strict gate, inputs defer to the deep layers (costly, baseline-like)")
}
