// Command cdleval evaluates a saved CDLN model on a freshly generated test
// set: accuracy, per-digit normalized OPS, exit distribution, and 45 nm
// energy — optionally overriding the runtime confidence threshold δ (the
// paper's runtime knob, §III.B).
//
// Usage:
//
//	cdleval -model model.cdln -test 1500 -delta 0.6
package main

import (
	"flag"
	"fmt"
	"os"

	"cdl/internal/core"
	"cdl/internal/energy"
	"cdl/internal/mnist"
	"cdl/internal/modelio"
)

func main() {
	model := flag.String("model", "model.cdln", "model path written by cdltrain")
	testN := flag.Int("test", 1500, "test set size")
	seed := flag.Int64("seed", 1, "dataset seed (match cdltrain's for the same split)")
	delta := flag.Float64("delta", -1, "override runtime δ (-1 keeps the trained value)")
	tune := flag.Bool("tune", false, "tune per-stage thresholds on a fresh validation split before evaluating")
	perDigit := flag.Bool("per-digit", true, "print per-digit statistics")
	flag.Parse()

	if err := run(*model, *testN, *seed, *delta, *tune, *perDigit); err != nil {
		fmt.Fprintln(os.Stderr, "cdleval:", err)
		os.Exit(1)
	}
}

func run(model string, testN int, seed int64, delta float64, tune, perDigit bool) error {
	cdln, err := modelio.LoadFile(model)
	if err != nil {
		return err
	}
	if delta >= 0 {
		cdln.Delta = delta
		cdln.StageDeltas = nil
	}
	if tune {
		valS, _, err := mnist.GenerateSamples(testN, 1, seed+4242)
		if err != nil {
			return err
		}
		deltas, _, err := core.TuneDeltas(cdln, valS, 0)
		if err != nil {
			return err
		}
		fmt.Printf("tuned per-stage δ: %v\n", deltas)
	}
	fmt.Print(cdln.Summary())

	_, testS, err := mnist.GenerateSamples(1, testN, seed)
	if err != nil {
		return err
	}
	res, err := core.Evaluate(cdln, testS, 0, false)
	if err != nil {
		return err
	}
	fmt.Printf("accuracy: %.4f\n", res.Confusion.Accuracy())
	if n := res.NormalizedOps(); n > 0 {
		fmt.Printf("normalized OPS: %.3f (%.2fx improvement)\n", n, res.Improvement())
	} else {
		fmt.Println("normalized OPS: n/a (empty evaluation)")
	}
	for e, name := range res.ExitNames {
		fmt.Printf("  exit %-4s %5.1f%%\n", name, 100*res.ExitFraction(e, -1))
	}

	sum, err := energy.NewEvaluator().FromEval(cdln, res)
	if err != nil {
		return err
	}
	fmt.Printf("energy: %.1f nJ/input vs baseline %.1f nJ (%.2fx improvement)\n",
		sum.MeanEnergy/1000, sum.BaselineEnergy/1000, sum.Improvement())

	if perDigit {
		fmt.Println("digit  class-acc  normOPS  normEnergy  FC-activated")
		fcExit := len(res.ExitNames) - 1
		for d := 0; d < mnist.Classes; d++ {
			fmt.Printf("  %d     %.4f    %.3f     %.3f       %5.1f%%\n",
				d, res.Confusion.ClassAccuracy(d), res.ClassNormalizedOps(d),
				sum.ClassNormalized(d), 100*res.ExitFraction(fcExit, d))
		}
	}
	return nil
}
