// Command cdltrain trains a baseline DLN on synthetic MNIST, builds the
// CDLN cascade with Algorithm 1, reports the gain-rule decisions and saves
// the result.
//
// Usage:
//
//	cdltrain -arch 8 -train 4000 -test 1500 -epochs 7 -delta 0.5 -out model.cdln
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"cdl/internal/core"
	"cdl/internal/mnist"
	"cdl/internal/modelio"
	"cdl/internal/nn"
	"cdl/internal/train"
)

func main() {
	archN := flag.Int("arch", 8, "baseline architecture: 6 (Table I) or 8 (Table II)")
	trainN := flag.Int("train", 4000, "training set size")
	testN := flag.Int("test", 1500, "test set size")
	seed := flag.Int64("seed", 1, "dataset and initialization seed")
	epochs := flag.Int("epochs", 0, "baseline training epochs (0 = per-arch default)")
	delta := flag.Float64("delta", 0.5, "confidence threshold δ")
	epsilon := flag.Float64("epsilon", 10, "gain-rule admission threshold ε (ops/input)")
	force := flag.Bool("force-stages", false, "admit every stage, skipping the gain rule")
	out := flag.String("out", "model.cdln", "output model path")
	quiet := flag.Bool("q", false, "suppress progress logging")
	flag.Parse()

	if err := run(*archN, *trainN, *testN, *seed, *epochs, *delta, *epsilon, *force, *out, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "cdltrain:", err)
		os.Exit(1)
	}
}

func run(archN, trainN, testN int, seed int64, epochs int, delta, epsilon float64, force bool, out string, quiet bool) error {
	log := os.Stderr
	if quiet {
		log = nil
	}

	trainS, testS, err := mnist.GenerateSamples(trainN, testN, seed)
	if err != nil {
		return err
	}

	var arch *nn.Arch
	switch archN {
	case 6:
		arch = nn.Arch6Layer(rand.New(rand.NewSource(seed + 100)))
		if epochs == 0 {
			epochs = 3
		}
	case 8:
		arch = nn.Arch8Layer(rand.New(rand.NewSource(seed + 200)))
		if epochs == 0 {
			epochs = 7
		}
	default:
		return fmt.Errorf("-arch must be 6 or 8, got %d", archN)
	}
	if log != nil {
		fmt.Fprintf(log, "training %s baseline for %d epochs on %d samples\n", arch.Name, epochs, trainN)
	}
	tcfg := train.Defaults(arch.NumClasses)
	tcfg.Epochs, tcfg.Seed = epochs, seed
	if _, err := train.SGD(arch.Net, trainS, tcfg); err != nil {
		return err
	}
	baseAcc := train.Accuracy(arch.Net, testS, arch.NumClasses)
	fmt.Printf("baseline accuracy: %.4f\n", baseAcc)

	bcfg := core.DefaultBuildConfig()
	bcfg.Delta = delta
	bcfg.Epsilon = epsilon
	bcfg.ForceAllStages = force
	bcfg.Seed = seed
	bcfg.Log = log
	cdln, report, err := core.Build(arch, trainS, bcfg)
	if err != nil {
		return err
	}
	printReport(report)
	fmt.Print(cdln.Summary())

	res, err := core.Evaluate(cdln, testS, 0, false)
	if err != nil {
		return err
	}
	fmt.Printf("CDLN accuracy: %.4f (%+.2f%% vs baseline)\n",
		res.Confusion.Accuracy(), 100*(res.Confusion.Accuracy()-baseAcc))
	fmt.Printf("normalized OPS: %.3f (%.2fx improvement)\n", res.NormalizedOps(), res.Improvement())

	if err := modelio.SaveFile(out, cdln); err != nil {
		return err
	}
	fmt.Printf("saved model to %s\n", out)
	return nil
}

func printReport(r *core.Report) {
	fmt.Printf("Algorithm 1 decisions (baseline %.0f ops):\n", r.BaselineOps)
	for _, s := range r.Stages {
		fmt.Printf("  %-3s reach=%-5d classify=%-5d lcAcc=%.3f gain=%10.1f ops/input admitted=%v\n",
			s.Name, s.Reaching, s.Classified, s.LCAccuracy, s.Gain, s.Admitted)
	}
}
