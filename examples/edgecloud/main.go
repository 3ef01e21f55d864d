// Edgecloud: the exit cascade as an offload policy. The paper's mechanism
// — easy inputs exit at shallow stages, hard inputs pay for full depth —
// maps directly onto a two-tier deployment (cf. Long et al. 2020): a cheap
// edge node owns the shallow stages and their linear classifiers, and only
// the hard residue crosses the link to a cloud backend that resumes the
// cascade at /v2/models/default/resume.
//
// This demo trains an 8-layer CDLN, starts a real in-process cloud server,
// and sweeps the split point and δ, printing the offload fraction, the
// per-tier energy (edge compute / link / cloud compute) and the accuracy
// of each deployment. With the lossless wire encoding every row's accuracy
// equals the monolithic CDLN's — the split is semantically invisible. A
// second table ships Q2.13-quantized activations instead: 4× smaller
// payloads, so 4× less link energy, for a (usually tiny) accuracy risk.
//
// Run with:
//
//	go run ./examples/edgecloud
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"

	"cdl/internal/core"
	"cdl/internal/edgecloud"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/energy"
	"cdl/internal/mnist"
	"cdl/internal/nn"
	"cdl/internal/serve"
	"cdl/internal/train"
)

func main() {
	trainS, testS, err := mnist.GenerateSamples(3000, 800, 1)
	if err != nil {
		log.Fatal(err)
	}
	arch := nn.Arch8Layer(rand.New(rand.NewSource(11)))
	fmt.Println("training the 8-layer baseline...")
	tcfg := train.Defaults(arch.NumClasses)
	tcfg.Epochs = 7
	if _, err := train.SGD(arch.Net, trainS, tcfg); err != nil {
		log.Fatal(err)
	}
	bcfg := core.DefaultBuildConfig()
	bcfg.ForceAllStages = true // keep O3 so the sweep has four split points
	cdln, _, err := core.Build(arch, trainS, bcfg)
	if err != nil {
		log.Fatal(err)
	}

	// Monolithic reference: what a single-node deployment does.
	mono, err := core.Evaluate(cdln, testS, 0, false)
	if err != nil {
		log.Fatal(err)
	}
	monoEnergy, err := energy.NewEvaluator().FromEval(cdln, mono)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmonolithic CDLN: accuracy %.4f, %.1f nJ/image (%.2fx energy improvement over baseline)\n",
		mono.Confusion.Accuracy(), monoEnergy.MeanEnergy/1000, monoEnergy.Improvement())
	link := energy.DefaultLink()
	fmt.Printf("link model: %.0f pJ/byte + %.1f nJ per transfer\n", link.PJPerByte, link.PerOffloadPJ/1000)

	// A real cloud backend over HTTP: the edge posts wire-encoded
	// activations to its /v2/models/default/resume exactly as a
	// distributed deployment would.
	cloud, err := serve.New(cdln, serve.Config{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(cloud.Handler())
	defer func() { ts.Close(); cloud.Close() }()

	fmt.Println("\nlossless offload (float64 wire): accuracy is bit-identical to monolithic at every split")
	fmt.Println("delta  split  offload%   edge nJ   link nJ  cloud nJ  total nJ  accuracy")
	for _, delta := range []float64{-1, 0.60, 0.75} {
		for split := 0; split <= len(cdln.Stages); split++ {
			cfg := edgecloud.DefaultConfig(split)
			cfg.Delta = delta
			row, err := sweepRow(cdln, ts.URL, cfg, testS)
			if err != nil {
				log.Fatal(err)
			}
			name := "train"
			if delta >= 0 {
				name = fmt.Sprintf("%.2f ", delta)
			}
			fmt.Printf("%s   %d/%d   %6.1f%%  %8.1f  %8.1f  %8.1f  %8.1f    %.4f\n",
				name, split, len(cdln.Stages), 100*row.offloadFrac,
				row.edge, row.link, row.cloud, row.edge+row.link+row.cloud, row.accuracy)
		}
		fmt.Println()
	}

	fmt.Println("quantized offload (Q2.13 wire, trained δ): 4x smaller payloads, 4x cheaper link")
	fmt.Println("split  offload%   link nJ  bytes/offload  total nJ  accuracy")
	for split := 0; split <= len(cdln.Stages); split++ {
		cfg := edgecloud.DefaultConfig(split)
		cfg.Encoding = wire.EncodingFixed
		row, err := sweepRow(cdln, ts.URL, cfg, testS)
		if err != nil {
			log.Fatal(err)
		}
		bytesPer := 0.0
		if row.offloads > 0 {
			bytesPer = float64(row.wireBytes) / float64(row.offloads)
		}
		fmt.Printf(" %d/%d   %6.1f%%  %8.1f      %8.0f  %8.1f    %.4f\n",
			split, len(cdln.Stages), 100*row.offloadFrac,
			row.link, bytesPer, row.edge+row.link+row.cloud, row.accuracy)
	}

	fmt.Println("\nreading the table:")
	fmt.Println(" - split 0 ships every raw input: all compute is cloud-side, the link pays for everything")
	fmt.Println(" - deeper splits exit more inputs on the edge; only the hard residue crosses the link")
	fmt.Println(" - strict δ offloads more (the edge trusts itself less), loose δ keeps traffic local")
	fmt.Println(" - the cheapest deployment is where link energy saved stops paying for edge compute added")
}

type row struct {
	offloadFrac       float64
	offloads          int
	wireBytes         int64
	edge, link, cloud float64 // mean nJ per image
	accuracy          float64
}

// sweepRow runs one edge deployment over the test set and aggregates the
// tier energies (nJ/image), offload fraction and accuracy.
func sweepRow(cdln *core.CDLN, cloudURL string, cfg edgecloud.Config, testS []train.Sample) (row, error) {
	edge, err := edgecloud.New(cdln, edgecloud.NewHTTPModelTransport(cloudURL, serve.DefaultModelName), cfg)
	if err != nil {
		return row{}, err
	}
	var r row
	correct := 0
	for _, s := range testS {
		res, err := edge.Classify(s.X)
		if err != nil {
			return row{}, err
		}
		if res.Record.Label == s.Label {
			correct++
		}
		if res.Offloaded {
			r.offloads++
			r.wireBytes += int64(res.WireBytes)
		}
		r.edge += res.EdgePJ
		r.link += res.LinkPJ
		r.cloud += res.CloudPJ
	}
	n := float64(len(testS))
	r.offloadFrac = float64(r.offloads) / n
	r.edge /= n * 1000 // pJ -> nJ per image
	r.link /= n * 1000
	r.cloud /= n * 1000
	r.accuracy = float64(correct) / n
	return r, nil
}
