package train

import (
	"math/rand"
	"testing"

	"cdl/internal/nn"
	"cdl/internal/tensor"
)

// blobs generates a linearly separable 2-class dataset of flat 9-dim
// vectors: class 0 clusters near -0.5, class 1 near +0.5 on every axis.
func blobs(n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		label := i % 2
		center := -0.5
		if label == 1 {
			center = 0.5
		}
		x := tensor.New(9)
		for j := range x.Data {
			x.Data[j] = center + rng.NormFloat64()*0.15
		}
		out[i] = Sample{X: x, Label: label}
	}
	return out
}

func denseNet(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork([]int{9},
		nn.NewDense("h", 9, 8),
		nn.NewSigmoid("h.act"),
		nn.NewDense("out", 8, 2),
		nn.NewSigmoid("out.act"),
	)
	nn.InitNetwork(net, rng)
	return net
}

func smallCfg() Config {
	cfg := Defaults(2)
	cfg.Epochs = 30
	cfg.BatchSize = 8
	cfg.Seed = 3
	return cfg
}

func TestSGDLearnsSeparableData(t *testing.T) {
	net := denseNet(1)
	data := blobs(200, 2)
	res, err := SGD(net, data, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.EpochLoss[0], res.EpochLoss[len(res.EpochLoss)-1]
	if last >= first {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
	if acc := Accuracy(net, data, 2); acc < 0.95 {
		t.Errorf("train accuracy %.3f < 0.95 on separable blobs", acc)
	}
}

func TestSGDDeterministicSingleWorker(t *testing.T) {
	// With one worker the whole pipeline is deterministic; two runs from the
	// same seeds must produce identical weights.
	mk := func() *nn.Network {
		net := denseNet(5)
		cfg := smallCfg()
		cfg.Epochs = 3
		cfg.Workers = 1
		if _, err := SGD(net, blobs(50, 6), cfg); err != nil {
			t.Fatal(err)
		}
		return net
	}
	a, b := mk(), mk()
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if !tensor.Equal(pa[i].W, pb[i].W) {
			t.Fatalf("param %s differs between identical runs", pa[i].Name)
		}
	}
}

func TestSGDParallelMatchesSerialLoss(t *testing.T) {
	// Parallel workers only share out the per-sample gradient slots; the
	// run must learn separable data at any worker count.
	data := blobs(120, 7)
	for _, workers := range []int{1, 4} {
		net := denseNet(8)
		cfg := smallCfg()
		cfg.Workers = workers
		if _, err := SGD(net, data, cfg); err != nil {
			t.Fatal(err)
		}
		if acc := Accuracy(net, data, 2); acc < 0.95 {
			t.Errorf("workers=%d accuracy %.3f < 0.95", workers, acc)
		}
	}
}

// TestSGDWorkerCountInvariant pins the reduction order: gradients are
// summed per sample in batch order, so the trained weights and the loss
// trace are byte-equal for every worker count — including counts that do
// not divide the batch, exceed it, or meet a short final batch. A conv net
// is used so every layer kind's gradient takes part.
func TestSGDWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := make([]Sample, 43) // 5 full batches of 8 and a short one
	for i := range data {
		x := tensor.New(1, 12, 12)
		for j := range x.Data {
			x.Data[j] = rng.Float64()
		}
		data[i] = Sample{X: x, Label: i % 2}
	}
	run := func(workers int) ([]*nn.Param, []float64) {
		arch := nn.ArchTiny(rand.New(rand.NewSource(42)), 2)
		cfg := Defaults(2)
		cfg.Epochs = 3
		cfg.BatchSize = 8
		cfg.Workers = workers
		res, err := SGD(arch.Net, data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return arch.Net.Params(), res.EpochLoss
	}
	wantParams, wantLoss := run(1)
	for _, workers := range []int{2, 3, 7, 16} {
		params, loss := run(workers)
		for i, p := range params {
			if !tensor.Equal(p.W, wantParams[i].W) {
				t.Errorf("workers=%d: param %s differs from workers=1", workers, p.Name)
			}
		}
		for e := range wantLoss {
			if loss[e] != wantLoss[e] {
				t.Errorf("workers=%d: epoch %d loss %v, workers=1 has %v", workers, e, loss[e], wantLoss[e])
			}
		}
	}
}

func TestSGDValidation(t *testing.T) {
	net := denseNet(9)
	data := blobs(10, 10)
	bad := []Config{
		{},
		{Epochs: 1, BatchSize: 0, LearningRate: 1, LRDecay: 1, Classes: 2},
		{Epochs: 1, BatchSize: 1, LearningRate: 0, LRDecay: 1, Classes: 2},
		{Epochs: 1, BatchSize: 1, LearningRate: 1, LRDecay: 1, Classes: 0},
		{Epochs: 1, BatchSize: 1, LearningRate: 1, LRDecay: 0, Classes: 2},
		{Epochs: 1, BatchSize: 1, LearningRate: 1, LRDecay: 1, Classes: 2, Momentum: 1},
	}
	for i, cfg := range bad {
		if _, err := SGD(net, data, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := SGD(net, nil, smallCfg()); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestLRDecayApplied(t *testing.T) {
	net := denseNet(11)
	cfg := smallCfg()
	cfg.Epochs = 2
	cfg.LearningRate = 1.0
	cfg.LRDecay = 0.5
	res, err := SGD(net, blobs(20, 12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLR != 0.25 {
		t.Errorf("FinalLR = %v, want 0.25 after two halvings", res.FinalLR)
	}
	if len(res.EpochLoss) != 2 {
		t.Errorf("EpochLoss len %d, want 2", len(res.EpochLoss))
	}
}

func TestEvaluateConfusion(t *testing.T) {
	net := denseNet(13)
	data := blobs(100, 14)
	cfg := smallCfg()
	if _, err := SGD(net, data, cfg); err != nil {
		t.Fatal(err)
	}
	conf := Evaluate(net, data, 2, 3)
	if conf.Total() != 100 {
		t.Errorf("confusion total %d, want 100", conf.Total())
	}
	if conf.Accuracy() < 0.95 {
		t.Errorf("confusion accuracy %.3f", conf.Accuracy())
	}
	empty := Evaluate(net, nil, 2, 0)
	if empty.Total() != 0 {
		t.Error("empty evaluate should be empty")
	}
}

func TestTrainCNNSmoke(t *testing.T) {
	// End-to-end: a tiny conv net learns a 2-class image problem (bright
	// top-left vs bright bottom-right blobs).
	rng := rand.New(rand.NewSource(15))
	mkImage := func(label int) *tensor.T {
		x := tensor.New(1, 12, 12)
		cy, cx := 3, 3
		if label == 1 {
			cy, cx = 8, 8
		}
		for y := 0; y < 12; y++ {
			for x2 := 0; x2 < 12; x2++ {
				d2 := float64((y-cy)*(y-cy) + (x2-cx)*(x2-cx))
				x.Data[y*12+x2] = 1/(1+d2/4) + rng.NormFloat64()*0.05
			}
		}
		return x
	}
	var data []Sample
	for i := 0; i < 80; i++ {
		data = append(data, Sample{X: mkImage(i % 2), Label: i % 2})
	}
	arch := nn.ArchTiny(rng, 2)
	cfg := Defaults(2)
	cfg.Epochs = 15
	cfg.BatchSize = 8
	if _, err := SGD(arch.Net, data, cfg); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(arch.Net, data, 2); acc < 0.95 {
		t.Errorf("CNN accuracy %.3f < 0.95 on trivially separable images", acc)
	}
}
