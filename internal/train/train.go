// Package train implements the minibatch SGD training loop used to learn
// the paper's baseline DLNs ("trained using the convolutional
// back-propagation algorithm as proposed in [19]"). It supports momentum,
// per-epoch learning-rate decay, deterministic shuffling, and parallel
// gradient computation across goroutine-local network replicas.
package train

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"cdl/internal/nn"
	"cdl/internal/stats"
	"cdl/internal/tensor"
)

// Sample is one labelled training or test instance.
type Sample struct {
	X     *tensor.T
	Label int
}

// Config controls an SGD run. The zero value is not usable; see Defaults.
type Config struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the minibatch size; gradients are averaged over the batch.
	BatchSize int
	// LearningRate is the initial step size.
	LearningRate float64
	// Momentum is the classical momentum coefficient (0 disables).
	Momentum float64
	// LRDecay multiplies the learning rate after each epoch (1 disables).
	LRDecay float64
	// Seed drives minibatch shuffling.
	Seed int64
	// Workers is the number of parallel gradient goroutines; 0 means
	// GOMAXPROCS. It affects speed only: the result of SGD is bit-identical
	// for every value.
	Workers int
	// Classes is the label width for one-hot targets.
	Classes int
	// Log, if non-nil, receives one line per epoch.
	Log io.Writer
}

// Defaults returns the configuration used by the paper-scale experiments:
// MSE loss with a high learning rate and mild momentum, the regime in which
// sigmoid CNNs of this size converge (Palm's toolbox used lr≈1 as well;
// heavy momentum saturates the sigmoids and stalls learning).
func Defaults(classes int) Config {
	return Config{
		Epochs:       10,
		BatchSize:    20,
		LearningRate: 1.0,
		Momentum:     0.5,
		LRDecay:      0.98,
		Seed:         1,
		Classes:      classes,
	}
}

func (c *Config) validate() error {
	switch {
	case c.Epochs <= 0:
		return fmt.Errorf("train: Epochs=%d", c.Epochs)
	case c.BatchSize <= 0:
		return fmt.Errorf("train: BatchSize=%d", c.BatchSize)
	case c.LearningRate <= 0:
		return fmt.Errorf("train: LearningRate=%v", c.LearningRate)
	case c.Momentum < 0 || c.Momentum >= 1:
		return fmt.Errorf("train: Momentum=%v", c.Momentum)
	case c.LRDecay <= 0 || c.LRDecay > 1:
		return fmt.Errorf("train: LRDecay=%v", c.LRDecay)
	case c.Classes <= 0:
		return fmt.Errorf("train: Classes=%d", c.Classes)
	}
	return nil
}

// Result reports a finished training run.
type Result struct {
	// EpochLoss is the mean per-sample training loss of each epoch.
	EpochLoss []float64
	// FinalLR is the learning rate after decay.
	FinalLR float64
}

// SGD trains net in place under the paper's MSE criterion and returns the
// per-epoch loss trace.
func SGD(net *nn.Network, data []Sample, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("train: empty dataset")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.BatchSize {
		workers = cfg.BatchSize
	}

	params := net.Params()
	velocity := make([]*tensor.T, len(params))
	for i, p := range params {
		velocity[i] = tensor.New(p.W.Shape()...)
	}

	// One gradient slot per mini-batch position: a replica that shares the
	// weights and owns its gradients and caches. Workers only decide which
	// goroutine fills a slot, never what is summed with what, so the
	// trained weights are bit-identical for every worker count.
	slots := make([]*nn.Network, cfg.BatchSize)
	slotParams := make([][]*nn.Param, cfg.BatchSize)
	for i := range slots {
		slots[i] = net.Clone()
		slotParams[i] = slots[i].Params()
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(data))
	for i := range order {
		order[i] = i
	}

	targets := make([]*tensor.T, cfg.Classes)
	for c := range targets {
		targets[c] = nn.OneHot(c, cfg.Classes)
	}

	res := &Result{FinalLR: cfg.LearningRate}
	lr := cfg.LearningRate
	losses := make([]float64, cfg.BatchSize)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0

		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(batch); i += workers {
						s := data[batch[i]]
						slot := slots[i]
						slot.ZeroGrad()
						out := slot.Forward(s.X)
						target := targets[s.Label]
						losses[i] = nn.MSE{}.Loss(out, target)
						slot.Backward(nn.MSE{}.Grad(out, target))
					}
				}(w)
			}
			wg.Wait()

			// Reduce the per-sample gradients in batch order, then a momentum
			// SGD step on the shared weights.
			scale := 1.0 / float64(len(batch))
			for pi, p := range params {
				g := p.G
				g.Zero()
				for i := range batch {
					g.Add(slotParams[i][pi].G)
				}
				v := velocity[pi]
				for i := range v.Data {
					v.Data[i] = cfg.Momentum*v.Data[i] - lr*scale*g.Data[i]
					p.W.Data[i] += v.Data[i]
				}
			}
			for i := range batch {
				epochLoss += losses[i]
			}
		}

		epochLoss /= float64(len(order))
		res.EpochLoss = append(res.EpochLoss, epochLoss)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %d/%d loss %.6f lr %.4f\n", epoch+1, cfg.Epochs, epochLoss, lr)
		}
		lr *= cfg.LRDecay
	}
	res.FinalLR = lr
	return res, nil
}

// Evaluate runs net over data in parallel and returns the confusion matrix.
func Evaluate(net *nn.Network, data []Sample, classes, workers int) *stats.Confusion {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(data) && len(data) > 0 {
		workers = len(data)
	}
	if len(data) == 0 {
		return stats.NewConfusion(classes)
	}
	confs := make([]*stats.Confusion, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			replica := net.Clone()
			conf := stats.NewConfusion(classes)
			for i := w; i < len(data); i += workers {
				conf.Add(data[i].Label, replica.Predict(data[i].X))
			}
			confs[w] = conf
		}(w)
	}
	wg.Wait()
	total := stats.NewConfusion(classes)
	for _, c := range confs {
		total.Merge(c)
	}
	return total
}

// Accuracy is a convenience wrapper over Evaluate.
func Accuracy(net *nn.Network, data []Sample, classes int) float64 {
	return Evaluate(net, data, classes, 0).Accuracy()
}
