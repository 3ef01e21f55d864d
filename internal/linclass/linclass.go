// Package linclass implements the per-stage linear classifiers of the CDL
// cascade: single-layer networks of output neurons cascaded onto each
// convolutional stage (paper Fig. 3(b)), trained with the least-mean-square
// (delta) rule on frozen CNN feature vectors (Algorithm 1, steps 6–7).
//
// A classifier maps a flattened feature vector to one sigmoid score per
// class; the maximum score is the stage's confidence value that the
// activation module compares against δ.
package linclass

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"cdl/internal/obs"
	"cdl/internal/tensor"
)

// Classifier is a linear map plus sigmoid: scores = σ(W·x + b).
type Classifier struct {
	// In is the feature-vector width; Out the number of classes.
	In, Out int
	// W is the [Out,In] weight matrix; B the per-class bias.
	W, B *tensor.T
}

// New constructs a classifier with Xavier-uniform weights.
func New(in, out int, rng *rand.Rand) *Classifier {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("linclass: New(%d,%d)", in, out))
	}
	c := &Classifier{In: in, Out: out, W: tensor.New(out, in), B: tensor.New(out)}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range c.W.Data {
		c.W.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return c
}

// Scores returns the sigmoid class scores for a feature vector. The input
// is flattened automatically; its element count must equal In.
func (c *Classifier) Scores(x *tensor.T) *tensor.T {
	y := tensor.New(c.Out)
	c.ScoresInto(x, y)
	return y
}

// ScoresInto computes the sigmoid class scores into y (length Out) without
// allocating. It is the hot path of core.Session, which reuses one score
// buffer per stage across classification calls.
func (c *Classifier) ScoresInto(x, y *tensor.T) {
	if x.Numel() != c.In {
		panic(fmt.Sprintf("linclass: feature width %d, want %d", x.Numel(), c.In))
	}
	if y.Numel() != c.Out {
		panic(fmt.Sprintf("linclass: score width %d, want %d", y.Numel(), c.Out))
	}
	prof := obs.ProfilingEnabled()
	var t0 time.Time
	if prof {
		t0 = time.Now()
	}
	tensor.MatVecInto(c.W, x.Flatten(), y)
	for o := 0; o < c.Out; o++ {
		y.Data[o] = 1 / (1 + math.Exp(-(y.Data[o] + c.B.Data[o])))
	}
	if prof {
		obs.ProfAdd(obs.PhaseClassifier, time.Since(t0))
	}
}

// ScoresBatchInto computes sigmoid class scores for a whole batch of
// feature rows: x is [B, In] (rows contiguous, e.g. a batched tap
// activation reshaped flat) and y is [B, Out]. Each row is computed with
// exactly ScoresInto's operations in ScoresInto's order — the same running
// dot product per class followed by the same sigmoid — so the batched
// Session walker (core's batch.go) reproduces per-sample scores bit for
// bit.
func (c *Classifier) ScoresBatchInto(x, y *tensor.T) {
	if x.Rank() != 2 || x.Dim(1) != c.In {
		panic(fmt.Sprintf("linclass: batch feature shape %v, want [B %d]", x.Shape(), c.In))
	}
	bsz := x.Dim(0)
	if y.Rank() != 2 || y.Dim(0) != bsz || y.Dim(1) != c.Out {
		panic(fmt.Sprintf("linclass: batch score shape %v, want [%d %d]", y.Shape(), bsz, c.Out))
	}
	prof := obs.ProfilingEnabled()
	var t0 time.Time
	if prof {
		t0 = time.Now()
	}
	for bi := 0; bi < bsz; bi++ {
		yr := y.Data[bi*c.Out:][:c.Out]
		tensor.MatVecRows(c.W.Data, x.Data[bi*c.In:][:c.In], yr)
		for o, b := range c.B.Data {
			yr[o] = 1 / (1 + math.Exp(-(yr[o] + b)))
		}
	}
	if prof {
		obs.ProfAdd(obs.PhaseClassifier, time.Since(t0))
	}
}

// Predict returns the argmax class and its confidence (the max sigmoid
// score).
func (c *Classifier) Predict(x *tensor.T) (label int, confidence float64) {
	s := c.Scores(x)
	conf, arg := s.Max()
	return arg, conf
}

// Clone returns a deep copy.
func (c *Classifier) Clone() *Classifier {
	return &Classifier{In: c.In, Out: c.Out, W: c.W.Clone(), B: c.B.Clone()}
}

// TrainConfig controls LMS training.
type TrainConfig struct {
	// Epochs is the number of passes over the feature set (default 20).
	Epochs int
	// LearningRate is the LMS step size (default 0.5).
	LearningRate float64
	// LRDecay multiplies the rate each epoch (default 0.95).
	LRDecay float64
	// Seed drives the per-epoch shuffle.
	Seed int64
	// Log, if non-nil, receives one line per epoch.
	Log io.Writer
}

// DefaultTrainConfig returns the settings used by the paper-scale
// experiments. The linear classifiers are small and converge quickly
// (paper §II: "the linear networks being small scale ... can be trained
// rapidly"), so a few dozen normalized-LMS epochs suffice.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, LearningRate: 2.0, LRDecay: 0.97, Seed: 1}
}

func (cfg *TrainConfig) normalize() {
	if cfg.Epochs == 0 {
		cfg.Epochs = 30
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 2.0
	}
	if cfg.LRDecay == 0 {
		cfg.LRDecay = 0.97
	}
}

// Train fits the classifier to (features, labels) with the normalized LMS
// (delta) rule through the sigmoid: for each sample,
// w ← w − η·(y−t)·y·(1−y)·x/(1+‖x‖²). The per-sample normalization keeps
// the step stable regardless of the feature-vector width, which varies by
// two orders of magnitude across CDL stages (O1 sees 507–864 features, O3
// sees 81). It returns the mean squared error per epoch.
func (c *Classifier) Train(features []*tensor.T, labels []int, cfg TrainConfig) ([]float64, error) {
	if len(features) != len(labels) {
		return nil, fmt.Errorf("linclass: %d features but %d labels", len(features), len(labels))
	}
	if len(features) == 0 {
		return nil, fmt.Errorf("linclass: empty training set")
	}
	cfg.normalize()
	if cfg.Epochs < 0 || cfg.LearningRate <= 0 || cfg.LRDecay <= 0 || cfg.LRDecay > 1 {
		return nil, fmt.Errorf("linclass: bad config %+v", cfg)
	}
	for i, f := range features {
		if f.Numel() != c.In {
			return nil, fmt.Errorf("linclass: feature %d width %d, want %d", i, f.Numel(), c.In)
		}
		if labels[i] < 0 || labels[i] >= c.Out {
			return nil, fmt.Errorf("linclass: label %d out of range at %d", labels[i], i)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(features))
	for i := range order {
		order[i] = i
	}
	// Per-sample NLMS normalizers, computed once: features are frozen CNN
	// activations and never change across epochs.
	norms := make([]float64, len(features))
	for i, f := range features {
		s := 0.0
		for _, v := range f.Data {
			s += v * v
		}
		norms[i] = 1 + s
	}
	lr := cfg.LearningRate
	losses := make([]float64, 0, cfg.Epochs)
	y := tensor.New(c.Out)
	delta := tensor.New(c.Out)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		sum := 0.0
		for _, idx := range order {
			x := features[idx].Flatten()
			step := lr / norms[idx]
			tensor.MatVecInto(c.W, x, y)
			for o := 0; o < c.Out; o++ {
				v := 1 / (1 + math.Exp(-(y.Data[o] + c.B.Data[o])))
				t := 0.0
				if o == labels[idx] {
					t = 1
				}
				e := v - t
				sum += e * e
				delta.Data[o] = -step * e * v * (1 - v)
			}
			tensor.OuterAccum(c.W, delta, x)
			c.B.Add(delta)
		}
		mse := sum / float64(len(order))
		losses = append(losses, mse)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "linclass epoch %d/%d mse %.6f\n", epoch+1, cfg.Epochs, mse)
		}
		lr *= cfg.LRDecay
	}
	return losses, nil
}

// Accuracy evaluates the classifier on a labelled feature set.
func (c *Classifier) Accuracy(features []*tensor.T, labels []int) float64 {
	if len(features) == 0 {
		return 0
	}
	correct := 0
	for i, f := range features {
		if l, _ := c.Predict(f); l == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(features))
}
