package linclass

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cdl/internal/tensor"
)

// sepFeatures builds a linearly separable 3-class feature set: class k has
// feature k elevated.
func sepFeatures(n int, seed int64) ([]*tensor.T, []int) {
	rng := rand.New(rand.NewSource(seed))
	var fs []*tensor.T
	var ls []int
	for i := 0; i < n; i++ {
		label := i % 3
		x := tensor.New(6)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64() * 0.1
		}
		x.Data[label] += 1.0
		fs = append(fs, x)
		ls = append(ls, label)
	}
	return fs, ls
}

func TestTrainSeparable(t *testing.T) {
	fs, ls := sepFeatures(150, 1)
	c := New(6, 3, rand.New(rand.NewSource(2)))
	losses, err := c.Train(fs, ls, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("LMS loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	if acc := c.Accuracy(fs, ls); acc < 0.98 {
		t.Errorf("accuracy %.3f < 0.98 on separable features", acc)
	}
}

func TestScoresInUnitInterval(t *testing.T) {
	c := New(4, 3, rand.New(rand.NewSource(3)))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.New(4)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64() * 5
		}
		s := c.Scores(x)
		for _, v := range s.Data {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPredictMatchesScores(t *testing.T) {
	c := New(5, 4, rand.New(rand.NewSource(4)))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		x := tensor.New(5)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64()
		}
		label, conf := c.Predict(x)
		s := c.Scores(x)
		if label != s.ArgMax() {
			t.Fatal("Predict label != Scores argmax")
		}
		if mx, _ := s.Max(); conf != mx {
			t.Fatal("Predict confidence != max score")
		}
	}
}

func TestTrainValidation(t *testing.T) {
	c := New(3, 2, rand.New(rand.NewSource(6)))
	x := tensor.New(3)
	if _, err := c.Train(nil, nil, DefaultTrainConfig()); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := c.Train([]*tensor.T{x}, []int{0, 1}, DefaultTrainConfig()); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := c.Train([]*tensor.T{tensor.New(5)}, []int{0}, DefaultTrainConfig()); err == nil {
		t.Error("wrong feature width accepted")
	}
	if _, err := c.Train([]*tensor.T{x}, []int{7}, DefaultTrainConfig()); err == nil {
		t.Error("out-of-range label accepted")
	}
	bad := DefaultTrainConfig()
	bad.LRDecay = 2
	if _, err := c.Train([]*tensor.T{x}, []int{0}, bad); err == nil {
		t.Error("bad decay accepted")
	}
}

func TestTrainDeterministic(t *testing.T) {
	fs, ls := sepFeatures(60, 7)
	mk := func() *Classifier {
		c := New(6, 3, rand.New(rand.NewSource(8)))
		cfg := DefaultTrainConfig()
		cfg.Epochs = 5
		if _, err := c.Train(fs, ls, cfg); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(), mk()
	if !tensor.Equal(a.W, b.W) || !tensor.Equal(a.B, b.B) {
		t.Error("same-seed training produced different weights")
	}
}

func TestCloneIndependent(t *testing.T) {
	c := New(3, 2, rand.New(rand.NewSource(9)))
	d := c.Clone()
	d.W.Data[0] += 1
	if c.W.Data[0] == d.W.Data[0] {
		t.Error("Clone shares weight storage")
	}
}

func TestScoresWidthPanics(t *testing.T) {
	c := New(3, 2, rand.New(rand.NewSource(10)))
	defer func() {
		if recover() == nil {
			t.Error("wrong-width Scores did not panic")
		}
	}()
	c.Scores(tensor.New(4))
}

func TestAccuracyEmpty(t *testing.T) {
	c := New(3, 2, rand.New(rand.NewSource(11)))
	if c.Accuracy(nil, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
}

// Property: training on a single repeated sample drives its confidence up.
func TestQuickTrainingRaisesTargetScore(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(4, 3, rng)
		x := tensor.New(4)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		before := c.Scores(x).Data[1]
		cfg := DefaultTrainConfig()
		cfg.Epochs = 10
		fs := []*tensor.T{x, x, x, x}
		ls := []int{1, 1, 1, 1}
		if _, err := c.Train(fs, ls, cfg); err != nil {
			return false
		}
		after := c.Scores(x).Data[1]
		return after > before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestScoresBatchMatchesScores runs the batched scorer across every
// remainder of the four-row dot kernel (Out 1..9) and feature widths down
// to one: each row must equal Scores on that row alone, bit for bit.
func TestScoresBatchMatchesScores(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for out := 1; out <= 9; out++ {
		for _, in := range []int{1, 7, 507} {
			c := New(in, out, rng)
			for i := range c.B.Data {
				c.B.Data[i] = rng.NormFloat64()
			}
			for _, bsz := range []int{1, 5} {
				x := tensor.New(bsz, in)
				for i := range x.Data {
					x.Data[i] = rng.NormFloat64()
				}
				y := tensor.New(bsz, out)
				c.ScoresBatchInto(x, y)
				for bi := 0; bi < bsz; bi++ {
					want := c.Scores(tensor.FromSlice(x.Data[bi*in:(bi+1)*in], in))
					for o, w := range want.Data {
						if got := y.Data[bi*out+o]; math.Float64bits(got) != math.Float64bits(w) {
							t.Fatalf("Out %d In %d batch %d row %d class %d: %v, Scores %v", out, in, bsz, bi, o, got, w)
						}
					}
				}
			}
		}
	}
}
