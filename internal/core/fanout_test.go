package core

// fanout_test.go pins the batched walk against the machine it runs on: the
// conv layers share a batch's images out across GOMAXPROCS workers, so a
// record must depend neither on the worker count and the batch size nor on
// another session classifying beside it.

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"cdl/internal/linclass"
	"cdl/internal/nn"
	"cdl/internal/opcount"
	"cdl/internal/tensor"
)

// arch6CDLN is arch8CDLN's MNIST_2C twin: an untrained Arch6 cascade with
// O1 at P1, exiting by lowBitsRule.
func arch6CDLN(seed int64) *CDLN {
	rng := rand.New(rand.NewSource(seed))
	arch := nn.Arch6Layer(rng)
	return &CDLN{
		Arch:   arch,
		Stages: []*Stage{{Name: "O1", Tap: 3, LC: linclass.New(arch.TapFeatureLen(0), 10, rng)}},
		Delta:  0.5,
		Rule:   lowBitsRule{},
		Ops:    opcount.Default(),
	}
}

// randomImages returns n 28×28 images of uniform noise.
func randomImages(n int, seed int64) []*tensor.T {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.T, n)
	for i := range xs {
		xs[i] = tensor.New(1, 28, 28)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.Float64()
		}
	}
	return xs
}

// oracle is the reference walk's record for every input.
func oracle(c *CDLN, xs []*tensor.T) []ExitRecord {
	ref := c.Clone()
	want := make([]ExitRecord, len(xs))
	for i, x := range xs {
		want[i] = ref.Classify(x)
	}
	return want
}

// TestClassifyBatchCoreCountInvariant walks the paper's two architectures
// at batch sizes around the range splits under GOMAXPROCS 1, 2, 3 and 8:
// every record must Equal CDLN.Classify's, so the records of every worker
// count and batch size equal each other.
func TestClassifyBatchCoreCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	xs := randomImages(33, 7)
	for name, cdln := range map[string]*CDLN{"arch6": arch6CDLN(5), "arch8": arch8CDLN(6)} {
		want := oracle(cdln, xs)
		sess, err := NewSession(cdln)
		if err != nil {
			t.Fatal(err)
		}
		exits := make(map[int]bool)
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			for _, bsz := range []int{1, 2, 3, 5, 31, 32, 33} {
				for lo := 0; lo < len(xs); lo += bsz {
					hi := min(lo+bsz, len(xs))
					for i, rec := range sess.ClassifyBatchPolicy(xs[lo:hi], DefaultExitPolicy()) {
						if !rec.Equal(want[lo+i]) {
							t.Fatalf("%s, GOMAXPROCS %d, batch %d: input %d: walker %+v, reference %+v", name, procs, bsz, lo+i, rec, want[lo+i])
						}
						exits[rec.StageIndex] = true
					}
				}
			}
		}
		if len(exits) != len(cdln.Stages)+1 {
			t.Fatalf("%s: exits %v: the sweep must reach every exit, compactions included", name, exits)
		}
	}
}

// TestSessionsFanOutConcurrently runs two Sessions on one model side by
// side at batch 32 with the fan-out active, and changes GOMAXPROCS between
// rounds so both replicas' job tables regrow mid-test. Under -race this is
// the proof that a fan-out's ranges, scratch and join are replica-owned.
func TestSessionsFanOutConcurrently(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cdln := arch8CDLN(8)
	xs := randomImages(32, 9)
	want := oracle(cdln, xs)
	var sessions [2]*Session
	for i := range sessions {
		var err error
		if sessions[i], err = NewSession(cdln); err != nil {
			t.Fatal(err)
		}
	}
	for _, procs := range []int{2, 4, 3, 8} {
		runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		for s, sess := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					for i, rec := range sess.ClassifyBatchPolicy(xs, DefaultExitPolicy()) {
						if !rec.Equal(want[i]) {
							t.Errorf("GOMAXPROCS %d, session %d, round %d: input %d: %+v, reference %+v", procs, s, round, i, rec, want[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
