package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cdl/internal/linclass"
	"cdl/internal/nn"
	"cdl/internal/opcount"
	"cdl/internal/tensor"
)

// lowBitsRule exits a quarter of the rows it sees, chosen by the low
// mantissa bits of the winning confidence: an untrained cascade saturates
// (every row agrees about δ), and the guard below needs a batch that
// thins out stage by stage.
type lowBitsRule struct{}

func (lowBitsRule) Name() string { return "lowbits" }
func (lowBitsRule) ShouldExit(scores *tensor.T, _ float64) bool {
	conf, _ := scores.Max()
	return math.Float64bits(conf)&3 == 0
}

// arch8CDLN builds an untrained MNIST_3C-shaped cascade (Arch8, O1 at P1,
// O2 at P2) literally, exiting by lowBitsRule so that a batch exercises
// every exit point and both compactions.
func arch8CDLN(seed int64) *CDLN {
	rng := rand.New(rand.NewSource(seed))
	arch := nn.Arch8Layer(rng)
	return &CDLN{
		Arch: arch,
		Stages: []*Stage{
			{Name: "O1", Tap: 3, LC: linclass.New(arch.TapFeatureLen(0), 10, rng)},
			{Name: "O2", Tap: 6, LC: linclass.New(arch.TapFeatureLen(1), 10, rng)},
		},
		Delta: 0.5,
		Rule:  lowBitsRule{},
		Ops:   opcount.Default(),
	}
}

// TestClassifyBatchAllocs is the scratch guard (ROADMAP item 2c): once a
// session is warm, a batched walk on the paper's 8-layer architecture
// allocates only its records and the per-stage feature and survivor views
// — every activation, the stacked input and the scores live in
// replica-owned scratch under replica-owned headers, and the conv layers'
// fan-out over four workers starts func values bound once per replica.
// Skipped under -race, which instruments allocations.
func TestClassifyBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sess, err := NewSession(arch8CDLN(3))
	if err != nil {
		t.Fatal(err)
	}
	xs := randomImages(32, 4)
	for _, bsz := range []int{32, 1} {
		batch := xs[:bsz]
		exits := make(map[int]bool)
		for _, r := range sess.ClassifyBatchPolicy(batch, DefaultExitPolicy()) { // warms the scratch
			exits[r.StageIndex] = true
		}
		if bsz == 32 && len(exits) != 3 {
			t.Fatalf("batch reached exits %v, want all three: the guard must cover both compactions and the FC tail", exits)
		}
		// The runtime recycles an exited goroutine on the P it exited on, so
		// until every P holds a stock, a `go` on the caller's P can still
		// allocate a fresh one: warm that cache too.
		for range 400 {
			sess.ClassifyBatchPolicy(batch, DefaultExitPolicy())
		}
		allocs := testing.AllocsPerRun(20, func() { sess.ClassifyBatchPolicy(batch, DefaultExitPolicy()) })
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sess.ClassifyBatchPolicy(batch, DefaultExitPolicy())
		runtime.ReadMemStats(&m1)
		bytes := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("batch %d: %.0f allocs, %d B per call", bsz, allocs, bytes)
		if maxAllocs := map[int]float64{32: 6, 1: 6}[bsz]; allocs > maxAllocs || bytes > 4000 {
			t.Errorf("warm ClassifyBatchPolicy at batch %d: %.0f allocs, %d B per call; want ≤ %.0f allocs, ≤ 4000 B", bsz, allocs, bytes, maxAllocs)
		}
	}
}
