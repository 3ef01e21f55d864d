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
// allocates only its records — every activation, the stacked input, the
// scores and the per-stage feature and survivor views live in lane-owned
// scratch under lane-owned headers, and the call's lanes over four procs
// start func values bound once per lane. The guard covers the monolithic
// walk at batch 32 and 1, and the edge-split cloud shape: a resume from
// stage 1 at batch 8. Skipped under -race, which instruments allocations.
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
	var acts []*tensor.T // P1 activations O1 did not exit, for the resume
	for _, pre := range sess.ClassifyPrefixBatchPolicy(xs, 1, DefaultExitPolicy()) {
		if !pre.Exited && len(acts) < 8 {
			acts = append(acts, pre.Activation)
		}
	}
	if len(acts) != 8 {
		t.Fatalf("%d inputs passed O1, want 8 to resume", len(acts))
	}
	for _, tc := range []struct {
		name  string
		exits int // exits the call must reach, 0 for any
		call  func() []ExitRecord
	}{
		{"classify batch 32", 3, func() []ExitRecord { return sess.ClassifyBatchPolicy(xs, DefaultExitPolicy()) }},
		{"classify batch 1", 0, func() []ExitRecord { return sess.ClassifyBatchPolicy(xs[:1], DefaultExitPolicy()) }},
		{"resume batch 8 from stage 1", 2, func() []ExitRecord { return sess.ResumeBatchPolicyAt(acts, 0, 1, DefaultExitPolicy()) }},
	} {
		exits := make(map[int]bool)
		for _, r := range tc.call() { // warms the scratch
			exits[r.StageIndex] = true
		}
		if tc.exits > 0 && len(exits) != tc.exits {
			t.Fatalf("%s reached exits %v, want %d: the guard must cover every compaction and the FC tail", tc.name, exits, tc.exits)
		}
		// The runtime recycles an exited goroutine on the P it exited on, so
		// until every P holds a stock, a `go` on the caller's P can still
		// allocate a fresh one: warm that cache too.
		for range 400 {
			tc.call()
		}
		allocs := testing.AllocsPerRun(20, func() { tc.call() })
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tc.call()
		runtime.ReadMemStats(&m1)
		bytes := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("%s: %.0f allocs, %d B per call", tc.name, allocs, bytes)
		if allocs > 6 || bytes > 4000 {
			t.Errorf("warm %s: %.0f allocs, %d B per call; want ≤ 6 allocs, ≤ 4000 B", tc.name, allocs, bytes)
		}
	}
}
