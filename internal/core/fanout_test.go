package core

// fanout_test.go pins the batched walk against the machine it runs on: a
// Session call splits its images into ranges across GOMAXPROCS lanes, so a
// record must depend neither on the core count and the batch size nor on
// another session classifying beside it, and an observer must see the
// serial event sequence whatever the split.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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

// spreadImages is randomImages with each image scaled by its own factor
// in [-4, 4], so that an untrained classifier's argmax spreads over
// several classes and a route by class sends rows every way.
func spreadImages(n int, seed int64) []*tensor.T {
	rng := rand.New(rand.NewSource(seed))
	xs := randomImages(n, seed)
	for _, x := range xs {
		x.Scale(8*rng.Float64() - 4)
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
// rounds so both sessions build lanes mid-test. Under -race this is the
// proof that a call's lanes, scratch and join are session-owned.
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

// arch6Routed is a routed graph over the arch6CDLN trunk, so that its
// calls clear fanOps like the linear arch6 cascade's: trunk O1 dispatches
// predicted classes 0, 3, 6, 9 to "lo" and 2, 5, 7, 8 to "hi", branches
// over the P1 tap [6,12,12]; classes 1 and 4 continue to the trunk FC.
func arch6Routed(t testing.TB, seed int64) *Graph {
	t.Helper()
	g := &Graph{Nodes: []*Node{
		{Name: "trunk", Model: arch6CDLN(seed), Routes: []Route{{Stage: 0, Branch: []int{1, -1, 2, 1, -1, 2, 1, 2, 2, 1}}}},
		{Name: "lo", Model: branchOver(seed+100, 4, 6, 12, 12), Labels: []int{0, 3, 6, 9}},
		{Name: "hi", Model: branchOver(seed+200, 4, 6, 12, 12), Labels: []int{2, 5, 7, 8}},
	}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSessionLaneRanges sets GOMAXPROCS so that a call's image ranges come
// out uneven and short: fewer images than procs, 33 images over 8, and
// batches where ⌈B/procs⌉-image ranges run out of images before the procs
// do (9 over 8 is five ranges, the last of one image; 33 over 8 is seven,
// not eight with an empty one). On every entry point — classify, resume
// past the O1 split, the prefix walk, a routed graph — a fresh session
// must build exactly that many lanes, and every outcome must Equal the
// reference walk's. A batch of one never builds a lane.
func TestSessionLaneRanges(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cdln := arch6CDLN(4) // every image's first segment clears fanOps, resumed at O1 too
	g := arch6Routed(t, 27)
	ref, routedRef := cdln.Clone(), reference(t, g, -1)
	xs := spreadImages(80, 31)
	want := oracle(cdln, xs)
	var acts []*tensor.T // P1 activations of inputs that O1 does not exit
	var resumed []ExitRecord
	for i, x := range xs {
		if pre := prefixOf(ref, x, 1); !pre.Exited {
			acts, resumed = append(acts, pre.Activation), append(resumed, want[i])
		}
	}
	entries := []struct {
		name string
		g    *Graph
		run  func(*Session, int) error
	}{
		{"classify", LinearGraph(cdln), func(s *Session, b int) error {
			for i, rec := range s.ClassifyBatchPolicy(xs[:b], DefaultExitPolicy()) {
				if !rec.Equal(want[i]) {
					return fmt.Errorf("input %d: %+v, reference %+v", i, rec, want[i])
				}
			}
			return nil
		}},
		{"resume", LinearGraph(cdln), func(s *Session, b int) error {
			for i, rec := range s.ResumeBatchPolicyAt(acts[:b], 0, 1, DefaultExitPolicy()) {
				if !rec.Equal(resumed[i]) {
					return fmt.Errorf("input %d: %+v, reference %+v", i, rec, resumed[i])
				}
			}
			return nil
		}},
		{"prefix", LinearGraph(cdln), func(s *Session, b int) error {
			for i, got := range s.ClassifyPrefixBatchPolicy(xs[:b], 1, DefaultExitPolicy()) {
				w := prefixOf(ref, xs[i], 1)
				if got.Exited != w.Exited || got.Exited && !got.Record.Equal(w.Record) ||
					!got.Exited && (got.FromStage != 1 || got.Pos != w.Pos || !tensor.Equal(got.Activation, w.Activation)) {
					return fmt.Errorf("input %d: %+v, reference %+v", i, got, w)
				}
			}
			return nil
		}},
		{"routed", g, func(s *Session, b int) error {
			for i, rec := range s.ClassifyBatchPolicy(xs[:b], DefaultExitPolicy()) {
				if w := routedRef(xs[i]); !rec.Equal(w) {
					return fmt.Errorf("input %d: %+v, reference %+v", i, rec, w)
				}
			}
			return nil
		}},
	}
	for _, tc := range []struct{ procs, bsz, ranges int }{
		{8, 1, 1}, {8, 3, 3}, {8, 9, 5}, {8, 33, 7}, {3, 32, 3}, {2, 5, 2}, {1, 32, 1},
	} {
		runtime.GOMAXPROCS(tc.procs)
		for _, e := range entries {
			sess, err := NewGraphSession(e.g)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.run(sess, tc.bsz); err != nil {
				t.Fatalf("%s, GOMAXPROCS %d, batch %d: %v", e.name, tc.procs, tc.bsz, err)
			}
			if len(sess.lanes) != tc.ranges {
				t.Fatalf("%s, GOMAXPROCS %d, batch %d: %d lanes, want %d", e.name, tc.procs, tc.bsz, len(sess.lanes), tc.ranges)
			}
		}
	}
	nodes := make(map[int]bool)
	for _, x := range xs {
		nodes[routedRef(x).Node] = true
	}
	if len(nodes) != len(g.Nodes) {
		t.Fatalf("the routed inputs exit in nodes %v: every node must see rows", nodes)
	}
}

// eventKey is what an observer must see identically at every core count:
// everything but the clock.
type eventKey struct {
	Kind                StageEventKind
	Node, Stage, Branch int
	Rows                []int
}

// goroutineID parses the calling goroutine's ID from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	var id string
	fmt.Sscanf(string(buf), "goroutine %s", &id)
	return id
}

// TestSessionStageEventsSerial pins the observer contract under the
// fan-out: on a linear and a routed graph at batch 32, the classify and
// prefix walks deliver the identical (Kind, Node, Stage, Branch, Rows)
// sequence at GOMAXPROCS 1, where a call is one range, and at GOMAXPROCS
// 4, where it is four lanes; a route event's rows are the inputs its
// branch classified; and every event arrives on the caller's goroutine.
// The routed batch's first lane holds only inputs the trunk classifies,
// one at its FC, so that the trunk's route events reach the merge from
// later lanes than its FC event.
func TestSessionStageEventsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	routed := arch6Routed(t, 27)
	ref := reference(t, routed, -1)
	var fc, o1, branched []*tensor.T
	for _, x := range spreadImages(200, 12) {
		switch rec := ref(x); {
		case rec.Node > 0:
			branched = append(branched, x)
		case rec.StageIndex == 1:
			fc = append(fc, x)
		default:
			o1 = append(o1, x)
		}
	}
	if len(fc) == 0 || len(o1) < 7 || len(branched) < 24 {
		t.Fatalf("%d trunk FC, %d O1 and %d branch inputs: the batch needs 1, 7 and 24", len(fc), len(o1), len(branched))
	}
	routedXs := append(append(fc[:1], o1[:7]...), branched[:24]...)
	for name, tc := range map[string]struct {
		g  *Graph
		xs []*tensor.T
	}{"linear": {LinearGraph(arch8CDLN(11)), spreadImages(32, 12)}, "routed": {routed, routedXs}} {
		var seqs [2][]eventKey
		kinds := make(map[StageEventKind]bool)
		for k, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			sess, err := NewGraphSession(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			caller := goroutineID()
			sess.SetStageObserver(func(ev StageEvent) {
				if id := goroutineID(); id != caller {
					t.Errorf("%s: event %+v on goroutine %s, caller %s", name, ev, id, caller)
				}
				seqs[k] = append(seqs[k], eventKey{ev.Kind, ev.Node, ev.Stage, ev.Branch, slices.Clone(ev.Rows)})
				kinds[ev.Kind] = true
			})
			recs := sess.ClassifyBatchPolicy(tc.xs, DefaultExitPolicy())
			for _, ev := range seqs[k] { // a route's rows are the inputs its leaf branch classified
				var want []int
				for i, rec := range recs {
					if rec.Node == ev.Branch {
						want = append(want, i)
					}
				}
				if ev.Kind == StageRoute && !slices.Equal(ev.Rows, want) {
					t.Fatalf("%s, GOMAXPROCS %d: route to node %d has rows %v, want %v", name, procs, ev.Branch, ev.Rows, want)
				}
			}
			sess.ClassifyPrefixBatchPolicy(tc.xs, 1, DefaultExitPolicy())
			if len(sess.lanes) != procs {
				t.Fatalf("%s, GOMAXPROCS %d: %d lanes, want %d", name, procs, len(sess.lanes), procs)
			}
		}
		if !reflect.DeepEqual(seqs[0], seqs[1]) {
			t.Fatalf("%s: events at GOMAXPROCS 4\n%v\ndiffer from GOMAXPROCS 1\n%v", name, seqs[1], seqs[0])
		}
		if name == "routed" && !kinds[StageRoute] {
			t.Fatalf("routed: no route event in %v", seqs[0])
		}
	}
}
