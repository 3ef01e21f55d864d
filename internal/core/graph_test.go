package core

// graph_test.go covers the routed half of the graph walk: a two-branch
// class-group tree (trunk router dispatching digit groups to "lo" and "hi"
// subnetworks) exercised through the structural tables, the reference
// walk, the Session walker at every batch size, tier splits with
// branch-entry handoffs, the path-depth cap, and Validate's rejection of
// every malformed topology.
// The degenerate linear case is pinned separately in linear_equiv_test.go.

import (
	"math/rand"
	"strings"
	"testing"

	"cdl/internal/linclass"
	"cdl/internal/nn"
	"cdl/internal/opcount"
	"cdl/internal/tensor"
)

// rawTrunk builds an untrained two-stage trunk CDLN literally — cheap
// enough for the validation-rejection table, which never classifies.
func rawTrunk(seed int64) *CDLN {
	arch := twoStageArch(seed, 3)
	rng := rand.New(rand.NewSource(seed + 50))
	return &CDLN{
		Arch: arch,
		Stages: []*Stage{
			{Name: "O1", Tap: 3, LC: linclass.New(2*5*5, 3, rng)},
			{Name: "O2", Tap: 6, LC: linclass.New(3*2*2, 3, rng)},
		},
		Delta: 0.5,
		Rule:  ThresholdRule{},
		Ops:   opcount.Default(),
	}
}

// branchCDLN builds a one-stage branch cascade over the trunk's P1 tap
// shape [2,5,5]: B1 2×2 conv (2 maps, 4×4) with an O1 classifier at its
// activation, then FC over the given class count. Untrained — with δ=0.5
// the sigmoid scores land on both sides of the threshold, so branch O1 and
// branch FC exits both occur.
func branchCDLN(seed int64, classes int) *CDLN { return branchOver(seed, classes, 2, 5, 5) }

// branchOver is branchCDLN over a tap of c maps of h×w.
func branchOver(seed int64, classes, c, h, w int) *CDLN {
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork([]int{c, h, w},
		nn.NewConv2D("B1", c, 2, 2),
		nn.NewSigmoid("B1.act"),
		nn.NewFlatten("B.flat"),
		nn.NewDense("BFC", 2*(h-1)*(w-1), classes),
		nn.NewSigmoid("BFC.act"),
	)
	nn.InitNetwork(net, rng)
	arch := &nn.Arch{
		Name: "branch-test", Net: net,
		Taps: []int{2}, TapNames: []string{"B1"},
		NumClasses: classes,
	}
	if err := arch.Validate(); err != nil {
		panic(err)
	}
	return &CDLN{
		Arch:   arch,
		Stages: []*Stage{{Name: "O1", Tap: 2, LC: linclass.New(2*(h-1)*(w-1), classes, rng)}},
		Delta:  0.5,
		Rule:   ThresholdRule{},
		Ops:    opcount.Default(),
	}
}

// passThroughBranch builds a branch over input [2,4,4] whose stage tap
// reproduces the input shape (a leading sigmoid), so two of them can route
// into each other — the building block for the cycle rejection case.
func passThroughBranch(seed int64, target int) *Node {
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork([]int{2, 4, 4},
		nn.NewSigmoid("S"),
		nn.NewFlatten("S.flat"),
		nn.NewDense("SFC", 2*4*4, 3),
		nn.NewSigmoid("SFC.act"),
	)
	nn.InitNetwork(net, rng)
	arch := &nn.Arch{
		Name: "cycle-test", Net: net,
		Taps: []int{1}, TapNames: []string{"S"},
		NumClasses: 3,
	}
	model := &CDLN{
		Arch:   arch,
		Stages: []*Stage{{Name: "O1", Tap: 1, LC: linclass.New(2*4*4, 3, rng)}},
		Delta:  0.5,
		Rule:   ThresholdRule{},
		Ops:    opcount.Default(),
	}
	return &Node{Model: model, Routes: []Route{{Stage: 0, Branch: []int{-1, -1, target}}}}
}

// rawRoutedNodes is the canonical two-branch topology over a given trunk:
// a router at trunk stage 0 dispatches predicted class 0 to "lo" (global
// labels {0,1}) and class 2 to "hi" (label {2}); class 1 continues on the
// trunk.
func rawRoutedNodes(trunk *CDLN, seed int64) []*Node {
	return []*Node{
		{Name: "trunk", Model: trunk, Routes: []Route{{Stage: 0, Branch: []int{1, -1, 2}}}},
		{Name: "lo", Model: branchCDLN(seed+100, 2), Labels: []int{0, 1}},
		{Name: "hi", Model: branchCDLN(seed+200, 1), Labels: []int{2}},
	}
}

// rawRoutedGraph is the untrained two-branch tree, for structural tests.
func rawRoutedGraph(seed int64) *Graph {
	return &Graph{Nodes: rawRoutedNodes(rawTrunk(seed), seed)}
}

// routedGraph is the trained two-branch tree: the batchCDLN trunk (real
// exit-confidence spread over mixedInputs) with the canonical router.
func routedGraph(t testing.TB, seed int64) *Graph {
	t.Helper()
	g := &Graph{Nodes: rawRoutedNodes(batchCDLN(t, seed), seed)}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// routingDeltas are the per-call overrides the routed sweeps run under:
// the trained thresholds, and a near-unreachable δ that suppresses trunk
// exits so nearly every input reaches the router and is dispatched.
var routingDeltas = []float64{-1, 0.999}

func TestRoutedGraphStructure(t *testing.T) {
	g := rawRoutedGraph(41)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.NumExits(); got != 7 {
		t.Fatalf("NumExits = %d, want 7 (trunk 3 + lo 2 + hi 2)", got)
	}
	wantNames := []string{"O1", "O2", "FC", "lo/O1", "lo/FC", "hi/O1", "hi/FC"}
	for i, want := range wantNames {
		if got := g.ExitName(i); got != want {
			t.Errorf("ExitName(%d) = %q, want %q", i, got, want)
		}
	}
	// Global indexing is node-by-node; NodeOfExit inverts the node's base
	// offset plus the local exit.
	for node, locals := range map[int]int{0: 3, 1: 2, 2: 2} {
		for li := 0; li < locals; li++ {
			gi := g.tables().base[node] + li
			gotNode, gotLocal := g.NodeOfExit(gi)
			if gotNode != node || gotLocal != li {
				t.Errorf("NodeOfExit(%d) = (%d,%d), want (%d,%d)", gi, gotNode, gotLocal, node, li)
			}
		}
	}
	// Depth is a path notion: branches enter past the router at depth 1.
	wantDepths := []int{0, 1, 2, 1, 2, 1, 2}
	for i, want := range wantDepths {
		if got := exitDepth(g, i); got != want {
			t.Errorf("exit %d at depth %d, want %d", i, got, want)
		}
	}
	if got := g.MaxDepth(); got != 2 {
		t.Errorf("MaxDepth = %d, want 2", got)
	}
	if p, s := g.ParentOf(0); p != -1 || s != -1 {
		t.Errorf("ParentOf(trunk) = (%d,%d), want (-1,-1)", p, s)
	}
	for _, ni := range []int{1, 2} {
		if p, s := g.ParentOf(ni); p != 0 || s != 0 {
			t.Errorf("ParentOf(%d) = (%d,%d), want (0,0)", ni, p, s)
		}
	}
	// The op table charges each exit its whole root-to-exit path;
	// FoldExitCosts over the nodes' own local tables must rebuild it
	// exactly (energy folds per-branch pJ tables through the same hinge).
	local := make([][]float64, len(g.Nodes))
	for ni, n := range g.Nodes {
		local[ni] = n.Model.ExitOps()
	}
	folded := g.FoldExitCosts(local)
	for i, ops := range g.ExitOps() {
		if folded[i] != ops {
			t.Errorf("FoldExitCosts[%d] = %v, want %v", i, folded[i], ops)
		}
		if ops <= 0 {
			t.Errorf("exit %d ops %v not positive", i, ops)
		}
	}
	// A branch exit is costed past the router: dearer than the router's
	// own exit point.
	if ops := g.ExitOps(); ops[3] <= ops[0] {
		t.Errorf("lo/O1 ops %v not above router exit ops %v", ops[3], ops[0])
	}
	if ni, ok := g.NodeIndex("lo"); !ok || ni != 1 {
		t.Errorf("NodeIndex(lo) = (%d,%v)", ni, ok)
	}
	if ni, ok := g.NodeIndex(""); !ok || ni != 0 {
		t.Errorf("NodeIndex(\"\") = (%d,%v)", ni, ok)
	}
	if _, ok := g.NodeIndex("nope"); ok {
		t.Error("NodeIndex(nope) resolved")
	}
	// MaxExitForOps budgets across every path of the tree.
	ops := g.ExitOps()
	worst := 0.0
	for _, v := range ops {
		if v > worst {
			worst = v
		}
	}
	if cap, err := g.MaxExitForOps(worst); err != nil || cap != g.MaxDepth() {
		t.Errorf("MaxExitForOps(worst) = (%d,%v), want (%d,nil)", cap, err, g.MaxDepth())
	}
	if cap, err := g.MaxExitForOps(ops[0]); err != nil || cap != 0 {
		t.Errorf("MaxExitForOps(cheapest) = (%d,%v), want (0,nil)", cap, err)
	}
	if _, err := g.MaxExitForOps(ops[0] - 1); err == nil {
		t.Error("MaxExitForOps below the cheapest exit succeeded")
	}
}

// TestRoutedGraphSerialWalk drives single inputs through the tree — the
// walker's batch of one against the serial reference walk — and checks
// every record's invariants: the (Node, StageIndex) pair is consistent,
// the name and ops come from the graph tables, and branch labels land in
// the branch's global label group.
func TestRoutedGraphSerialWalk(t *testing.T) {
	g := routedGraph(t, 42)
	sess, err := NewGraphSession(g)
	if err != nil {
		t.Fatal(err)
	}
	exitOps := g.ExitOps()
	labelGroups := map[int][]int{1: {0, 1}, 2: {2}}
	nodesSeen := make(map[int]int)
	for _, delta := range routingDeltas {
		ref := reference(t, g, delta)
		xs := mixedInputs(150, 11)
		for i, x := range xs {
			rec := sess.ClassifyDelta(x, delta)
			assertRecordsMatch(t, "routed-one", i, rec, ref(x))
			node, _ := g.NodeOfExit(rec.StageIndex)
			if node != rec.Node {
				t.Fatalf("input %d: record node %d but exit %d belongs to node %d", i, rec.Node, rec.StageIndex, node)
			}
			if rec.StageName != g.ExitName(rec.StageIndex) {
				t.Fatalf("input %d: name %q, want %q", i, rec.StageName, g.ExitName(rec.StageIndex))
			}
			if rec.Ops != exitOps[rec.StageIndex] {
				t.Fatalf("input %d: ops %v, want %v", i, rec.Ops, exitOps[rec.StageIndex])
			}
			if group, routed := labelGroups[rec.Node]; routed {
				ok := false
				for _, l := range group {
					ok = ok || rec.Label == l
				}
				if !ok {
					t.Fatalf("input %d: node %d predicted label %d outside its group %v", i, rec.Node, rec.Label, group)
				}
			}
			nodesSeen[rec.Node]++
		}
	}
	for ni := range g.Nodes {
		if nodesSeen[ni] == 0 {
			t.Fatalf("no input exited in node %d: %v", ni, nodesSeen)
		}
	}
}

// TestRoutedGraphBatchMatchesSerial is the routed differential: across
// batch sizes and both threshold regimes, the Session walker — three-way
// compaction, per-branch gathers, queued branch groups — must reproduce
// the serial reference walk's record exactly, branch exits included.
func TestRoutedGraphBatchMatchesSerial(t *testing.T) {
	g := routedGraph(t, 43)
	sess, err := NewGraphSession(g)
	if err != nil {
		t.Fatal(err)
	}
	nodesSeen := make(map[int]int)
	seed := int64(300)
	for _, delta := range routingDeltas {
		serial := reference(t, g, delta)
		for _, bsz := range []int{1, 2, 5, 13, 32} {
			xs := mixedInputs(bsz, seed)
			seed++
			recs := sess.ClassifyBatchPolicy(xs, DeltaPolicy(delta))
			for i, x := range xs {
				want := serial(x)
				assertRecordsMatch(t, "routed-batch", i, recs[i], want)
				nodesSeen[want.Node]++
			}
		}
	}
	ref, err := NewGraphSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if nodesSeen[1] == 0 || nodesSeen[2] == 0 {
		t.Fatalf("sweep never exercised both branches: %v", nodesSeen)
	}
	// Trace detail: batched-with-trace equals the batch-of-one reference,
	// trace included, through branch handoffs (a routed row's trace keeps
	// accumulating in its branch group).
	pol := DefaultExitPolicy()
	pol.Delta = 0.999
	pol.Trace = true
	xs := mixedInputs(40, seed)
	recs := sess.ClassifyBatchPolicy(xs, pol)
	for i, x := range xs {
		want := ref.ClassifyBatchPolicy([]*tensor.T{x}, pol)[0]
		assertRecordsIdentical(t, "routed-trace", i, recs[i], want)
		if len(want.Trace) == 0 {
			t.Fatalf("input %d: empty trace", i)
		}
	}
}

// TestRoutedGraphSplitEquivalence pins tier splits through the router:
// for every trunk split stage, prefix+resume — with branch handoffs
// resuming at (branch, 0) — equals the reference walk's monolithic record
// exactly, as batches of one and batched, and every split that contains
// the router stage hands inputs off at a branch entry.
func TestRoutedGraphSplitEquivalence(t *testing.T) {
	g := routedGraph(t, 44)
	sess, err := NewGraphSession(g)
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := NewGraphSession(g)
	if err != nil {
		t.Fatal(err)
	}
	type handoff struct{ node, from int }
	for _, delta := range routingDeltas {
		ref := reference(t, g, delta)
		pol := DeltaPolicy(delta)
		xs := mixedInputs(60, 13)
		want := make([]ExitRecord, len(xs))
		for i, x := range xs {
			want[i] = ref(x)
		}
		for split := 0; split <= len(g.Trunk().Stages); split++ {
			for _, bsz := range []int{1, 60} {
				branchHandoffs, base := 0, 0
				for _, chunk := range chunks(xs, bsz) {
					deferred := make(map[handoff][]*tensor.T)
					deferredIdx := make(map[handoff][]int)
					for k, pre := range sess.ClassifyPrefixBatchPolicy(chunk, split, pol) {
						i := base + k
						if pre.Exited {
							assertRecordsMatch(t, "routed-split-local", i, pre.Record, want[i])
							continue
						}
						if want := g.Nodes[pre.Node].Model.SplitPos(pre.FromStage); pre.Pos != want {
							t.Fatalf("split %d input %d: handoff pos %d, want %d", split, i, pre.Pos, want)
						}
						if pre.Node > 0 {
							if pre.FromStage != 0 {
								t.Fatalf("split %d input %d: branch handoff resumes at stage %d, want 0", split, i, pre.FromStage)
							}
							branchHandoffs++
						} else if pre.FromStage != split {
							t.Fatalf("split %d input %d: trunk handoff resumes at stage %d", split, i, pre.FromStage)
						}
						h := handoff{pre.Node, pre.FromStage}
						deferred[h] = append(deferred[h], pre.Activation)
						deferredIdx[h] = append(deferredIdx[h], i)
					}
					for h, acts := range deferred {
						resumed := cloud.ResumeBatchPolicyAt(acts, h.node, h.from, pol)
						for j, i := range deferredIdx[h] {
							assertRecordsMatch(t, "routed-split-resumed", i, resumed[j], want[i])
						}
					}
					base += len(chunk)
				}
				// The router sits at trunk stage 0: any edge that owns it
				// must see branch-entry handoffs; an edge that owns nothing
				// cannot.
				if (split > 0) != (branchHandoffs > 0) {
					t.Fatalf("split %d δ=%v batch %d: %d branch-entry handoffs", split, delta, bsz, branchHandoffs)
				}
			}
		}
	}
}

// exitDepth is global exit i's path depth: the exit points an input
// evaluates before exiting there, router classifiers included — the depth
// the walker caps (its node's entry depth plus the local exit).
func exitDepth(g *Graph, i int) int {
	node, local := g.NodeOfExit(i)
	return g.EntryDepth(node) + local
}

// TestRoutedGraphDepthCap pins MaxExit's path-depth semantics on the tree:
// the cap bounds exits per root-to-exit path — a routed input is forced
// out at the branch stage that sits at the cap depth, not at a global
// stage index — and batched results under the cap equal the batch-of-one
// reference.
func TestRoutedGraphDepthCap(t *testing.T) {
	g := routedGraph(t, 45)
	sess, err := NewGraphSession(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewGraphSession(g)
	if err != nil {
		t.Fatal(err)
	}
	for cap := 0; cap <= g.MaxDepth(); cap++ {
		pol := DepthCapped(cap)
		pol.Delta = 0.999 // route-heavy: exercise forced exits inside branches
		exitsSeen := make(map[int]int)
		for _, bsz := range []int{1, 7, 24} {
			xs := mixedInputs(bsz, int64(500+cap*10+bsz))
			recs := sess.ClassifyBatchPolicy(xs, pol)
			for i, x := range xs {
				want := ref.ClassifyBatchPolicy([]*tensor.T{x}, pol)[0]
				assertRecordsMatch(t, "depth-cap", i, recs[i], want)
				if d := exitDepth(g, recs[i].StageIndex); d > cap {
					t.Fatalf("cap %d: input %d exited at depth %d (exit %d)", cap, i, d, recs[i].StageIndex)
				}
				exitsSeen[recs[i].StageIndex]++
			}
		}
		if cap == 0 && (len(exitsSeen) != 1 || exitsSeen[0] == 0) {
			t.Fatalf("cap 0 exits %v, want all at the router stage", exitsSeen)
		}
		if cap == 1 && exitsSeen[3] == 0 && exitsSeen[5] == 0 {
			t.Fatalf("cap 1 exits %v never forced a branch stage", exitsSeen)
		}
	}
	// A cap below the resume point's path depth is unservable and panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("resume below the cap did not panic")
			}
		}()
		act := tensor.New(2, 5, 5)
		sess.ResumeBatchPolicyAt([]*tensor.T{act}, 1, 0, DepthCapped(0))
	}()
}

// TestBatchOfOneStageEventRows pins the observer contract now that every
// walk is batched: a single input is row 0 of a batch of one, so every
// event kind — forward, route, final, forced — reports Rows == []int{0},
// never nil, on the monolithic walk and on the prefix walk alike.
func TestBatchOfOneStageEventRows(t *testing.T) {
	g := routedGraph(t, 46)
	sess, err := NewGraphSession(g)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[StageEventKind]int)
	sess.SetStageObserver(func(ev StageEvent) {
		if len(ev.Rows) != 1 || ev.Rows[0] != 0 {
			t.Errorf("event kind %d (node %d stage %d): Rows = %v, want [0]", ev.Kind, ev.Node, ev.Stage, ev.Rows)
		}
		seen[ev.Kind]++
	})
	defer sess.SetStageObserver(nil)
	routeHeavy := DeltaPolicy(0.999) // suppress exits: forward, route, final
	capped := DepthCapped(1)         // forced exits at depth 1, branches included
	capped.Delta = 0.999
	for _, x := range mixedInputs(30, 17) {
		sess.Classify(x)
		sess.ClassifyBatchPolicy([]*tensor.T{x}, routeHeavy)
		sess.ClassifyBatchPolicy([]*tensor.T{x}, capped)
		sess.ClassifyPrefixBatchPolicy([]*tensor.T{x}, 2, routeHeavy)
		sess.ClassifyPrefixBatchPolicy([]*tensor.T{x}, 2, capped)
	}
	for _, kind := range []StageEventKind{StageForward, StageRoute, StageFinal, StageForced} {
		if seen[kind] == 0 {
			t.Errorf("no event of kind %d observed: %v", kind, seen)
		}
	}
}

// TestGraphValidateRejects is the malformed-topology table: every way a
// graph can fail Validate, with the message pinned by substring.
func TestGraphValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		g    func() *Graph
		want string
	}{
		{"no nodes", func() *Graph { return &Graph{} }, "no nodes"},
		{"nil model", func() *Graph {
			g := rawRoutedGraph(60)
			g.Nodes[1].Model = nil
			return g
		}, "nil or has no model"},
		{"unnamed branch", func() *Graph {
			g := rawRoutedGraph(61)
			g.Nodes[1].Name = ""
			return g
		}, "has no name"},
		{"duplicate name", func() *Graph {
			g := rawRoutedGraph(62)
			g.Nodes[2].Name = "lo"
			return g
		}, "share the name"},
		{"label count", func() *Graph {
			g := rawRoutedGraph(63)
			g.Nodes[1].Labels = []int{0}
			return g
		}, "1 labels for 2 classes"},
		{"label range", func() *Graph {
			g := rawRoutedGraph(64)
			g.Nodes[1].Labels = []int{0, 3}
			return g
		}, "outside [0,3)"},
		{"duplicate label", func() *Graph {
			g := rawRoutedGraph(65)
			g.Nodes[1].Labels = []int{1, 1}
			return g
		}, "maps two classes to label 1"},
		{"narrow branch without labels", func() *Graph {
			g := rawRoutedGraph(66)
			g.Nodes[1].Labels = nil
			return g
		}, "no label mapping"},
		{"route stage out of range", func() *Graph {
			g := rawRoutedGraph(67)
			g.Nodes[0].Routes[0].Stage = 5
			return g
		}, "route at stage 5 outside"},
		{"two routes one stage", func() *Graph {
			g := rawRoutedGraph(68)
			g.Nodes[0].Routes = append(g.Nodes[0].Routes, Route{Stage: 0, Branch: []int{-1, -1, -1}})
			return g
		}, "two routes at stage 0"},
		{"branch cell count", func() *Graph {
			g := rawRoutedGraph(69)
			g.Nodes[0].Routes[0].Branch = []int{1, -1}
			return g
		}, "2 branch cells for 3 classes"},
		{"route targets the trunk", func() *Graph {
			g := rawRoutedGraph(70)
			g.Nodes[0].Routes[0].Branch[1] = 0
			return g
		}, "targets node 0 outside"},
		{"route target out of range", func() *Graph {
			g := rawRoutedGraph(71)
			g.Nodes[0].Routes[0].Branch[1] = 9
			return g
		}, "targets node 9 outside"},
		{"merge", func() *Graph {
			g := rawRoutedGraph(72)
			g.Nodes[0].Routes = append(g.Nodes[0].Routes, Route{Stage: 1, Branch: []int{1, -1, -1}})
			return g
		}, "targeted by two routes"},
		{"orphan", func() *Graph {
			g := rawRoutedGraph(73)
			g.Nodes[0].Routes = nil
			return g
		}, "no route targets it"},
		{"branch shape mismatch", func() *Graph {
			g := rawRoutedGraph(74)
			bad := passThroughBranch(74, -1)
			bad.Name, bad.Routes = "lo", nil
			g.Nodes[1] = bad
			return g
		}, "does not match parent tap shape"},
		{"cycle", func() *Graph {
			b1, b2 := passThroughBranch(75, 2), passThroughBranch(76, 1)
			b1.Name, b2.Name = "b1", "b2"
			return &Graph{Nodes: []*Node{{Name: "trunk", Model: rawTrunk(77)}, b1, b2}}
		}, "route cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.g().Validate()
			if err == nil {
				t.Fatal("Validate accepted a malformed graph")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestGraphWithBranch covers the hot-swap primitive: an individual branch
// is replaced atomically in a validated copy, the source graph untouched,
// and an incompatible replacement never displaces the serving one.
func TestGraphWithBranch(t *testing.T) {
	g := rawRoutedGraph(80)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	oldLo := g.Nodes[1].Model
	swapped, err := g.WithBranch("lo", branchCDLN(81, 2))
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes[1].Model != oldLo {
		t.Fatal("WithBranch mutated the source graph")
	}
	if swapped.Nodes[1].Model == oldLo {
		t.Fatal("WithBranch did not replace the branch")
	}
	if err := swapped.Validate(); err != nil {
		t.Fatal(err)
	}
	// Wrong class count for the node's label group.
	if _, err := g.WithBranch("lo", branchCDLN(82, 3)); err == nil {
		t.Fatal("incompatible branch accepted")
	}
	// Wrong input shape for the parent tap.
	if _, err := g.WithBranch("lo", passThroughBranch(83, -1).Model); err == nil {
		t.Fatal("shape-mismatched branch accepted")
	}
	if _, err := g.WithBranch("nope", branchCDLN(84, 2)); err == nil {
		t.Fatal("unknown branch name accepted")
	}
	// The trunk swaps through the same surface ("" or its name).
	if _, err := g.WithBranch("", rawTrunk(85)); err != nil {
		t.Fatalf("trunk swap via \"\": %v", err)
	}
	if _, err := g.WithBranch("trunk", rawTrunk(86)); err != nil {
		t.Fatalf("trunk swap via name: %v", err)
	}
}

// Routing benchmarks (`go test -run '^$' -bench GraphClassifyBatch
// ./internal/core`): the routed tree against the linear trunk on the
// identical input stream, batched.

func benchClassifyBatch(b *testing.B, g *Graph, delta float64) {
	b.Helper()
	sess, err := NewGraphSession(g)
	if err != nil {
		b.Fatal(err)
	}
	const bsz = 32
	xs := mixedInputs(bsz, 99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.ClassifyBatchPolicy(xs, DeltaPolicy(delta))
	}
	b.ReportMetric(float64(bsz*b.N)/b.Elapsed().Seconds(), "images/s")
}

// BenchmarkRoutedGraphClassifyBatch measures the tree under route-heavy
// traffic: δ=0.999 suppresses trunk exits, so nearly every input crosses
// the router into a branch cascade.
func BenchmarkRoutedGraphClassifyBatch(b *testing.B) {
	benchClassifyBatch(b, routedGraph(b, 90), 0.999)
}

// BenchmarkLinearGraphClassifyBatch is the degenerate-case baseline: the
// same trunk as a one-node graph with its trained thresholds.
func BenchmarkLinearGraphClassifyBatch(b *testing.B) {
	benchClassifyBatch(b, LinearGraph(batchCDLN(b, 90)), -1)
}
