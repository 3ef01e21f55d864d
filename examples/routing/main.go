// ROUTING: tree-structured conditional routing — the linear cascade
// generalized to a class-group dispatch tree. The 6-layer trunk keeps its
// O1 early exit for easy inputs; inputs O1 declines to exit are routed by
// O1's own argmax to one of two compact specialist branches (even digits
// vs odd digits, 5 classes each) instead of running the deep trunk tail.
// The example reports accuracy and measured ops/image for the baseline,
// the linear cascade and the routed tree on the uniform test split, then
// re-measures on an even-skewed workload where the cheap branch absorbs
// most of the traffic.
//
// Run with:
//
//	go run ./examples/routing
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cdl/internal/core"
	"cdl/internal/mnist"
	"cdl/internal/nn"
	"cdl/internal/tensor"
	"cdl/internal/train"
)

func main() {
	trainS, testS, err := mnist.GenerateSamples(4000, 1500, 1)
	if err != nil {
		log.Fatal(err)
	}
	groups, err := mnist.ParseGroups("even,odd")
	if err != nil {
		log.Fatal(err)
	}

	// Trunk: the paper's 6-layer baseline with its O1 exit after P1.
	arch := nn.Arch6Layer(rand.New(rand.NewSource(301)))
	tcfg := train.Defaults(arch.NumClasses)
	tcfg.Epochs = 7
	if _, err := train.SGD(arch.Net, trainS, tcfg); err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultBuildConfig()
	cfg.ForceAllStages = true // O1 must exist: it is the router
	trunk, _, err := core.Build(arch, trainS, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Harvest O1's tap activations (δ=2 suppresses every exit, so each
	// training input reaches the tap) and split them by digit parity —
	// the branches train on exactly what the router will hand them.
	sess, err := core.NewSession(trunk)
	if err != nil {
		log.Fatal(err)
	}
	local := make(map[int][2]int) // digit -> (group, local class index)
	for gi, g := range groups {
		for li, d := range g {
			local[d] = [2]int{gi, li}
		}
	}
	branchTrain := make([][]train.Sample, len(groups))
	var tapShape []int
	xs := make([]*tensor.T, len(trainS))
	for i, s := range trainS {
		xs[i] = s.X
	}
	for i, pre := range sess.ClassifyPrefixBatchPolicy(xs, 1, core.ExitPolicy{Delta: 2, MaxExit: -1}) {
		if pre.Exited {
			log.Fatal("δ=2 should never exit")
		}
		tapShape = pre.Activation.Shape()
		gi, li := local[trainS[i].Label][0], local[trainS[i].Label][1]
		branchTrain[gi] = append(branchTrain[gi], train.Sample{X: pre.Activation, Label: li})
	}

	// Specialist branches: one compact conv→pool→dense cascade per digit
	// group over the tap shape, each with its own early exit.
	names := []string{"even", "odd"}
	nodes := []*core.Node{{Name: "trunk", Model: trunk}}
	for gi, g := range groups {
		ba, err := newBranchArch(names[gi], tapShape, len(g), int64(400+gi))
		if err != nil {
			log.Fatal(err)
		}
		btcfg := train.Defaults(ba.NumClasses)
		btcfg.Epochs, btcfg.Seed = 7, int64(500+gi)
		if _, err := train.SGD(ba.Net, branchTrain[gi], btcfg); err != nil {
			log.Fatal(err)
		}
		bcfg := core.DefaultBuildConfig()
		bcfg.ForceAllStages = true
		bc, _, err := core.Build(ba, branchTrain[gi], bcfg)
		if err != nil {
			log.Fatal(err)
		}
		nodes = append(nodes, &core.Node{Name: names[gi], Model: bc, Labels: append([]int(nil), g...)})
	}

	// The router: O1's argmax digit selects the branch owning that digit.
	route := core.Route{Stage: 0, Branch: make([]int, 10)}
	for d := 0; d < 10; d++ {
		route.Branch[d] = 1 + local[d][0]
	}
	nodes[0].Routes = []core.Route{route}
	graph := &core.Graph{Nodes: nodes}

	linear, err := core.NewGraphSession(core.LinearGraph(trunk))
	if err != nil {
		log.Fatal(err)
	}
	routed, err := core.NewGraphSession(graph)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trunk baseline: %.0f ops/image (full forward pass)\n\n", trunk.BaselineOps())
	measure := func(label string, data []train.Sample, delta float64) {
		linAcc, linOps := run(linear, data, delta, nil)
		byNode := map[string]int{}
		rtAcc, rtOps := run(routed, data, delta, byNode)
		fmt.Printf("%s (%d images):\n", label, len(data))
		fmt.Printf("  linear cascade: accuracy %.4f  %8.0f ops/image (%.3f of baseline)\n",
			linAcc, linOps, linOps/trunk.BaselineOps())
		fmt.Printf("  routed tree:    accuracy %.4f  %8.0f ops/image (%.3f of baseline)\n",
			rtAcc, rtOps, rtOps/trunk.BaselineOps())
		fmt.Printf("  resolved by: trunk %d, even %d, odd %d\n\n",
			byNode["trunk"], byNode["even"], byNode["odd"])
	}
	// At the trained δ most inputs exit at O1 and few reach the router; at
	// a strict δ O1 keeps only its most confident exits and the router
	// decides the rest — the regime the specialist branches are for.
	fmt.Printf("── trained δ=%.2f ──\n", trunk.Delta)
	measure("uniform digits", testS, -1)
	const strict = 0.95
	fmt.Printf("── strict δ=%.2f ──\n", strict)
	measure("uniform digits", testS, strict)

	skewed, err := mnist.Generate(mnist.GenConfig{N: 800, Seed: 9, Groups: groups, GroupWeights: []float64{0.8, 0.2}})
	if err != nil {
		log.Fatal(err)
	}
	measure("even-skewed workload (80/20)", mnist.ToSamples(skewed), strict)
}

// run classifies data serially (delta < 0 keeps the trained thresholds),
// returning accuracy and mean ops/image; if byNode is non-nil it counts
// which graph node resolved each image.
func run(sess *core.Session, data []train.Sample, delta float64, byNode map[string]int) (acc, meanOps float64) {
	nodeNames := make([]string, len(sess.Graph().Nodes))
	for i, n := range sess.Graph().Nodes {
		nodeNames[i] = n.Name
	}
	correct := 0
	for _, s := range data {
		rec := sess.ClassifyDelta(s.X, delta)
		if rec.Label == s.Label {
			correct++
		}
		meanOps += rec.Ops
		if byNode != nil {
			byNode[nodeNames[rec.Node]]++
		}
	}
	return float64(correct) / float64(len(data)), meanOps / float64(len(data))
}

// newBranchArch builds a compact specialist subnetwork for a routing-graph
// branch: a conv→pool block over a trunk tap shape [channels, h, w]
// followed by a dense classifier over `classes` outputs, with one early
// exit tapped after the pool. The input shape must equal the parent
// network's shape at the routing stage's tap (Graph.Validate enforces
// this), and `classes` is the branch's local class count — Node.Labels
// maps local classes back to trunk classes.
func newBranchArch(name string, inShape []int, classes int, seed int64) (*nn.Arch, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("branch input shape %v is not [channels, h, w]", inShape)
	}
	c, h, w := inShape[0], inShape[1], inShape[2]
	const k, pool, maps = 3, 2, 8
	hp, wp := (h-k+1)/pool, (w-k+1)/pool
	if c < 1 || hp < 1 || wp < 1 {
		return nil, fmt.Errorf("branch input shape %v too small for a %dx%d conv + %dx%d pool", inShape, k, k, pool, pool)
	}
	net := nn.NewNetwork(append([]int(nil), inShape...),
		nn.NewConv2D(name+".C1", c, maps, k),
		nn.NewSigmoid(name+".C1.act"),
		nn.NewMaxPool2D(name+".P1", pool),
		nn.NewFlatten(name+".flat"),
		nn.NewDense(name+".FC", maps*hp*wp, classes),
		nn.NewSigmoid(name+".FC.act"),
	)
	nn.InitNetwork(net, rand.New(rand.NewSource(seed)))
	a := &nn.Arch{
		Name: name, Net: net,
		Taps: []int{3}, TapNames: []string{name + ".P1"},
		NumClasses: classes,
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("branch arch: %w", err)
	}
	return a, nil
}
