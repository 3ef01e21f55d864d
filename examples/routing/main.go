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

	"cdl"
	"cdl/internal/tensor"
)

func main() {
	trainS, testS, err := cdl.GenerateMNIST(4000, 1500, 1)
	if err != nil {
		log.Fatal(err)
	}
	groups, err := cdl.ParseDigitGroups("even,odd")
	if err != nil {
		log.Fatal(err)
	}

	// Trunk: the paper's 6-layer baseline with its O1 exit after P1.
	arch := cdl.NewArch6(301)
	if err := cdl.TrainBaseline(arch, trainS, 7, 1); err != nil {
		log.Fatal(err)
	}
	cfg := cdl.DefaultBuildConfig()
	cfg.ForceAllStages = true // O1 must exist: it is the router
	trunk, _, err := cdl.BuildCDLN(arch, trainS, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Harvest O1's tap activations (δ=2 suppresses every exit, so each
	// training input reaches the tap) and split them by digit parity —
	// the branches train on exactly what the router will hand them.
	sess, err := cdl.NewSession(trunk)
	if err != nil {
		log.Fatal(err)
	}
	local := make(map[int][2]int) // digit -> (group, local class index)
	for gi, g := range groups {
		for li, d := range g {
			local[d] = [2]int{gi, li}
		}
	}
	branchTrain := make([][]cdl.Sample, len(groups))
	var tapShape []int
	xs := make([]*tensor.T, len(trainS))
	for i, s := range trainS {
		xs[i] = s.X
	}
	for i, pre := range sess.ClassifyPrefixBatchPolicy(xs, 1, cdl.ExitPolicy{Delta: 2, MaxExit: -1}) {
		if pre.Exited {
			log.Fatal("δ=2 should never exit")
		}
		tapShape = pre.Activation.Shape()
		gi, li := local[trainS[i].Label][0], local[trainS[i].Label][1]
		branchTrain[gi] = append(branchTrain[gi], cdl.Sample{X: pre.Activation, Label: li})
	}

	// Specialist branches: one compact conv→pool→dense cascade per digit
	// group over the tap shape, each with its own early exit.
	names := []string{"even", "odd"}
	nodes := []*cdl.GraphNode{{Name: "trunk", Model: trunk}}
	for gi, g := range groups {
		ba, err := cdl.NewBranchArch(names[gi], tapShape, len(g), int64(400+gi))
		if err != nil {
			log.Fatal(err)
		}
		if err := cdl.TrainBaseline(ba, branchTrain[gi], 7, int64(500+gi)); err != nil {
			log.Fatal(err)
		}
		bcfg := cdl.DefaultBuildConfig()
		bcfg.ForceAllStages = true
		bc, _, err := cdl.BuildCDLN(ba, branchTrain[gi], bcfg)
		if err != nil {
			log.Fatal(err)
		}
		nodes = append(nodes, &cdl.GraphNode{Name: names[gi], Model: bc, Labels: append([]int(nil), g...)})
	}

	// The router: O1's argmax digit selects the branch owning that digit.
	route := cdl.Route{Stage: 0, Branch: make([]int, 10)}
	for d := 0; d < 10; d++ {
		route.Branch[d] = 1 + local[d][0]
	}
	nodes[0].Routes = []cdl.Route{route}
	graph := &cdl.Graph{Nodes: nodes}

	linear, err := cdl.NewGraphSession(cdl.LinearGraph(trunk))
	if err != nil {
		log.Fatal(err)
	}
	routed, err := cdl.NewGraphSession(graph)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trunk baseline: %.0f ops/image (full forward pass)\n\n", trunk.BaselineOps())
	measure := func(label string, data []cdl.Sample, delta float64) {
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

	skewed, err := cdl.GenerateMNISTGrouped(800, 9, groups, []float64{0.8, 0.2})
	if err != nil {
		log.Fatal(err)
	}
	measure("even-skewed workload (80/20)", cdl.ImagesToSamples(skewed), strict)
}

// run classifies data serially (delta < 0 keeps the trained thresholds),
// returning accuracy and mean ops/image; if byNode is non-nil it counts
// which graph node resolved each image.
func run(sess *cdl.Session, data []cdl.Sample, delta float64, byNode map[string]int) (acc, meanOps float64) {
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
