package core

// graph.go generalizes the linear cascade into a merge-free tree of
// conditional subnetworks — the "models in-between" direction of Ioannou et
// al. 2016 applied to the paper's CDLN. A Graph is a set of Nodes; node 0
// is the trunk (the classic CDLN), and any stage of any node may carry a
// Route that maps the stage classifier's predicted class to a branch
// subnetwork specialized for a class group. An input walks Algorithm 2
// down the trunk; when a router stage declines to exit, the stage's argmax
// decides whether the input keeps descending the trunk or is dispatched to
// a branch, which runs its own cascade over the routed activation.
//
// The linear cascade is the degenerate one-node graph (LinearGraph), and
// both definitions of the walk — the reference (Graph.classify, cdln.go)
// and the Session walker (batch.go), monolithic or tier-split — produce
// bit-identical ExitRecords for it: a node with no routes runs exactly the
// pre-graph stage loop, evaluating no extra operations. The golden and
// differential harnesses in graph_test.go and linear_equiv_test.go pin
// this.
//
// Exit points are numbered globally, node by node in declaration order:
// node 0's stages then its FC, node 1's stages then its FC, and so on. For
// a linear graph the numbering coincides with the classic StageIndex, so
// every consumer of per-exit tables (metrics, energy accumulators, control
// telemetry) keeps working unchanged. Depth, by contrast, is a per-path
// notion: the depth of an exit is the number of exit points evaluated
// before it on its root-to-exit path, which is what ExitPolicy.MaxExit
// caps (see Graph.maxExit).

import (
	"fmt"
	"math"
)

// Route attaches class-group dispatch to one stage of a node: when the
// stage's activation module declines to exit, the stage classifier's
// argmax class selects Branch[class] — a branch node index to hand the
// activation to, or -1 to continue down the owning node.
type Route struct {
	// Stage is the index of the routing stage within the owning node.
	Stage int
	// Branch maps the stage classifier's predicted class (the owning
	// node's local class index) to the target node, -1 meaning "continue
	// on this node". Its length must equal the stage classifier's output
	// width.
	Branch []int
}

// Node is one subnetwork of a routing graph: a full CDLN (its stages, δ
// and exit rule apply node-locally) plus the routes that dispatch
// undecided inputs to branches.
type Node struct {
	// Name identifies the node; branch names appear in qualified exit
	// names ("even/O1"), the serve branch hot-swap surface and /statsz.
	// Required and unique for branch nodes; optional for the trunk.
	Name string
	// Model is the node's cascade. A branch's input shape must equal the
	// parent network's shape at the routing stage's tap.
	Model *CDLN
	// Labels maps the node's local class index to the trunk's global
	// class space, so a branch may be narrower than the trunk (an
	// even-digits branch classifies 5 classes, not 10). nil means the
	// identity mapping (the node predicts trunk classes directly).
	Labels []int
	// Routes are the node's dispatch points, at most one per stage.
	Routes []Route
}

// Graph is a merge-free tree of conditional subnetworks rooted at the
// trunk Nodes[0]. Construct it literally (or via LinearGraph), then call
// Validate before use; the derived routing tables are cached on first
// validation, after which the graph must be treated as immutable — like
// CDLN, share it across goroutines only through Sessions.
type Graph struct {
	Nodes []*Node

	tab *graphTables
}

// graphTables are the derived lookups every walk uses: parentage, global
// exit numbering, per-exit cumulative op costs and path depths.
type graphTables struct {
	parent      []int // parent node index, -1 for the trunk
	parentStage []int // routing stage in the parent, -1 for the trunk
	entryDepth  []int // exit points evaluated on the path before the node
	order       []int // node indices in BFS order from the trunk: parents first
	base        []int // global index of each node's exit 0
	exitOps     []float64
	exitNames   []string
	exitNode    []int
	exitLocal   []int
	maxDepth    int
	routeAt     [][]*Route
	byName      map[string]int
	resumeShape [][][]int // [node][fromStage]: the activation a resume there takes
}

// LinearGraph wraps a linear CDLN in the trivial one-node graph — the
// degenerate special case every pre-graph entry point maps onto.
func LinearGraph(c *CDLN) *Graph {
	return &Graph{Nodes: []*Node{{Name: "trunk", Model: c}}}
}

// Trunk returns the root node's cascade.
func (g *Graph) Trunk() *CDLN { return g.Nodes[0].Model }

// IsLinear reports whether the graph is a single routeless node — the
// degenerate case whose serialization and wire encodings stay in the
// pre-graph v1 formats.
func (g *Graph) IsLinear() bool {
	return len(g.Nodes) == 1 && len(g.Nodes[0].Routes) == 0
}

// Validate checks structural consistency — every node's CDLN, route
// targets, tree topology (no cycles, no orphans, no merges), branch input
// shapes and label mappings — and builds the derived routing tables. It
// must succeed before the graph is walked; NewGraphSession calls it.
func (g *Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("core: graph has no nodes")
	}
	trunkClasses := 0
	byName := make(map[string]int, len(g.Nodes))
	for ni, n := range g.Nodes {
		if n == nil || n.Model == nil {
			return fmt.Errorf("core: graph node %d is nil or has no model", ni)
		}
		if err := n.Model.Validate(); err != nil {
			return fmt.Errorf("core: graph node %d (%s): %w", ni, n.Name, err)
		}
		if ni == 0 {
			trunkClasses = n.Model.Arch.NumClasses
		}
		if ni > 0 && n.Name == "" {
			return fmt.Errorf("core: graph branch node %d has no name", ni)
		}
		if n.Name != "" {
			if prev, dup := byName[n.Name]; dup {
				return fmt.Errorf("core: graph nodes %d and %d share the name %q", prev, ni, n.Name)
			}
			byName[n.Name] = ni
		}
		if n.Labels == nil {
			if n.Model.Arch.NumClasses != trunkClasses {
				return fmt.Errorf("core: graph node %d (%s) has %d classes but no label mapping onto the trunk's %d",
					ni, n.Name, n.Model.Arch.NumClasses, trunkClasses)
			}
		} else {
			if len(n.Labels) != n.Model.Arch.NumClasses {
				return fmt.Errorf("core: graph node %d (%s) has %d labels for %d classes",
					ni, n.Name, len(n.Labels), n.Model.Arch.NumClasses)
			}
			seen := make(map[int]bool, len(n.Labels))
			for li, l := range n.Labels {
				if l < 0 || l >= trunkClasses {
					return fmt.Errorf("core: graph node %d (%s) label %d maps to %d outside [0,%d)",
						ni, n.Name, li, l, trunkClasses)
				}
				if seen[l] {
					return fmt.Errorf("core: graph node %d (%s) maps two classes to label %d", ni, n.Name, l)
				}
				seen[l] = true
			}
		}
	}

	// Route structure plus the unique-parent half of the tree check: each
	// branch node is targeted by exactly one route (possibly by several
	// class cells of that route), so parentage — and with it entry depth
	// and entry cost — is well-defined.
	parent := make([]int, len(g.Nodes))
	parentStage := make([]int, len(g.Nodes))
	for i := range parent {
		parent[i], parentStage[i] = -1, -1
	}
	routeAt := make([][]*Route, len(g.Nodes))
	for ni, n := range g.Nodes {
		routeAt[ni] = make([]*Route, len(n.Model.Stages))
		for ri := range n.Routes {
			r := &n.Routes[ri]
			if r.Stage < 0 || r.Stage >= len(n.Model.Stages) {
				return fmt.Errorf("core: graph node %d (%s) route at stage %d outside [0,%d)",
					ni, n.Name, r.Stage, len(n.Model.Stages))
			}
			if routeAt[ni][r.Stage] != nil {
				return fmt.Errorf("core: graph node %d (%s) has two routes at stage %d", ni, n.Name, r.Stage)
			}
			if want := n.Model.Stages[r.Stage].LC.Out; len(r.Branch) != want {
				return fmt.Errorf("core: graph node %d (%s) route at stage %d has %d branch cells for %d classes",
					ni, n.Name, r.Stage, len(r.Branch), want)
			}
			routeAt[ni][r.Stage] = r
			for class, t := range r.Branch {
				if t == -1 {
					continue
				}
				if t <= 0 || t >= len(g.Nodes) {
					return fmt.Errorf("core: graph node %d (%s) route at stage %d class %d targets node %d outside (0,%d)",
						ni, n.Name, r.Stage, class, t, len(g.Nodes))
				}
				if parent[t] != -1 && (parent[t] != ni || parentStage[t] != r.Stage) {
					return fmt.Errorf("core: graph node %d (%s) targeted by two routes (nodes %d and %d) — branches must form a tree",
						t, g.Nodes[t].Name, parent[t], ni)
				}
				parent[t], parentStage[t] = ni, r.Stage
				// The routed activation is the parent's tap output at the
				// router stage; the branch network must accept it as-is.
				wantShape := n.Model.Arch.Net.ShapeAt(n.Model.Stages[r.Stage].Tap)
				gotShape := g.Nodes[t].Model.Arch.Net.InShape
				if !equalShape(wantShape, gotShape) {
					return fmt.Errorf("core: graph node %d (%s) input shape %v does not match parent tap shape %v",
						t, g.Nodes[t].Name, gotShape, wantShape)
				}
			}
		}
	}
	for ni := 1; ni < len(g.Nodes); ni++ {
		if parent[ni] == -1 {
			return fmt.Errorf("core: graph node %d (%s) is an orphan — no route targets it", ni, g.Nodes[ni].Name)
		}
	}
	// Reachability from the trunk completes the tree check: with unique
	// parents, an unreachable node means a parent cycle detached from the
	// root.
	reached := make([]bool, len(g.Nodes))
	reached[0] = true
	order := make([]int, 0, len(g.Nodes))
	order = append(order, 0)
	for qi := 0; qi < len(order); qi++ {
		ni := order[qi]
		for _, r := range routeAt[ni] {
			if r == nil {
				continue
			}
			for _, t := range r.Branch {
				if t > 0 && !reached[t] {
					reached[t] = true
					order = append(order, t)
				}
			}
		}
	}
	for ni := range g.Nodes {
		if !reached[ni] {
			return fmt.Errorf("core: graph node %d (%s) is unreachable from the trunk — route cycle", ni, g.Nodes[ni].Name)
		}
	}

	// Derived tables, in BFS order so parents come before children.
	tab := &graphTables{
		parent:      parent,
		parentStage: parentStage,
		entryDepth:  make([]int, len(g.Nodes)),
		order:       order,
		base:        make([]int, len(g.Nodes)),
		routeAt:     routeAt,
		byName:      byName,
	}
	localOps := make([][]float64, len(g.Nodes))
	tab.resumeShape = make([][][]int, len(g.Nodes))
	nExits := 0
	for ni, n := range g.Nodes {
		tab.base[ni] = nExits
		nExits += len(n.Model.Stages) + 1
		localOps[ni] = n.Model.ExitOps()
		for k := 0; k <= len(n.Model.Stages); k++ {
			tab.resumeShape[ni] = append(tab.resumeShape[ni], n.Model.Arch.Net.ShapeAt(n.Model.SplitPos(k)))
		}
	}
	tab.exitOps = tab.fold(localOps, nExits)
	tab.exitNames = make([]string, nExits)
	tab.exitNode = make([]int, nExits)
	tab.exitLocal = make([]int, nExits)
	for _, ni := range order {
		n := g.Nodes[ni]
		if p := parent[ni]; p >= 0 {
			// An input enters the branch having evaluated the parent path's
			// exits through the router stage.
			tab.entryDepth[ni] = tab.entryDepth[p] + parentStage[ni] + 1
		}
		for li := 0; li <= len(n.Model.Stages); li++ {
			gi := tab.base[ni] + li
			tab.exitNode[gi] = ni
			tab.exitLocal[gi] = li
			name := n.Model.ExitName(li)
			if ni > 0 {
				name = n.Name + "/" + name
			}
			tab.exitNames[gi] = name
		}
		if d := tab.entryDepth[ni] + len(n.Model.Stages); d > tab.maxDepth {
			tab.maxDepth = d
		}
	}
	g.tab = tab
	return nil
}

// fold lifts per-node local exit costs (local[n][j]: node n's exit j,
// counted from the node's own entry) into the global per-exit table of
// nExits entries. Each global exit is charged its whole root-to-exit path:
// the parent path's cost through the router stage (classifier included,
// since routing consults its scores) plus the node's own. Walking the BFS
// order costs every parent before its children.
func (t *graphTables) fold(local [][]float64, nExits int) []float64 {
	entry := make([]float64, len(t.order))
	out := make([]float64, nExits)
	for _, ni := range t.order {
		if p := t.parent[ni]; p >= 0 {
			entry[ni] = entry[p] + local[p][t.parentStage[ni]]
		}
		for li, c := range local[ni] {
			out[t.base[ni]+li] = entry[ni] + c
		}
	}
	return out
}

// tables returns the derived routing tables, validating on first use.
// Accessors panic on an invalid graph — network-facing callers validate
// explicitly first, as with CDLN.
func (g *Graph) tables() *graphTables {
	if g.tab == nil {
		if err := g.Validate(); err != nil {
			panic(fmt.Sprintf("core: invalid graph: %v", err))
		}
	}
	return g.tab
}

func equalShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NumExits returns the number of exit points across all nodes (each node's
// stages plus its FC terminator). For a linear graph this equals the
// trunk's NumExits, and global exit indices coincide with the classic
// linear StageIndex.
func (g *Graph) NumExits() int { return len(g.tables().exitOps) }

// ExitName returns the display name of global exit point i — the node's
// local exit name, qualified with the branch name for non-trunk nodes
// ("even/O1", "even/FC").
func (g *Graph) ExitName(i int) string { return g.tables().exitNames[i] }

// ExitOps returns a copy of the per-exit dynamic op cost table in global
// exit order: the cost of the whole root-to-exit path (parent layers and
// classifiers through the router, then the branch's own).
func (g *Graph) ExitOps() []float64 {
	return append([]float64(nil), g.tables().exitOps...)
}

// BaselineOps returns the trunk's unconditioned full-pass cost — the
// normalization denominator, as for a linear CDLN.
func (g *Graph) BaselineOps() float64 { return g.Trunk().BaselineOps() }

// MaxDepth returns the depth of the deepest exit point on any
// root-to-leaf path: the number of cascade stages evaluated before the
// deepest FC. For a linear graph this is len(Stages), so
// ExitPolicy.MaxExit keeps its exact pre-graph meaning.
func (g *Graph) MaxDepth() int { return g.tables().maxDepth }

// NodeOfExit resolves a global exit index to its (node, local exit) pair.
func (g *Graph) NodeOfExit(i int) (node, local int) {
	t := g.tables()
	return t.exitNode[i], t.exitLocal[i]
}

// EntryDepth returns the path depth at which inputs enter the node (0 for
// the trunk).
func (g *Graph) EntryDepth(node int) int { return g.tables().entryDepth[node] }

// ParentOf returns the node's parent and the parent stage whose route
// targets it, or (-1, -1) for the trunk.
func (g *Graph) ParentOf(node int) (parent, stage int) {
	t := g.tables()
	return t.parent[node], t.parentStage[node]
}

// FoldExitCosts lifts per-node local exit-cost vectors into the global
// per-exit cost table: local[n][j] is the cost of node n's exit j counted
// from the node's own entry (the shape CDLN.ExitOps and
// energy.ExitEnergies produce), and the result charges each global exit
// its whole root-to-exit path — parent costs through the router stage
// (classifier included, since routing consults its scores) plus the
// node's own. This is exactly how the graph's op table is derived, made
// available so other additive cost models (pJ, latency) fold identically.
func (g *Graph) FoldExitCosts(local [][]float64) []float64 {
	t := g.tables()
	if len(local) != len(g.Nodes) {
		panic(fmt.Sprintf("core: %d cost vectors for %d nodes", len(local), len(g.Nodes)))
	}
	for ni, n := range g.Nodes {
		if len(local[ni]) != len(n.Model.Stages)+1 {
			panic(fmt.Sprintf("core: node %d cost vector has %d entries for %d exits",
				ni, len(local[ni]), len(n.Model.Stages)+1))
		}
	}
	return t.fold(local, len(t.exitOps))
}

// NodeIndex resolves a node name ("" resolves to the trunk).
func (g *Graph) NodeIndex(name string) (int, bool) {
	if name == "" {
		return 0, true
	}
	ni, ok := g.tables().byName[name]
	return ni, ok
}

// routeFor returns the route at a node's stage, or nil.
func (g *Graph) routeFor(node, stage int) *Route { return g.tables().routeAt[node][stage] }

// exitRecord builds the record of an exit taken at a node's local exit
// point (stage index, or the stage count for FC): global index, qualified
// name and whole-path op cost from the tables, the node-local predicted
// class lifted into the trunk's label space.
func (g *Graph) exitRecord(node, local, class int, conf float64) ExitRecord {
	t := g.tables()
	gi := t.base[node] + local
	if labels := g.Nodes[node].Labels; labels != nil {
		class = labels[class]
	}
	return ExitRecord{
		Node:       node,
		StageIndex: gi,
		StageName:  t.exitNames[gi],
		Label:      class,
		Confidence: conf,
		Ops:        t.exitOps[gi],
	}
}

// ValidateResume checks a tier-split handoff against this graph: the node
// must exist and (fromStage, pos, shape) must satisfy the node model's
// validateResume against the graph tables' shapes. It is the graph form of the one validation shared by
// every resume entry point — Session.ResumeBatchPolicyAt, the serve resume
// handlers and the edgecloud Loopback.
func (g *Graph) ValidateResume(node, fromStage, pos int, shape []int) error {
	g.tables()
	if node < 0 || node >= len(g.Nodes) {
		return fmt.Errorf("core: resume node %d outside [0,%d)", node, len(g.Nodes))
	}
	if err := g.Nodes[node].Model.validateResume(g.tab.resumeShape[node], fromStage, pos, shape); err != nil {
		if node > 0 {
			return fmt.Errorf("core: branch %s: %w", g.Nodes[node].Name, err)
		}
		return err
	}
	return nil
}

// maxExit normalizes a policy's depth cap against this graph: negative or
// beyond-the-deepest-path caps mean no cap. The cap is per path: an input
// that has evaluated MaxExit exit points exits at the next one
// unconditionally, whichever node it is in.
func (g *Graph) maxExit(p ExitPolicy) int {
	if p.MaxExit < 0 || p.MaxExit > g.MaxDepth() {
		return g.MaxDepth()
	}
	return p.MaxExit
}

// MaxExitForOps converts an operation budget into the deepest path-depth
// cap whose worst-case forced-exit cost fits it, across every path of the
// graph — the ExitPolicy.MaxExit realization of a per-request compute
// budget (on a linear graph: the deepest exit point whose cost fits). It
// errors when even depth 0 (the trunk's first exit) exceeds the budget.
func (g *Graph) MaxExitForOps(budget float64) (int, error) {
	if math.IsNaN(budget) || budget <= 0 {
		return 0, fmt.Errorf("core: ops budget %v must be a positive number", budget)
	}
	t := g.tables()
	best := -1
	for cap := 0; cap <= t.maxDepth; cap++ {
		worst := 0.0
		for ni, n := range g.Nodes {
			if t.entryDepth[ni] > cap {
				continue // unreachable under this cap
			}
			local := cap - t.entryDepth[ni]
			if local > len(n.Model.Stages) {
				local = len(n.Model.Stages)
			}
			if ops := t.exitOps[t.base[ni]+local]; ops > worst {
				worst = ops
			}
		}
		if worst <= budget {
			best = cap
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("core: ops budget %v below the cheapest exit (depth 0 costs %v)", budget, t.exitOps[0])
	}
	return best, nil
}

// Clone returns a graph replica safe for concurrent use, cloning every
// node's cascade (weights shared, caches private) and copying routes and
// label maps.
func (g *Graph) Clone() *Graph {
	nodes := make([]*Node, len(g.Nodes))
	for i, n := range g.Nodes {
		routes := make([]Route, len(n.Routes))
		for ri, r := range n.Routes {
			routes[ri] = Route{Stage: r.Stage, Branch: append([]int(nil), r.Branch...)}
		}
		var labels []int
		if n.Labels != nil {
			labels = append([]int(nil), n.Labels...)
		}
		nodes[i] = &Node{Name: n.Name, Model: n.Model.Clone(), Labels: labels, Routes: routes}
	}
	return &Graph{Nodes: nodes}
}

// WithBranch returns a copy of the graph with the named node's cascade
// replaced — the registry's branch hot-swap primitive. The replacement is
// validated in place in the new graph (input shape against the parent
// tap, label count, stage structure), so an incompatible branch never
// displaces a serving one. The trunk may be named too ("" or the trunk's
// name), which replaces the root cascade.
func (g *Graph) WithBranch(name string, model *CDLN) (*Graph, error) {
	ni, ok := g.NodeIndex(name)
	if !ok {
		return nil, fmt.Errorf("core: graph has no node %q", name)
	}
	out := g.Clone()
	out.Nodes[ni].Model = model.Clone()
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
