// Package cdl is the public API of a Go reproduction of "Conditional Deep
// Learning for Energy-Efficient and Enhanced Pattern Recognition"
// (P. Panda, A. Sengupta, K. Roy — DATE 2016).
//
// Conditional Deep Learning (CDL) attaches a cascade of linear classifiers
// to the convolutional stages of a trained baseline network; at inference
// time an activation module compares each stage's confidence against a
// threshold δ and terminates classification early for easy inputs, saving
// the operations and energy of the deeper layers while — on an
// under-trained baseline — improving accuracy.
//
// Typical use:
//
//	trainS, testS, _ := cdl.GenerateMNIST(4000, 1500, 1)
//	arch := cdl.NewArch8(7)
//	cdl.TrainBaseline(arch, trainS, 7, 1)
//	cdln, report, _ := cdl.BuildCDLN(arch, trainS, cdl.DefaultBuildConfig())
//	res, _ := cdl.Evaluate(cdln, testS)
//	fmt.Println(res.Confusion.Accuracy(), res.NormalizedOps())
//
// The facade re-exports the library's core types; the full surface lives in
// the internal packages (tensor, nn, train, mnist, linclass, core, opcount,
// fixed, hw, energy, experiments, serve) and is documented in DESIGN.md.
package cdl

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"cdl/internal/core"
	"cdl/internal/edgecloud"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/energy"
	"cdl/internal/mnist"
	"cdl/internal/modelio"
	"cdl/internal/nn"
	"cdl/internal/serve"
	"cdl/internal/train"
)

// Re-exported types. Downstream code uses these names; the internal
// packages hold the implementations.
type (
	// Arch is a baseline DLN plus its CDL tap metadata.
	Arch = nn.Arch
	// Network is a sequential layer stack.
	Network = nn.Network
	// CDLN is a conditional deep learning network (the paper's
	// contribution).
	CDLN = core.CDLN
	// Stage is one early-exit point of a CDLN.
	Stage = core.Stage
	// Graph is a tree-structured routing graph: a trunk cascade whose
	// router stages can hand inputs off to class-group branch subnetworks.
	// LinearGraph(c) wraps a plain cascade as the degenerate one-node
	// graph, bit-identical to classifying c directly.
	Graph = core.Graph
	// GraphNode is one subnetwork of a routing graph (the trunk or a
	// branch), a CDLN plus its outgoing routes.
	GraphNode = core.Node
	// Route is one conditional edge of a routing graph: at a router
	// stage's non-exit, inputs whose argmax lands in Classes continue in
	// the named branch.
	Route = core.Route
	// ExitRecord describes how one input was classified.
	ExitRecord = core.ExitRecord
	// EvalResult aggregates accuracy, exit and OPS statistics.
	EvalResult = core.EvalResult
	// BuildConfig controls Algorithm 1 (CDLN construction).
	BuildConfig = core.BuildConfig
	// BuildReport records Algorithm 1's per-stage decisions.
	BuildReport = core.Report
	// Sample is one labelled instance.
	Sample = train.Sample
	// Image is one synthetic or loaded MNIST digit.
	Image = mnist.Image
	// EnergySummary reports 45nm-model energy for an evaluation.
	EnergySummary = energy.Summary
	// Session is a warm single-goroutine classifier — the one batched
	// walker of Algorithm 2 (a single input is a batch of one) and the unit
	// of the serving replica pool.
	Session = core.Session
	// Server is the batched CDLN inference server (internal/serve).
	Server = serve.Server
	// ServeConfig sizes the inference server (pool, queue, micro-batch).
	ServeConfig = serve.Config
	// ExitPolicy is the structured per-request exit shaping: global δ,
	// per-stage deltas, depth/ops caps and record detail (internal/core).
	ExitPolicy = core.ExitPolicy
	// Edge is the edge-tier runtime of a split deployment: it owns the
	// cascade prefix and offloads hard inputs to a cloud backend
	// (internal/edgecloud).
	Edge = edgecloud.Edge
	// EdgeConfig shapes an edge node (split stage, δ, wire encoding, link
	// energy model).
	EdgeConfig = edgecloud.Config
	// EdgeResult is one input's tier-split outcome (record, offload flag,
	// per-tier pJ).
	EdgeResult = edgecloud.Result
	// EdgeTransport ships offloaded activations to the cloud tier.
	EdgeTransport = edgecloud.Transport
	// Link is the edge→cloud transmission energy model.
	Link = energy.Link
	// WireEncoding selects the offload payload representation (lossless
	// float64 or quantized fixed-point).
	WireEncoding = wire.Encoding
)

// Wire encodings for EdgeConfig.Encoding.
const (
	// WireFloat64 is the lossless encoding: split results are
	// bit-identical to monolithic classification.
	WireFloat64 = wire.EncodingFloat64
	// WireFixed ships Q2.13-quantized activations at a quarter of the
	// bytes, modelling a quantized radio link.
	WireFixed = wire.EncodingFixed
)

// NewArch6 builds the paper's Table I 6-layer baseline (MNIST_2C host)
// with Xavier initialization from the given seed.
func NewArch6(seed int64) *Arch { return nn.Arch6Layer(rand.New(rand.NewSource(seed))) }

// NewArch8 builds the paper's Table II 8-layer baseline (MNIST_3C host).
func NewArch8(seed int64) *Arch { return nn.Arch8Layer(rand.New(rand.NewSource(seed))) }

// NewBranchArch builds a compact specialist subnetwork for a routing-graph
// branch: a conv→pool block over a trunk tap shape [channels, h, w]
// followed by a dense classifier over `classes` outputs, with one early
// exit tapped after the pool. The input shape must equal the parent
// network's shape at the routing stage's tap (Graph.Validate enforces
// this), and `classes` is the branch's local class count — pair it with
// GraphNode.Labels to map local classes back to trunk classes.
func NewBranchArch(name string, inShape []int, classes int, seed int64) (*Arch, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("cdl: branch input shape %v is not [channels, h, w]", inShape)
	}
	c, h, w := inShape[0], inShape[1], inShape[2]
	const k, pool, maps = 3, 2, 8
	hp, wp := (h-k+1)/pool, (w-k+1)/pool
	if c < 1 || hp < 1 || wp < 1 {
		return nil, fmt.Errorf("cdl: branch input shape %v too small for a %dx%d conv + %dx%d pool", inShape, k, k, pool, pool)
	}
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork(append([]int(nil), inShape...),
		nn.NewConv2D(name+".C1", c, maps, k),
		nn.NewSigmoid(name+".C1.act"),
		nn.NewMaxPool2D(name+".P1", pool),
		nn.NewFlatten(name+".flat"),
		nn.NewDense(name+".FC", maps*hp*wp, classes),
		nn.NewSigmoid(name+".FC.act"),
	)
	nn.InitNetwork(net, rng)
	a := &Arch{
		Name: name, Net: net,
		Taps: []int{3}, TapNames: []string{name + ".P1"},
		NumClasses: classes,
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("cdl: branch arch: %w", err)
	}
	return a, nil
}

// GenerateMNIST synthesizes a deterministic MNIST-like split (see
// internal/mnist for the substitution rationale) and returns it as training
// samples.
func GenerateMNIST(trainN, testN int, seed int64) (trainS, testS []Sample, err error) {
	trainImgs, testImgs, err := mnist.GenerateSplit(trainN, testN, seed)
	if err != nil {
		return nil, nil, err
	}
	return mnist.ToSamples(trainImgs), mnist.ToSamples(testImgs), nil
}

// ParseDigitGroups parses a digit-group spec like "even,odd" or
// "0-4,5-9" into explicit class groups (see internal/mnist.ParseGroups
// for the token grammar). Groups feed GenerateMNISTGrouped and define
// the class partition a routed cascade's branches specialize on.
func ParseDigitGroups(spec string) ([][]int, error) { return mnist.ParseGroups(spec) }

// GenerateMNISTGrouped synthesizes n images whose labels are drawn from
// the given digit groups — group by weight (uniform when weights is
// nil), then digit uniformly within the group. This is the
// class-skewed workload that exercises branch routing: traffic heavy in
// one group exits predominantly through that group's branch.
func GenerateMNISTGrouped(n int, seed int64, groups [][]int, weights []float64) ([]Image, error) {
	return mnist.Generate(mnist.GenConfig{N: n, Seed: seed, Groups: groups, GroupWeights: weights})
}

// ImagesToSamples converts images to training samples (sharing pixel
// storage) — the bridge from GenerateMNISTGrouped to TrainBaseline,
// BuildCDLN and Evaluate.
func ImagesToSamples(imgs []Image) []Sample { return mnist.ToSamples(imgs) }

// TrainBaseline trains the baseline DLN in place for the given number of
// epochs with the paper's default settings (MSE loss, lr 1.0, momentum
// 0.5 — the regime where these sigmoid CNNs converge).
func TrainBaseline(arch *Arch, data []Sample, epochs int, seed int64) error {
	cfg := train.Defaults(arch.NumClasses)
	cfg.Epochs = epochs
	cfg.Seed = seed
	_, err := train.SGD(arch.Net, data, cfg)
	return err
}

// BaselineAccuracy evaluates the plain DLN on a labelled dataset.
func BaselineAccuracy(arch *Arch, data []Sample) float64 {
	return train.Accuracy(arch.Net, data, arch.NumClasses)
}

// DefaultBuildConfig returns the paper-style Algorithm 1 settings
// (δ=0.5, ε=0, threshold exit rule, unit op costs).
func DefaultBuildConfig() BuildConfig { return core.DefaultBuildConfig() }

// BuildCDLN runs Algorithm 1 on a trained baseline: train a linear
// classifier per tap, apply the Eq. 1 gain rule and assemble the cascade.
func BuildCDLN(arch *Arch, data []Sample, cfg BuildConfig) (*CDLN, *BuildReport, error) {
	return core.Build(arch, data, cfg)
}

// Evaluate classifies every sample with early exit (Algorithm 2) and
// aggregates accuracy, exit and OPS statistics.
func Evaluate(c *CDLN, data []Sample) (*EvalResult, error) {
	return core.Evaluate(c, data, 0, false)
}

// EnergyOf converts an evaluation into 45 nm-model energy numbers (Fig. 6
// methodology).
func EnergyOf(c *CDLN, res *EvalResult) (EnergySummary, error) {
	return energy.NewEvaluator().FromEval(c, res)
}

// NewSession returns a warm classifier over a private replica of the
// cascade. Classify and ClassifyDelta take one input; ClassifyBatchPolicy
// takes a micro-batch under an ExitPolicy (ExitPolicy{Delta: -1,
// MaxExit: -1} keeps the trained thresholds); ClassifyPrefixBatchPolicy
// and ResumeBatchPolicyAt are the two halves of a tier split. Every record
// is bit-identical to the reference oracle CDLN.Classify. Sessions are
// single-goroutine; create one per worker.
func NewSession(c *CDLN) (*Session, error) {
	return core.NewSession(c)
}

// NewServer starts a batched inference server over a pool of pre-cloned
// replicas of the cascade: POST /v1/classify (single image or batch, with
// optional per-request δ override — the paper's §III.B runtime knob), the
// /v2 multi-model surface, GET /healthz, GET /statsz. Serve its Handler()
// or call ListenAndServe; Close drains the pool.
func NewServer(c *CDLN, cfg ServeConfig) (*Server, error) {
	return serve.New(c, cfg)
}

// DefaultEdgeConfig returns an edge configuration for the given split
// stage: trained thresholds, lossless wire encoding, default link model.
func DefaultEdgeConfig(splitStage int) EdgeConfig { return edgecloud.DefaultConfig(splitStage) }

// DefaultLink returns the reference edge→cloud transmission energy model
// (400 pJ/byte + 20 nJ per transfer — an ultra-low-power short-range
// radio).
func DefaultLink() Link { return energy.DefaultLink() }

// NewEdge returns a warm edge runtime over a private replica of the
// cascade: the first cfg.SplitStage stages run locally, everything past
// them is offloaded through t. With the lossless encoding, results are
// bit-identical to monolithic classification for every split stage.
func NewEdge(c *CDLN, t EdgeTransport, cfg EdgeConfig) (*Edge, error) {
	return edgecloud.New(c, t, cfg)
}

// NewEdgeHTTPTransport returns a transport that offloads to a cdlserve
// backend's /v1/resume at the given base URL.
func NewEdgeHTTPTransport(baseURL string) EdgeTransport { return edgecloud.NewHTTPTransport(baseURL) }

// TuneDeltas grid-searches a per-stage confidence threshold on validation
// data (an extension beyond the paper's single δ), updating the CDLN in
// place and returning the chosen thresholds.
func TuneDeltas(c *CDLN, val []Sample) ([]float64, *EvalResult, error) {
	return core.TuneDeltas(c, val, core.DefaultTuneConfig())
}

// SaveCDLN writes a trained CDLN to path atomically: the bytes land in a
// temp file in the same directory, are synced, and are renamed over path
// only once complete. A reader (in particular a serving registry
// hot-reloading the path, PUT /v2/models/{name}) therefore never observes
// a torn or half-written model file — it sees either the old version or
// the new one.
func SaveCDLN(path string, c *CDLN) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		// A bare filename must stage its temp file in the destination
		// directory (CWD), not os.TempDir() — rename across filesystems
		// fails, and same-directory staging is what makes the rename
		// atomic.
		dir = "."
	}
	// Hand-rolled temp creation rather than os.CreateTemp: O_EXCL with
	// mode 0666 gets the kernel's umask applied, preserving exactly the
	// permissions the old os.Create writer produced (CreateTemp would pin
	// 0600 and a Chmod would bypass the umask).
	var f *os.File
	var tmp string
	for i := 0; ; i++ {
		tmp = filepath.Join(dir, fmt.Sprintf("%s.tmp-%d-%d", base, os.Getpid(), i))
		f, err = os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if err == nil {
			break
		}
		if !os.IsExist(err) || i >= 10000 {
			return fmt.Errorf("cdl: %w", err)
		}
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = modelio.SaveCDLN(f, c); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("cdl: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("cdl: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("cdl: %w", err)
	}
	return nil
}

// LoadCDLN reads a CDLN written by SaveCDLN.
func LoadCDLN(path string) (*CDLN, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cdl: %w", err)
	}
	defer f.Close()
	return modelio.LoadCDLN(f)
}

// LinearGraph wraps a plain cascade in the degenerate one-node routing
// graph. Classifying through it is bit-identical to classifying the
// CDLN directly — ExitRecords match byte for byte — so linear and
// routed models share every downstream surface (sessions, serving,
// edge/cloud splits, energy accounting).
func LinearGraph(c *CDLN) *Graph { return core.LinearGraph(c) }

// NewGraphSession returns a warm classifier over a routing graph —
// NewSession generalized to tree-structured conditional routing. At
// each router stage's non-exit the stage classifier's argmax picks the
// branch the input continues in.
func NewGraphSession(g *Graph) (*Session, error) { return core.NewGraphSession(g) }
