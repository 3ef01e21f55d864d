// Package modelio serializes trained models (baseline DLNs and CDLNs) so
// the cmd tools can separate training from evaluation. The on-disk format
// is a gob-encoded structural spec: layer kinds, hyper-parameters and
// weight payloads — not Go object graphs — so files stay readable across
// refactors of the layer types.
package modelio

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cdl/internal/core"
	"cdl/internal/linclass"
	"cdl/internal/nn"
	"cdl/internal/opcount"
	"cdl/internal/tensor"
)

// formatVersion guards against decoding files from incompatible revisions.
// graphFormatVersion marks a routed-graph file (SaveGraph of a non-linear
// model); linear models — graphs with one routeless node included — stay
// at formatVersion, so every pre-graph file loads unchanged and every
// linear save stays loadable by pre-graph readers.
const (
	formatVersion      = 1
	graphFormatVersion = 2
)

// maxSpecElems bounds any single decoded weight tensor (and any layer's
// implied allocation) to 4M elements (32 MB of float64) — orders of
// magnitude above the paper's models, small enough that a hostile file
// cannot make the loader allocate unbounded memory before validation
// rejects it. maxSpecLayers likewise bounds the layer count, so the
// cumulative allocation across a decode is capped too. The registry
// (internal/serve) hot-loads operator-supplied paths at runtime, so
// decode-time resource bounds are part of the format contract, not just
// hygiene.
const (
	maxSpecElems  = 1 << 22
	maxSpecLayers = 256
	// maxGraphNodes bounds a routed-graph file's node count: together with
	// maxSpecLayers/maxSpecElems it caps the total allocation a hostile
	// graph file can demand before core.Graph.Validate rejects its
	// topology (cycles, orphans, shape mismatches).
	maxGraphNodes = 64
)

// checkDims rejects non-positive or overflow-prone dimensions before any
// layer constructor allocates from them.
func checkDims(kind, name string, dims ...int) error {
	total := 1
	for _, d := range dims {
		if d <= 0 || d > maxSpecElems {
			return fmt.Errorf("modelio: %s %q dimension %d outside [1,%d]", kind, name, d, maxSpecElems)
		}
		total *= d
		if total > maxSpecElems {
			return fmt.Errorf("modelio: %s %q implies more than %d elements", kind, name, maxSpecElems)
		}
	}
	return nil
}

type layerSpec struct {
	Kind    string // "conv", "maxpool", "dense", "sigmoid", "flatten"
	Name    string
	Ints    map[string]int
	Weights map[string][]float64
}

type archSpec struct {
	Version    int
	Name       string
	InShape    []int
	Layers     []layerSpec
	Taps       []int
	TapNames   []string
	NumClasses int
}

type stageSpec struct {
	Name    string
	Tap     int
	In, Out int
	W, B    []float64
	Gain    float64
}

type cdlnSpec struct {
	Version     int
	Arch        archSpec
	Stages      []stageSpec
	Delta       float64
	StageDeltas []float64
	Rule        string
}

// routeSpec is one dispatch point of a graph node: the stage it sits at
// and the class→target map (−1 = continue on the node).
type routeSpec struct {
	Stage  int
	Branch []int
}

// graphNodeSpec is one node of a routed-graph file: a full cascade spec
// plus its name, label mapping and routes.
type graphNodeSpec struct {
	Name   string
	Model  cdlnSpec
	Labels []int
	Routes []routeSpec
}

// graphSpec is the top-level decode target for both file versions. Gob
// matches struct fields by name, so a version-1 file (an encoded cdlnSpec)
// decodes into the leading fields with Nodes empty, and a version-2 file
// (routed graph) populates Nodes with the linear fields empty.
type graphSpec struct {
	Version     int
	Arch        archSpec
	Stages      []stageSpec
	Delta       float64
	StageDeltas []float64
	Rule        string
	Nodes       []graphNodeSpec
}

func specFromLayer(l nn.Layer) (layerSpec, error) {
	s := layerSpec{Name: l.Name(), Ints: map[string]int{}, Weights: map[string][]float64{}}
	switch t := l.(type) {
	case *nn.Conv2D:
		s.Kind = "conv"
		s.Ints["inC"], s.Ints["outC"], s.Ints["k"] = t.InChannels(), t.OutChannels(), t.KernelSize()
		s.Weights["w"] = append([]float64(nil), t.Weight().W.Data...)
		s.Weights["b"] = append([]float64(nil), t.Bias().W.Data...)
	case *nn.Dense:
		s.Kind = "dense"
		s.Ints["in"], s.Ints["out"] = t.In(), t.Out()
		s.Weights["w"] = append([]float64(nil), t.Weight().W.Data...)
		s.Weights["b"] = append([]float64(nil), t.Bias().W.Data...)
	case *nn.MaxPool2D:
		s.Kind = "maxpool"
		s.Ints["win"] = t.Window()
	case *nn.Sigmoid:
		s.Kind = "sigmoid"
	case *nn.Flatten:
		s.Kind = "flatten"
	default:
		return s, fmt.Errorf("modelio: unsupported layer type %T", l)
	}
	return s, nil
}

func layerFromSpec(s layerSpec) (nn.Layer, error) {
	switch s.Kind {
	case "conv":
		if err := checkDims("conv", s.Name, s.Ints["inC"], s.Ints["outC"], s.Ints["k"], s.Ints["k"]); err != nil {
			return nil, err
		}
		c := nn.NewConv2D(s.Name, s.Ints["inC"], s.Ints["outC"], s.Ints["k"])
		if err := fill(c.Weight().W, s.Weights["w"]); err != nil {
			return nil, fmt.Errorf("modelio: %s weights: %w", s.Name, err)
		}
		if err := fill(c.Bias().W, s.Weights["b"]); err != nil {
			return nil, fmt.Errorf("modelio: %s bias: %w", s.Name, err)
		}
		return c, nil
	case "dense":
		if err := checkDims("dense", s.Name, s.Ints["in"], s.Ints["out"]); err != nil {
			return nil, err
		}
		d := nn.NewDense(s.Name, s.Ints["in"], s.Ints["out"])
		if err := fill(d.Weight().W, s.Weights["w"]); err != nil {
			return nil, fmt.Errorf("modelio: %s weights: %w", s.Name, err)
		}
		if err := fill(d.Bias().W, s.Weights["b"]); err != nil {
			return nil, fmt.Errorf("modelio: %s bias: %w", s.Name, err)
		}
		return d, nil
	case "maxpool":
		if err := checkDims("maxpool", s.Name, s.Ints["win"]); err != nil {
			return nil, err
		}
		return nn.NewMaxPool2D(s.Name, s.Ints["win"]), nil
	case "sigmoid":
		return nn.NewSigmoid(s.Name), nil
	case "flatten":
		return nn.NewFlatten(s.Name), nil
	}
	return nil, fmt.Errorf("modelio: unknown layer kind %q", s.Kind)
}

func fill(dst *tensor.T, src []float64) error {
	if len(src) != dst.Numel() {
		return fmt.Errorf("payload has %d values, want %d", len(src), dst.Numel())
	}
	copy(dst.Data, src)
	return nil
}

func specFromArch(a *nn.Arch) (archSpec, error) {
	s := archSpec{
		Version:    formatVersion,
		Name:       a.Name,
		InShape:    a.Net.InShape,
		Taps:       a.Taps,
		TapNames:   a.TapNames,
		NumClasses: a.NumClasses,
	}
	for _, l := range a.Net.Layers {
		ls, err := specFromLayer(l)
		if err != nil {
			return s, err
		}
		s.Layers = append(s.Layers, ls)
	}
	return s, nil
}

func archFromSpec(s archSpec) (*nn.Arch, error) {
	if s.Version != formatVersion {
		return nil, fmt.Errorf("modelio: format version %d, want %d", s.Version, formatVersion)
	}
	if len(s.InShape) == 0 || len(s.InShape) > 8 {
		return nil, fmt.Errorf("modelio: input rank %d outside [1,8]", len(s.InShape))
	}
	if err := checkDims("input", s.Name, s.InShape...); err != nil {
		return nil, err
	}
	if len(s.Layers) > maxSpecLayers {
		return nil, fmt.Errorf("modelio: %d layers exceed the cap %d", len(s.Layers), maxSpecLayers)
	}
	layers := make([]nn.Layer, 0, len(s.Layers))
	for _, ls := range s.Layers {
		l, err := layerFromSpec(ls)
		if err != nil {
			return nil, err
		}
		layers = append(layers, l)
	}
	a := &nn.Arch{
		Name:       s.Name,
		Net:        nn.NewNetwork(s.InShape, layers...),
		Taps:       s.Taps,
		TapNames:   s.TapNames,
		NumClasses: s.NumClasses,
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// specFromCDLN folds a validated cascade into its on-disk spec.
func specFromCDLN(c *core.CDLN) (cdlnSpec, error) {
	if err := c.Validate(); err != nil {
		return cdlnSpec{}, err
	}
	as, err := specFromArch(c.Arch)
	if err != nil {
		return cdlnSpec{}, err
	}
	s := cdlnSpec{
		Version:     formatVersion,
		Arch:        as,
		Delta:       c.Delta,
		StageDeltas: c.StageDeltas,
		Rule:        c.Rule.Name(),
	}
	for _, st := range c.Stages {
		s.Stages = append(s.Stages, stageSpec{
			Name: st.Name,
			Tap:  st.Tap,
			In:   st.LC.In, Out: st.LC.Out,
			W:    append([]float64(nil), st.LC.W.Data...),
			B:    append([]float64(nil), st.LC.B.Data...),
			Gain: st.Gain,
		})
	}
	return s, nil
}

// cdlnFromSpec rebuilds and validates a cascade from its spec, applying
// the bounded-allocation dimension checks before any constructor
// allocates.
func cdlnFromSpec(s cdlnSpec) (*core.CDLN, error) {
	if s.Version != formatVersion {
		return nil, fmt.Errorf("modelio: format version %d, want %d", s.Version, formatVersion)
	}
	arch, err := archFromSpec(s.Arch)
	if err != nil {
		return nil, err
	}
	rule, err := core.RuleByName(s.Rule)
	if err != nil {
		return nil, err
	}
	c := &core.CDLN{Arch: arch, Delta: s.Delta, StageDeltas: s.StageDeltas, Rule: rule, Ops: opcount.Default()}
	for _, st := range s.Stages {
		if err := checkDims("stage", st.Name, st.In, st.Out); err != nil {
			return nil, err
		}
		lc := &linclass.Classifier{
			In: st.In, Out: st.Out,
			W: tensor.New(st.Out, st.In), B: tensor.New(st.Out),
		}
		if err := fill(lc.W, st.W); err != nil {
			return nil, fmt.Errorf("modelio: stage %s: %w", st.Name, err)
		}
		if err := fill(lc.B, st.B); err != nil {
			return nil, fmt.Errorf("modelio: stage %s: %w", st.Name, err)
		}
		c.Stages = append(c.Stages, &core.Stage{Name: st.Name, Tap: st.Tap, LC: lc, Gain: st.Gain})
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// SaveCDLN writes a full conditional network: baseline, admitted stages
// with classifier weights, δ and the exit rule.
func SaveCDLN(w io.Writer, c *core.CDLN) error {
	s, err := specFromCDLN(c)
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(s)
}

// LoadCDLN reads a conditional network saved with SaveCDLN. It reads
// linear models only; a routed-graph file (version 2) is rejected with a
// pointer at LoadGraph, rather than silently dropping its branches.
func LoadCDLN(r io.Reader) (*core.CDLN, error) {
	var s cdlnSpec
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("modelio: decode cdln: %w", err)
	}
	if s.Version == graphFormatVersion {
		return nil, fmt.Errorf("modelio: file is a routed graph (version %d); load it with LoadGraph", s.Version)
	}
	return cdlnFromSpec(s)
}

// SaveFile writes a CDLN to path atomically: the bytes land in a temp file
// in the same directory, are synced, and are renamed over path only once
// complete. A reader (in particular a serving registry hot-reloading the
// path, PUT /v2/models/{name}) therefore never observes a torn or
// half-written model file — it sees either the old version or the new one.
func SaveFile(path string, c *core.CDLN) (err error) {
	// The temp file is staged next to path (a bare filename's dir is "",
	// which Join keeps in the working directory), never in os.TempDir():
	// rename across filesystems fails, and same-directory staging is what
	// makes the rename atomic.
	dir, base := filepath.Split(path)
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
			return fmt.Errorf("modelio: %w", err)
		}
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = SaveCDLN(f, c); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("modelio: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("modelio: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("modelio: %w", err)
	}
	return nil
}

// LoadFile reads a CDLN written by SaveFile.
func LoadFile(path string) (*core.CDLN, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	defer f.Close()
	return LoadCDLN(f)
}

// LoadGraphFile reads the file at path with LoadGraph.
func LoadGraphFile(path string) (*core.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	defer f.Close()
	return LoadGraph(f)
}

// SaveGraph writes a routing graph. A linear graph (one routeless node) is
// written as a plain version-1 CDLN file — bit-compatible with SaveCDLN
// and readable by pre-graph loaders — so the format only diverges where
// the model actually routes.
func SaveGraph(w io.Writer, g *core.Graph) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if g.IsLinear() {
		return SaveCDLN(w, g.Trunk())
	}
	s := graphSpec{Version: graphFormatVersion}
	for _, n := range g.Nodes {
		ms, err := specFromCDLN(n.Model)
		if err != nil {
			return err
		}
		ns := graphNodeSpec{Name: n.Name, Model: ms}
		if n.Labels != nil {
			ns.Labels = append([]int(nil), n.Labels...)
		}
		for _, r := range n.Routes {
			ns.Routes = append(ns.Routes, routeSpec{Stage: r.Stage, Branch: append([]int(nil), r.Branch...)})
		}
		s.Nodes = append(s.Nodes, ns)
	}
	return gob.NewEncoder(w).Encode(s)
}

// LoadGraph reads a routing graph saved with SaveGraph — or any version-1
// linear CDLN file, which loads as the trivial one-node graph. Topology is
// fully validated (core.Graph.Validate rejects cyclic and orphan-node
// graphs, dangling route targets and shape-mismatched branches) and node
// and dimension counts are bounded before any allocation they imply, the
// same contract the layer specs have always had.
func LoadGraph(r io.Reader) (*core.Graph, error) {
	var s graphSpec
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("modelio: decode graph: %w", err)
	}
	switch s.Version {
	case formatVersion:
		c, err := cdlnFromSpec(cdlnSpec{
			Version:     s.Version,
			Arch:        s.Arch,
			Stages:      s.Stages,
			Delta:       s.Delta,
			StageDeltas: s.StageDeltas,
			Rule:        s.Rule,
		})
		if err != nil {
			return nil, err
		}
		return core.LinearGraph(c), nil
	case graphFormatVersion:
	default:
		return nil, fmt.Errorf("modelio: format version %d, want %d or %d", s.Version, formatVersion, graphFormatVersion)
	}
	if len(s.Nodes) == 0 {
		return nil, fmt.Errorf("modelio: routed graph has no nodes")
	}
	if len(s.Nodes) > maxGraphNodes {
		return nil, fmt.Errorf("modelio: %d graph nodes exceed the cap %d", len(s.Nodes), maxGraphNodes)
	}
	g := &core.Graph{}
	for ni, ns := range s.Nodes {
		c, err := cdlnFromSpec(ns.Model)
		if err != nil {
			return nil, fmt.Errorf("modelio: graph node %d (%s): %w", ni, ns.Name, err)
		}
		node := &core.Node{Name: ns.Name, Model: c}
		if ns.Labels != nil {
			node.Labels = append([]int(nil), ns.Labels...)
		}
		for _, rs := range ns.Routes {
			if len(rs.Branch) > maxSpecElems {
				return nil, fmt.Errorf("modelio: graph node %d (%s) route branch map of %d entries exceeds the cap %d",
					ni, ns.Name, len(rs.Branch), maxSpecElems)
			}
			node.Routes = append(node.Routes, core.Route{Stage: rs.Stage, Branch: append([]int(nil), rs.Branch...)})
		}
		g.Nodes = append(g.Nodes, node)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
