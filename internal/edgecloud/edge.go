// Package edgecloud splits CDLN inference across two tiers: an edge node
// owns the baseline prefix up to a configurable split stage plus its linear
// classifiers, exits easy inputs locally when the δ-rule fires, and ships
// only the hard residue — as wire-encoded intermediate activations — to a
// cloud backend that resumes the cascade: internal/serve's
// /v2/models/{name}/resume, on the model the HTTPTransport names.
//
// This is the paper's thesis turned into an offload policy: the exit
// cascade already separates easy inputs from hard ones, so the same
// confidence test that saves deep-layer compute in a monolithic deployment
// decides what crosses the link in a distributed one (cf. Long et al.,
// "Conditionally Deep Hybrid Neural Networks Across Edge and Cloud", 2020).
// Each offload carries its request's whole exit policy — δ, per-stage δs,
// depth cap, traced detail — so the cloud continues the one cascade under
// the one exit rule. With the lossless wire encoding the split is
// semantically invisible: labels, exits, OPS and stage confidences are
// bit-identical to monolithic classification for every split stage and
// every policy. The fixed-point encoding trades that identity for a 4×
// smaller payload, modelling a quantized radio link.
//
// Energy is accounted per tier (internal/energy's TierCosts): edge compute
// for the prefix, bytes × pJ/byte for the link, cloud compute for the
// remainder.
//
// The edge front, Server, is a serve.Server whose one registry entry is a
// split entry: its pool workers are Edges (Edge.WalkBatch is a
// serve.Walker), so the edge queues, batches, observes and adapts exactly
// as a cloud entry does.
package edgecloud

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/energy"
	"cdl/internal/fixed"
	"cdl/internal/obs"
	"cdl/internal/serve"
	"cdl/internal/tensor"
)

// Config shapes an edge node.
type Config struct {
	// SplitStage is the number of cascade stages the edge owns, in
	// [0, len(Stages)]: 0 offloads every input untouched, len(Stages) runs
	// the whole cascade locally and offloads only FC-bound residues.
	SplitStage int
	// Delta overrides the model's trained thresholds for every input when
	// ≥ 0 (the §III.B runtime knob); negative keeps them. It is the policy
	// of requests that state none, and each offload forwards the policy its
	// input ran under, so the cloud continues the cascade the edge started.
	Delta float64
	// Encoding selects the offload payload representation; the default
	// (EncodingFloat64) preserves bit-identity with monolithic
	// classification, EncodingFixed models a quantized link at a quarter
	// of the bytes.
	Encoding wire.Encoding
	// Format is the fixed-point format for EncodingFixed; zero value
	// means fixed.Q2x13 (the 16-bit datapath format).
	Format fixed.Format
	// Link is the transmission energy model; zero value means
	// energy.DefaultLink().
	Link energy.Link
}

// DefaultConfig returns an edge configuration for the given split stage:
// trained thresholds (Delta −1), lossless encoding, default link model.
func DefaultConfig(splitStage int) Config {
	return Config{SplitStage: splitStage, Delta: -1}.withDefaults()
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Format == (fixed.Format{}) {
		c.Format = fixed.Q2x13
	}
	if c.Link == (energy.Link{}) {
		c.Link = energy.DefaultLink()
	}
	return c
}

// Transport ships wire-encoded activations to the cloud tier — one round
// trip for however many payloads a batch deferred — and resumes them under
// pol, the request's whole resolved policy, returning the cascade's final
// exit records in payload order. A record need carry only what a wire
// record does: StageIndex, Label and Confidence, plus under pol.Trace the
// confidences of the exit points the cloud evaluated. The Edge checks
// those against its own graph and pol, and derives Node, StageName and
// Ops from the exit index. A non-empty traceID carries the request's trace
// to the cloud tier (as an X-Trace-Id header on HTTPTransport, in-process
// on Loopback), which returns its span timeline un-prefixed; the Edge
// namespaces it "cloud:". The payloads are valid only for the duration of
// the call: they are views of a buffer the Edge reuses. Implementations:
// HTTPTransport (a real cdlserve backend) and Loopback (in-process, for
// tests and single-node runs).
type Transport interface {
	Resume(payloads [][]byte, pol core.ExitPolicy, traceID string) ([]core.ExitRecord, []obs.Span, error)
}

// Edge is the edge-tier runtime: a warm session over the full model of
// which it executes only the prefix, plus the offload machinery. Like
// core.Session it is single-goroutine; create one per worker (the edge
// Server's split entry builds one per pool worker).
type Edge struct {
	cfg       Config
	sess      *core.Session
	transport Transport
	costs     *energy.TierCosts
	// wireBytes is each exit's offload size (exitWireBytes); exitOps and
	// classes complete and check the cloud's records: the op cost of each
	// global exit, and the trunk's label count.
	wireBytes []int
	exitOps   []float64
	classes   int
	// prefix holds the current call's prefix results and deferred
	// activations; slab their encoded offloads, payloads and deferred its
	// views and their inputs' indices, dims an activation's shape; recs is
	// the call's answer. All reused call after call (an Edge is
	// single-goroutine).
	prefix   core.PrefixSlab
	slab     []byte
	payloads [][]byte
	deferred []int
	dims     []int
	recs     []core.ExitRecord
	// tr is the attached request trace (nil between requests): prefix
	// stage spans, the offload hop and the cloud tier's merged spans all
	// record into it.
	tr *obs.Trace
}

// New validates the model and config and returns a warm edge runtime over a
// linear cascade.
func New(model *core.CDLN, t Transport, cfg Config) (*Edge, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return NewGraph(core.LinearGraph(model), t, cfg)
}

// NewGraph is New for a routing graph. The split always cuts the trunk;
// routed inputs defer to the cloud like any other hard residue (the edge
// owns only the trunk prefix), carrying their branch handoff on the wire.
func NewGraph(g *core.Graph, t Transport, cfg Config) (*Edge, error) {
	cfg = cfg.withDefaults()
	if t == nil {
		return nil, fmt.Errorf("edgecloud: nil transport")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	trunkStages := len(g.Trunk().Stages)
	if cfg.SplitStage < 0 || cfg.SplitStage > trunkStages {
		return nil, fmt.Errorf("edgecloud: split stage %d outside [0,%d]", cfg.SplitStage, trunkStages)
	}
	if cfg.Delta > 1 {
		return nil, fmt.Errorf("edgecloud: delta %v outside [0,1]", cfg.Delta)
	}
	if cfg.Encoding != wire.EncodingFloat64 && cfg.Encoding != wire.EncodingFixed {
		return nil, fmt.Errorf("edgecloud: unknown encoding %d", cfg.Encoding)
	}
	costs, err := energy.NewEvaluator().GraphTierCosts(g, cfg.SplitStage, cfg.Link)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewGraphSession(g)
	if err != nil {
		return nil, err
	}
	return &Edge{
		cfg: cfg, sess: sess, transport: t, costs: costs, wireBytes: exitWireBytes(g, costs, cfg.Encoding),
		exitOps: g.ExitOps(), classes: g.Trunk().Arch.NumClasses,
	}, nil
}

// exitWireBytes sizes each exit's offload: the encoding of the activation
// an input exiting there shipped, from the trunk's split stage or a
// branch's entry (TierCosts.Handoff), and 0 for a local exit. An offload's
// size is fixed by its resume point.
func exitWireBytes(g *core.Graph, costs *energy.TierCosts, enc wire.Encoding) []int {
	out := make([]int, len(costs.Handoff))
	for i, node := range costs.Handoff {
		if node < 0 {
			continue
		}
		m, from := g.Nodes[node].Model, 0
		if node == 0 {
			from = costs.SplitStage
		}
		shape := m.Arch.Net.ShapeAt(m.SplitPos(from))
		n := 1
		for _, d := range shape {
			n *= d
		}
		out[i] = wire.EncodedSizeAt(node, len(shape), n, enc)
	}
	return out
}

// AttachTrace attaches a request trace for the next Classify* call(s):
// prefix stage spans record as "edge:stage:...", the cloud round trip as
// "edge:offload", and the cloud's own spans merge back under "cloud:".
// Pass nil to detach. Like every Edge method this is single-goroutine.
func (e *Edge) AttachTrace(tr *obs.Trace) { e.tr = tr }

// Result is one input's tier-split outcome.
type Result struct {
	// Record is the final classification, from the edge prefix or the
	// cloud resume.
	Record core.ExitRecord
	// Offloaded reports whether the input crossed the link.
	Offloaded bool
	// WireBytes is the encoded payload size (0 for local exits).
	WireBytes int
	// EdgePJ/LinkPJ/CloudPJ split this input's energy across tiers.
	EdgePJ  float64
	LinkPJ  float64
	CloudPJ float64
}

// TotalPJ is the input's whole-system energy.
func (r Result) TotalPJ() float64 { return r.EdgePJ + r.LinkPJ + r.CloudPJ }

// Classify runs the split pipeline on one input with the config's δ: a
// batch of one through ClassifyBatchPolicy.
func (e *Edge) Classify(x *tensor.T) (Result, error) {
	return e.ClassifyDelta(x, e.cfg.Delta)
}

// ClassifyDelta is Classify with a per-call δ override (< 0 keeps the
// model's trained thresholds), forwarded to the cloud on offload.
func (e *Edge) ClassifyDelta(x *tensor.T, delta float64) (Result, error) {
	res, err := e.ClassifyBatchPolicy([]*tensor.T{x}, core.DeltaPolicy(delta))
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// ClassifyBatchPolicy runs the split pipeline over a batch (WalkBatch,
// under the attached trace) and charges each input's tiers. Results are in
// input order, each identical to what the input would get alone.
func (e *Edge) ClassifyBatchPolicy(xs []*tensor.T, pol core.ExitPolicy) ([]Result, error) {
	var traces []*obs.Trace
	if e.tr != nil {
		traces = make([]*obs.Trace, len(xs))
		for i := range traces {
			traces[i] = e.tr
		}
	}
	recs, err := e.WalkBatch(xs, 0, 0, pol, traces)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(recs))
	for i, rec := range recs {
		x := rec.StageIndex
		results[i] = Result{Record: rec, EdgePJ: e.costs.Edge[x], CloudPJ: e.costs.Cloud[x]}
		if e.costs.Offloaded(x) {
			results[i].Offloaded, results[i].WireBytes = true, e.wireBytes[x]
			results[i].LinkPJ = e.costs.Link.TransferPJ(e.wireBytes[x])
		}
	}
	return results, nil
}

// WalkBatch is the split pipeline as a serve pool worker runs it
// (serve.Walker): the whole batch's prefix runs locally in one cascade
// pass (core.Session.ClassifyPrefixInto the Edge's own slab — exit where
// the δ-rule fires, exited inputs compacted away between stages), then
// every deferred split-point activation is wire-encoded and all of them resume
// on the cloud in one round trip. An edge walks from the input layer only,
// so node and fromStage must be 0. traces, when non-nil, holds each
// input's trace: the prefix records "edge:"-prefixed stage spans into the
// inputs' own traces, and every distinct trace gets the "edge:offload" hop
// and the cloud's spans; the hop carries the first trace's ID. The whole
// policy crosses with the offload, so the split answers what the
// monolithic walk does under every policy. A depth cap below the split
// resolves the trunk's residue on the edge (nothing of it offloads) — the
// SLO controller's deepest rungs shed the offload path so under load. The
// records are the Edge's until its next call.
func (e *Edge) WalkBatch(xs []*tensor.T, node, fromStage int, pol core.ExitPolicy, traces []*obs.Trace) ([]core.ExitRecord, error) {
	if node != 0 || fromStage != 0 {
		return nil, fmt.Errorf("edgecloud: an edge walks from the input layer, not from node %d stage %d", node, fromStage)
	}
	if traces != nil {
		e.sess.SetStageObserver(serve.StageObserver(e.sess.Graph(), "edge:", traces))
	}
	prefixes := e.sess.ClassifyPrefixInto(&e.prefix, xs, e.cfg.SplitStage, pol)
	if traces != nil {
		e.sess.SetStageObserver(nil)
	}
	e.recs = slices.Grow(e.recs[:0], len(xs))[:len(xs)]
	size := 0
	e.deferred = e.deferred[:0]
	for i, pre := range prefixes {
		if pre.Exited {
			e.recs[i] = pre.Record
			continue
		}
		e.deferred = append(e.deferred, i)
		size += wire.EncodedSizeAt(pre.Node, pre.Activation.Rank(), len(pre.Activation.Data), e.cfg.Encoding)
	}
	if len(e.deferred) == 0 {
		return e.recs, nil
	}
	// Grown once, so every payload is a view of the one array.
	e.slab, e.payloads = slices.Grow(e.slab[:0], size), e.payloads[:0]
	for _, i := range e.deferred {
		at := len(e.slab)
		if err := e.encodePrefix(prefixes[i]); err != nil {
			return nil, err
		}
		e.payloads = append(e.payloads, e.slab[at:])
	}
	recs, err := e.resumeOffloads(e.payloads, pol, traces)
	if err != nil {
		return nil, err
	}
	for k, rec := range recs {
		i := e.deferred[k]
		if e.recs[i], err = e.complete(rec, pol, prefixes[i].Record.Trace); err != nil {
			return nil, err
		}
	}
	return e.recs, nil
}

// resumeOffloads ships the deferred payloads across the link in one round
// trip and, for traced inputs, records the hop as an "edge:offload" span
// folds the cloud tier's spans, resumed under the first trace's ID, back
// in under "cloud:", in every distinct trace of the batch (a request's
// inputs are adjacent).
func (e *Edge) resumeOffloads(payloads [][]byte, pol core.ExitPolicy, traces []*obs.Trace) ([]core.ExitRecord, error) {
	var lead *obs.Trace
	for _, tr := range traces {
		if tr != nil {
			lead = tr
			break
		}
	}
	var start time.Time
	var traceID string
	if lead != nil {
		start, traceID = time.Now(), lead.ID()
	}
	recs, spans, err := e.transport.Resume(payloads, pol, traceID)
	if err != nil {
		return nil, fmt.Errorf("edgecloud: cloud resume: %w", err)
	}
	if len(recs) != len(payloads) {
		return nil, fmt.Errorf("edgecloud: cloud returned %d records for %d offloads", len(recs), len(payloads))
	}
	if lead != nil {
		end, detail := time.Now(), "payloads="+strconv.Itoa(len(payloads))
		var last *obs.Trace
		for _, tr := range traces {
			if tr != nil && tr != last {
				tr.Merge("cloud:", spans)
				tr.Record("edge:offload", start, end, detail)
				last = tr
			}
		}
	}
	return recs, nil
}

// encodePrefix appends a deferred prefix's wire encoding, read from the
// Edge's prefix slab, to the slab: a trunk residue resumes at the split
// stage, a routed input hands off at its branch entry (node, stage 0, pos
// 0). The payload carries no trace ID: the trace crosses the split in
// resumeOffloads, beside the payloads.
func (e *Edge) encodePrefix(pre core.PrefixResult) error {
	act := pre.Activation
	e.dims = e.dims[:0]
	for d := range act.Rank() {
		e.dims = append(e.dims, act.Dim(d))
	}
	var err error
	e.slab, err = wire.AppendEncode(e.slab, wire.Activation{
		Node:      pre.Node,
		FromStage: pre.FromStage,
		Pos:       pre.Pos,
		Shape:     e.dims,
		Data:      act.Data,
	}, e.cfg.Encoding, e.cfg.Format)
	if err != nil {
		return fmt.Errorf("edgecloud: encode offload: %w", err)
	}
	return nil
}

// complete checks what a cloud record carries — an exit in the cloud's
// half of the cascade no deeper than pol's cap, a label of the model and,
// under pol.Trace, a confidence for every exit point on the exit's path
// after the prefix's — and completes the rest from the edge's own graph,
// the prefix's confidences in front of the cloud's.
func (e *Edge) complete(rec core.ExitRecord, pol core.ExitPolicy, prefix []float64) (core.ExitRecord, error) {
	if rec.StageIndex < e.cfg.SplitStage || rec.StageIndex >= len(e.exitOps) {
		return rec, fmt.Errorf("edgecloud: cloud returned exit %d outside [%d,%d)",
			rec.StageIndex, e.cfg.SplitStage, len(e.exitOps))
	}
	if rec.Label < 0 || rec.Label >= e.classes {
		return rec, fmt.Errorf("edgecloud: cloud returned label %d outside [0,%d)", rec.Label, e.classes)
	}
	g := e.sess.Graph()
	node, local := g.NodeOfExit(rec.StageIndex)
	depth := g.EntryDepth(node) + local
	if pol.MaxExit >= 0 && depth > pol.MaxExit {
		return rec, fmt.Errorf("edgecloud: cloud returned exit %d at depth %d, past the policy's max exit %d",
			rec.StageIndex, depth, pol.MaxExit)
	}
	if pol.Trace {
		if want := depth + 1 - len(prefix); len(rec.Trace) != want {
			return rec, fmt.Errorf("edgecloud: cloud returned %d stage confidences for exit %d, want %d",
				len(rec.Trace), rec.StageIndex, want)
		}
		rec.Trace = append(prefix[:len(prefix):len(prefix)], rec.Trace...)
	}
	rec.Node, rec.StageName, rec.Ops = node, g.ExitName(rec.StageIndex), e.exitOps[rec.StageIndex]
	return rec, nil
}
