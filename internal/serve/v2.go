// v2.go is the multi-model request surface: every route names its model,
// the request body carries a structured ExitPolicy, and PUT hot-swaps a
// model version without dropping traffic.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"cdl/internal/core"
	"cdl/internal/obs"
)

// PolicyRequest is the wire form of a per-request exit policy (v2 bodies,
// "policy" field). All fields are optional; the zero value keeps the
// model's trained behaviour.
type PolicyRequest struct {
	// Delta overrides the confidence threshold for every stage; finite, in
	// [0,1].
	Delta *float64 `json:"delta,omitempty"`
	// StageDeltas overrides the threshold per stage; its length must equal
	// the model's stage count, and each entry must be in [0,1] or negative
	// (negative = keep Delta / the trained value for that stage).
	StageDeltas []float64 `json:"stage_deltas,omitempty"`
	// MaxExit caps cascade depth: inputs still active at this path depth
	// exit there unconditionally (0-based stage index on a linear model;
	// on a routed model the cap counts stages along the root-to-exit path;
	// the graph's max depth means the deepest terminator, i.e. no cap).
	MaxExit *int `json:"max_exit,omitempty"`
	// OpsBudget caps the per-input dynamic operation count: the cascade is
	// truncated at the deepest exit whose cost fits the budget. Combines
	// with MaxExit by taking the shallower cap.
	OpsBudget *float64 `json:"ops_budget,omitempty"`
	// Detail selects the record detail level: "label" (prediction only),
	// "cost" (default: ops + energy accounting) or "trace"
	// (cost plus the winning confidence at every evaluated exit).
	Detail string `json:"detail,omitempty"`
}

// Detail levels for PolicyRequest.Detail.
const (
	DetailLabel = "label"
	DetailCost  = "cost"
	DetailTrace = "trace"
)

// resolve validates the wire policy against a model once, returning the
// core policy the pool threads through to the Session walker and the
// normalized detail level. Errors name the offending field relative to the
// policy; the handler prefixes where the policy sits in the route's body.
func (p *PolicyRequest) resolve(m *Model) (core.ExitPolicy, string, error) {
	pol := core.DefaultExitPolicy()
	detail := DetailCost
	delta, err := ParseDeltaOverride(p.Delta)
	if err != nil {
		return pol, "", err
	}
	pol.Delta = delta
	if p.StageDeltas != nil {
		if len(p.StageDeltas) != len(m.cdln.Stages) {
			return pol, "", fmt.Errorf("%d stage deltas for %d stages", len(p.StageDeltas), len(m.cdln.Stages))
		}
		sd := make([]float64, len(p.StageDeltas))
		for i, d := range p.StageDeltas {
			if math.IsNaN(d) || math.IsInf(d, 0) || d > 1 {
				return pol, "", fmt.Errorf("stage %d delta %v must be negative (keep) or in [0,1]", i, d)
			}
			sd[i] = d
		}
		pol.StageDeltas = sd
	}
	if p.MaxExit != nil {
		me := *p.MaxExit
		if me < 0 || me > m.graph.MaxDepth() {
			return pol, "", fmt.Errorf("max_exit %d outside [0,%d]", me, m.graph.MaxDepth())
		}
		pol.MaxExit = me
	}
	if p.OpsBudget != nil {
		me, err := m.graph.MaxExitForOps(*p.OpsBudget)
		if err != nil {
			return pol, "", err
		}
		if pol.MaxExit < 0 || me < pol.MaxExit {
			pol.MaxExit = me
		}
	}
	switch p.Detail {
	case "":
	case DetailLabel, DetailCost, DetailTrace:
		detail = p.Detail
	default:
		return pol, "", fmt.Errorf("unknown detail %q (want %q, %q or %q)",
			p.Detail, DetailLabel, DetailCost, DetailTrace)
	}
	pol.Trace = detail == DetailTrace
	// The field checks above are the one definition of a valid policy,
	// phrased as per-field 400s (TestPolicyRequestResolve pins them).
	return pol, detail, nil
}

// PolicyRequestOf is resolve's inverse: the wire form of a resolved
// policy, which resolves back to it on any entry of the same graph, or nil
// for the trained policy. An ops_budget travels as the max_exit it resolved
// to. A split entry's walkers forward a request's policy in it.
func PolicyRequestOf(pol core.ExitPolicy) *PolicyRequest {
	p := PolicyRequest{StageDeltas: pol.StageDeltas}
	if d := pol.Delta; d >= 0 {
		p.Delta = &d
	}
	if me := pol.MaxExit; me >= 0 {
		p.MaxExit = &me
	}
	if pol.Trace {
		p.Detail = DetailTrace
	}
	if p.Delta == nil && p.StageDeltas == nil && p.MaxExit == nil && p.Detail == "" {
		return nil
	}
	return &p
}

// V2ClassifyRequest is the POST /v2/models/{model}/classify payload:
// images as in ClassifyRequest, a structured exit policy, and an optional per-request
// deadline after which the request is abandoned wherever it is (queued
// requests are dropped before touching a replica).
type V2ClassifyRequest struct {
	Image     []float64      `json:"image,omitempty"`
	Images    [][]float64    `json:"images,omitempty"`
	Policy    *PolicyRequest `json:"policy,omitempty"`
	TimeoutMS int            `json:"timeout_ms,omitempty"`
}

// V2ResumeRequest is the POST /v2/models/{model}/resume payload.
type V2ResumeRequest struct {
	Payload   string         `json:"payload,omitempty"`
	Payloads  []string       `json:"payloads,omitempty"`
	Policy    *PolicyRequest `json:"policy,omitempty"`
	TimeoutMS int            `json:"timeout_ms,omitempty"`
}

// V2Result is one image's outcome on the v2 surface. The cost fields are
// omitted at detail level "label"; StageConfidences is present only at
// detail level "trace".
type V2Result struct {
	Label     int    `json:"label"`
	Exit      string `json:"exit"`
	ExitIndex int    `json:"exit_index"`
	// Node is the routing-graph node that resolved the input (0 = trunk,
	// omitted for linear models).
	Node             int       `json:"node,omitempty"`
	Confidence       float64   `json:"confidence"`
	Ops              float64   `json:"ops,omitempty"`
	NormalizedOps    float64   `json:"normalized_ops,omitempty"`
	EnergyPJ         float64   `json:"energy_pj,omitempty"`
	StageConfidences []float64 `json:"stage_confidences,omitempty"`
}

// V2ClassifyResponse is the v2 classify/resume response: the
// ClassifyResult shape plus the model identity that served it (name and version matter
// once hot-swap exists). At detail level "trace" with a timeout_ms set,
// DeadlineUnixMS surfaces the resolved absolute deadline the request ran
// under (Unix milliseconds) — the observability hook for debugging
// client-side timeout budgets against server clocks.
type V2ClassifyResponse struct {
	Model          string     `json:"model"`
	Version        int        `json:"version"`
	Results        []V2Result `json:"results"`
	Count          int        `json:"count"`
	DeadlineUnixMS int64      `json:"deadline_unix_ms,omitempty"`
	// TraceID and Spans carry the request's span timeline (queue wait,
	// batch grouping, every executed stage, route decisions, exits). They
	// appear when the client sent an X-Trace-Id header or asked for detail
	// level "trace".
	TraceID string     `json:"trace_id,omitempty"`
	Spans   []obs.Span `json:"spans,omitempty"`
}

// MaxTimeoutMS caps the per-request timeout_ms at 10 minutes: a larger
// value cannot mean anything on a path whose queue drains in seconds, so
// it is almost certainly a unit confusion (seconds or nanoseconds pasted
// into a millisecond field) and is rejected rather than silently honored.
const MaxTimeoutMS = 600_000

// requestContext applies an optional client deadline to the request
// context. Zero keeps the connection-scoped context (cancelled when the
// client disconnects); positive values additionally bound queue + compute
// time. Values outside [0, MaxTimeoutMS] are rejected with 400.
func requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc, *requestError) {
	if timeoutMS < 0 {
		return nil, nil, badRequest("timeout_ms %d must be ≥ 0", timeoutMS)
	}
	if timeoutMS > MaxTimeoutMS {
		return nil, nil, badRequest("timeout_ms %d beyond the maximum %d (10 minutes) — check the unit", timeoutMS, MaxTimeoutMS)
	}
	if timeoutMS == 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(timeoutMS)*time.Millisecond)
	return ctx, cancel, nil
}

// ModelInfo is one registry entry's metadata on GET /v2/models: identity,
// cascade structure, thresholds and per-exit op costs — what a client
// needs to shape an ExitPolicy (max_exit indices, ops_budget scale).
type ModelInfo struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	Path    string `json:"path,omitempty"`
	// Default marks the first registered entry, the one /healthz and
	// /statsz describe.
	Default bool   `json:"default"`
	Arch    string `json:"arch"`
	Stages  int    `json:"stages"`
	// Delta and StageDeltas are the model's trained thresholds (the values
	// a request policy overrides).
	Delta       float64   `json:"delta"`
	StageDeltas []float64 `json:"stage_deltas,omitempty"`
	// ExitNames and ExitOps describe the exit points in the routing
	// graph's global exit order (trunk stages then FC, then each branch's;
	// cascade order for linear models); BaselineOps is one full trunk
	// forward pass.
	ExitNames   []string  `json:"exit_names"`
	ExitOps     []float64 `json:"exit_ops"`
	BaselineOps float64   `json:"baseline_ops"`
	// MaxDepth is the deepest root-to-exit path length (equals Stages for
	// linear models) — the max_exit scale of a request policy.
	MaxDepth int `json:"max_depth"`
	// Branches describes the routing graph's branch subnetworks, absent
	// for linear models.
	Branches []BranchInfo `json:"branches,omitempty"`
	Workers  int          `json:"workers"`
	// Images is the number of images this version has classified.
	Images int64 `json:"images"`
}

// BranchInfo is one branch subnetwork's metadata on GET /v2/models: what
// a client needs to target PUT /v2/models/{model}/branches/{branch} and
// to read branch-qualified exit names.
type BranchInfo struct {
	Name string `json:"name"`
	// Parent/RouterStage locate the branch: it is entered when the parent
	// node's router at that stage selects it.
	Parent      string `json:"parent"`
	RouterStage int    `json:"router_stage"`
	Stages      int    `json:"stages"`
	// Labels maps the branch's local class indices to trunk classes.
	Labels []int `json:"labels"`
}

// V2ModelsResponse is the GET /v2/models payload.
type V2ModelsResponse struct {
	Default string      `json:"default"`
	Models  []ModelInfo `json:"models"`
}

// info assembles a ModelInfo snapshot.
func (m *Model) info(isDefault bool) ModelInfo {
	c := m.cdln
	g := m.graph
	names := make([]string, g.NumExits())
	for i := range names {
		names[i] = g.ExitName(i)
	}
	var stageDeltas []float64
	if c.StageDeltas != nil {
		stageDeltas = append([]float64(nil), c.StageDeltas...)
	}
	var branches []BranchInfo
	for ni := 1; ni < len(g.Nodes); ni++ {
		n := g.Nodes[ni]
		parent, stage := g.ParentOf(ni)
		branches = append(branches, BranchInfo{
			Name:        n.Name,
			Parent:      g.Nodes[parent].Name,
			RouterStage: stage,
			Stages:      len(n.Model.Stages),
			Labels:      append([]int(nil), n.Labels...),
		})
	}
	return ModelInfo{
		Name:        m.name,
		Version:     m.version,
		Path:        m.path,
		Default:     isDefault,
		Arch:        c.Arch.Name,
		Stages:      len(c.Stages),
		Delta:       c.Delta,
		StageDeltas: stageDeltas,
		ExitNames:   names,
		ExitOps:     append([]float64(nil), m.exitOps...),
		BaselineOps: c.BaselineOps(),
		MaxDepth:    g.MaxDepth(),
		Branches:    branches,
		Workers:     m.workers,
		Images:      m.Stats().Images,
	}
}

func (s *Server) handleModelsList(w http.ResponseWriter, r *http.Request) {
	def := s.reg.DefaultName()
	models := s.reg.Models()
	resp := V2ModelsResponse{Default: def, Models: make([]ModelInfo, len(models))}
	for i, m := range models {
		resp.Models[i] = m.info(m.name == def)
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r.PathValue("model"))
	if !ok {
		return
	}
	WriteJSON(w, http.StatusOK, m.info(m.name == s.reg.DefaultName()))
}

// V2PutModelRequest is the PUT /v2/models/{model} payload: the modelio
// file to load. The file is fully parsed, validated and warmed before the
// swap, so a bad path never displaces the serving version. This is an
// admin surface — deploy it behind the same trust boundary as the process
// itself (the path is read from the server's filesystem).
type V2PutModelRequest struct {
	Path string `json:"path"`
}

// V2PutModelResponse reports the published version.
type V2PutModelResponse struct {
	Model   string  `json:"model"`
	Version int     `json:"version"`
	Arch    string  `json:"arch"`
	Stages  int     `json:"stages"`
	Delta   float64 `json:"delta"`
}

func (s *Server) handleModelPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	if err := validName(name); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	var req V2PutModelRequest
	if rerr := decodeBody(w, r, http.MethodPut, 1<<20, &req, nil); rerr != nil {
		WriteError(w, rerr.status, rerr.msg)
		return
	}
	if req.Path == "" {
		WriteError(w, http.StatusBadRequest, `missing "path"`)
		return
	}
	m, err := s.reg.Load(name, req.Path)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		WriteError(w, status, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, V2PutModelResponse{
		Model: m.name, Version: m.version,
		Arch: m.cdln.Arch.Name, Stages: len(m.cdln.Stages), Delta: m.cdln.Delta,
	})
}

// V2PutBranchRequest is the PUT /v2/models/{model}/branches/{branch}
// payload: the modelio CDLN file holding the replacement branch cascade.
// Same trust boundary as PUT /v2/models/{model}.
type V2PutBranchRequest struct {
	Path string `json:"path"`
}

// V2PutBranchResponse reports the published version after a branch swap.
type V2PutBranchResponse struct {
	Model   string `json:"model"`
	Branch  string `json:"branch"`
	Version int    `json:"version"`
}

// handleBranchPut hot-swaps one branch subnetwork of a routed model: the
// rest of the graph keeps serving its current weights, and the swap obeys
// the same warm-before-publish, drain-after contract as a whole-model
// reload — zero dropped requests.
func (s *Server) handleBranchPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	branch := r.PathValue("branch")
	if err := validName(branch); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if _, ok := s.lookup(w, name); !ok {
		return
	}
	var req V2PutBranchRequest
	if rerr := decodeBody(w, r, http.MethodPut, 1<<20, &req, nil); rerr != nil {
		WriteError(w, rerr.status, rerr.msg)
		return
	}
	if req.Path == "" {
		WriteError(w, http.StatusBadRequest, `missing "path"`)
		return
	}
	m, err := s.reg.LoadBranch(name, branch, req.Path)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		WriteError(w, status, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, V2PutBranchResponse{Model: m.Name(), Branch: branch, Version: m.Version()})
}
