package edgecloud

import (
	"fmt"
	"net/http"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/energy"
	"cdl/internal/serve"
)

// ServerConfig sizes the edge HTTP front.
type ServerConfig struct {
	// Workers is the number of pool workers, each walking with an Edge of
	// its own (private session and transport). Default GOMAXPROCS.
	Workers int
	// ModelName labels /healthz (e.g. the model file path).
	ModelName string
	// SLO, when active, attaches serve's feedback controller: under
	// sustained pressure it caps the cascade's depth, from the deepest exit
	// down — in the cloud's half first, and below the split every input
	// resolves locally instead of queueing on a slow cloud. Requests with
	// a δ or policy of their own bypass it.
	SLO control.SLO
}

// Server is the edge node's HTTP front: a serve.Server whose one registry
// entry, serve.DefaultModelName, is a split entry (serve.RegisterSplit) —
// its pool workers walk the prefix with an Edge each and resume the hard
// residue on the cloud tier. It serves every route cdlserve does, plus the
// frozen POST /v1/classify (a serve.ClassifyRequest answered as a
// serve.ClassifyResponse) and its own /healthz.
type Server struct {
	*serve.Server
	model   *serve.Model
	cfg     ServerConfig
	edgeCfg Config
	// cloud is the first worker's transport, whose target /healthz names.
	cloud   Transport
	started time.Time
}

// NewServer builds cfg.Workers Edge runtimes, each with its own transport
// from newTransport (one with per-connection state must not be shared; an
// HTTPTransport may simply be returned repeatedly).
func NewServer(model *core.CDLN, newTransport func() (Transport, error), edgeCfg Config, cfg ServerConfig) (*Server, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return NewGraphServer(core.LinearGraph(model), newTransport, edgeCfg, cfg)
}

// NewGraphServer is NewServer for a routing graph: the split cuts the
// trunk, routed inputs offload at their branch handoff, and the tiered
// accounting charges branch paths as cloud compute.
func NewGraphServer(g *core.Graph, newTransport func() (Transport, error), edgeCfg Config, cfg ServerConfig) (*Server, error) {
	edgeCfg = edgeCfg.withDefaults()
	costs, err := energy.NewEvaluator().GraphTierCosts(g, edgeCfg.SplitStage, edgeCfg.Link)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, edgeCfg: edgeCfg, started: time.Now()}
	reg := serve.NewRegistry(serve.Config{Workers: cfg.Workers, ModelName: cfg.ModelName})
	s.model, err = reg.RegisterSplit(serve.DefaultModelName, g, serve.Split{
		Costs: costs, WireBytes: exitWireBytes(g, costs, edgeCfg.Encoding), Delta: edgeCfg.Delta,
		NewWalker: func() (serve.Walker, error) {
			t, err := newTransport()
			if err != nil {
				return nil, err
			}
			if s.cloud == nil {
				s.cloud = t
			}
			e, err := NewGraph(g, t, edgeCfg)
			if err != nil {
				return nil, err
			}
			return e, nil
		},
	})
	if err == nil && cfg.SLO.Active() {
		if err = reg.SetSLO(serve.DefaultModelName, cfg.SLO); err != nil {
			err = fmt.Errorf("edgecloud: SLO on split %d: %w", edgeCfg.SplitStage, err)
		}
	}
	if err == nil {
		s.Server, err = serve.NewWithRegistry(reg)
	}
	if err != nil {
		reg.Close()
		return nil, err
	}
	s.Handle("/v1/classify", s.ClassifyV1())
	s.Handle("GET /healthz", http.HandlerFunc(s.health))
	return s, nil
}

// Close stops the serve front and closes the idle cloud connections.
func (s *Server) Close() {
	s.Server.Close()
	cloud.CloseIdle()
}

// Stats is the split entry's serve.Stats (its Tier always set) with the
// images that crossed the link and those the prefix resolved counted out.
type Stats struct {
	serve.Stats
	Offloads, LocalExits int64
}

// Stats snapshots the split entry's live counters.
func (s *Server) Stats() Stats {
	st := Stats{Stats: s.model.Stats()}
	st.Offloads = st.Tier.Offloaded
	st.LocalExits = st.Tier.Count - st.Tier.Offloaded
	return st
}

// healthResponse is the edge /healthz payload.
type healthResponse struct {
	Status        string  `json:"status"`
	Role          string  `json:"role"`
	Model         string  `json:"model,omitempty"`
	Arch          string  `json:"arch"`
	Stages        int     `json:"stages"`
	SplitStage    int     `json:"split_stage"`
	Delta         float64 `json:"delta"`
	Encoding      string  `json:"encoding"`
	Cloud         string  `json:"cloud,omitempty"`
	CloudModel    string  `json:"cloud_model,omitempty"`
	Workers       int     `json:"workers"`
	SLO           string  `json:"slo,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// health answers /healthz: liveness, model identity, split point and the
// cloud target the first worker's HTTPTransport resumes on.
func (s *Server) health(w http.ResponseWriter, _ *http.Request) {
	trunk := s.model.CDLN()
	h := healthResponse{
		Status: "ok", Role: "edge", Model: s.cfg.ModelName, Arch: trunk.Arch.Name, Stages: len(trunk.Stages),
		SplitStage: s.edgeCfg.SplitStage, Delta: s.edgeCfg.Delta, Encoding: s.edgeCfg.Encoding.String(),
		Workers: s.Registry().Config().Workers, UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if h.Delta < 0 {
		h.Delta = trunk.Delta
	}
	if t, ok := s.cloud.(*HTTPTransport); ok {
		h.Cloud, h.CloudModel = t.BaseURL, t.Model
	}
	if st := s.model.Stats().Control; st != nil {
		h.SLO = st.SLO.String()
	}
	serve.WriteJSON(w, http.StatusOK, h)
}
