package edgecloud

import (
	"cdl/internal/core"
	"cdl/internal/serve"
)

// ServerConfig sizes the edge HTTP front.
type ServerConfig struct {
	// Workers is the number of pool workers, each walking with an Edge of
	// its own (default GOMAXPROCS).
	Workers int
}

// Server is a serve.Server whose one entry, serve.DefaultModelName, is a
// split entry (Register) over a linear cascade, with the frozen POST
// /v1/classify (serve.ClassifyRequest in, serve.ClassifyResponse out).
type Server struct {
	*serve.Server
	model *serve.Model
}

// NewServer builds cfg.Workers Edge runtimes over model (validated by
// Register's first Edge), each with its own transport from newTransport.
func NewServer(model *core.CDLN, newTransport func() (Transport, error), edgeCfg Config, cfg ServerConfig) (*Server, error) {
	reg := serve.NewRegistry(serve.Config{Workers: cfg.Workers})
	m, err := Register(reg, serve.DefaultModelName, core.LinearGraph(model), newTransport, edgeCfg)
	var srv *serve.Server
	if err == nil {
		srv, err = serve.NewWithRegistry(reg)
	}
	if err != nil {
		reg.Close()
		return nil, err
	}
	srv.Handle("/v1/classify", srv.ClassifyV1())
	return &Server{Server: srv, model: m}, nil
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
	st := s.model.Stats()
	return Stats{Stats: st, Offloads: st.Tier.Offloaded, LocalExits: st.Tier.Count - st.Tier.Offloaded}
}
