// Observability-hygiene fixtures: mux wrapping and the ops surface.
package serve

import (
	"net/http"

	"cdl/internal/obs"
)

// wrappedServer wires its mux through obs.Middleware and takes its ops
// routes from obs.OpsMux.
type wrappedServer struct {
	mux     *http.ServeMux
	handler http.Handler
}

func newWrappedServer(slow *obs.SlowLog) *wrappedServer {
	s := &wrappedServer{mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/classify", func(w http.ResponseWriter, r *http.Request) {})
	obs.OpsMux(s.mux, "serve")
	s.handler = obs.Middleware(s.mux, slow)
	return s
}

// nakedServer registers handlers but never wraps the mux.
type nakedServer struct {
	mux *http.ServeMux
}

func newNakedServer() *nakedServer {
	s := &nakedServer{mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/resume", func(w http.ResponseWriter, r *http.Request) {}) // want:obshygiene "never wrapped by obs.Middleware"
	return s
}

// handRolledOps wraps its mux but registers an ops route itself — the
// second ops surface the OpsMux rule exists to catch on serving tiers.
type handRolledOps struct {
	mux     *http.ServeMux
	handler http.Handler
}

func newHandRolledOps(slow *obs.SlowLog) *handRolledOps {
	s := &handRolledOps{mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /alertz", func(w http.ResponseWriter, r *http.Request) {}) // want:obshygiene "ops routes come from obs.OpsMux"
	s.handler = obs.Middleware(s.mux, slow)
	return s
}
