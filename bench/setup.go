package main

// setup.go builds everything a workload needs before timing starts: the
// generated test split, the loaded fixture, the CDLN.Classify oracle, and
// the session or the in-process serving topology on loopback listeners
// with its pre-marshalled request bodies. All of it is what setup_s times.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"cdl/internal/core"
	"cdl/internal/edgecloud"
	"cdl/internal/energy"
	"cdl/internal/fleet"
	"cdl/internal/mnist"
	"cdl/internal/serve"
	"cdl/internal/tensor"
)

// request is one pre-marshalled HTTP body and the images it carries.
type request struct {
	body   []byte
	lo, hi int // image index range [lo, hi)
}

// env is one workload, set up and ready to measure.
type env struct {
	w      workload
	nproc  int
	xs     []*tensor.T
	labels []int
	model  *core.CDLN
	pol    core.ExitPolicy
	// oracle[i] is CDLN.Classify on image i under the workload's policy:
	// what every surface must return.
	oracle  []core.ExitRecord
	baseOps float64
	// exitPJ is the monolithic 45 nm energy of each exit point.
	exitPJ []float64

	sess    *core.Session // offline workloads
	scratch []result      // asResults' buffer

	// Serving workloads: the front door, its requests, and the servers
	// behind it (for Stats and the traced run's direct calls).
	reqs     []request
	url      string
	target   *httpTarget
	cloud    *serve.Server   // direct server, or the edge's cloud tier
	backends []*serve.Server // routed: the two backends (cloud == backends[0])
	backURLs []string
	router   *fleet.Router
	edge     *edgecloud.Server
	firstMS  float64

	closers []func()
}

// close tears the topology down, front door first.
func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// policy renders a workload's δ as the ExitPolicy the batched walks take.
func (w workload) policy() core.ExitPolicy {
	pol := core.DefaultExitPolicy()
	pol.Delta = w.Delta
	return pol
}

// newEnv performs one full set-up of w.
func newEnv(w workload, seed int64) (*env, error) {
	e := &env{w: w, nproc: runtime.GOMAXPROCS(0), pol: w.policy()}
	// The train split is not used; one image keeps the shared generator call.
	_, imgs, err := mnist.GenerateSplit(1, splitImages, seed)
	if err != nil {
		return nil, err
	}
	samples := mnist.ToSamples(imgs)
	e.xs = make([]*tensor.T, len(samples))
	e.labels = make([]int, len(samples))
	for i, s := range samples {
		e.xs[i], e.labels[i] = s.X, s.Label
	}
	if e.model, err = loadFixture(w.Fixture); err != nil {
		return nil, err
	}
	res, err := core.Evaluate(e.model, samples, 0, true)
	if err != nil {
		return nil, err
	}
	if err := checkFixtureEval(w.Fixture, seed, res); err != nil {
		return nil, err
	}
	ref := e.model.Clone()
	if w.Delta >= 0 {
		ref.Delta, ref.StageDeltas = w.Delta, nil
	}
	e.oracle = make([]core.ExitRecord, len(e.xs))
	for i, x := range e.xs {
		e.oracle[i] = ref.Classify(x)
		if w.Delta < 0 && !e.oracle[i].Equal(res.Records[i]) {
			return nil, fmt.Errorf("image %d: core.Evaluate record %+v differs from CDLN.Classify %+v", i, res.Records[i], e.oracle[i])
		}
	}
	e.baseOps = e.model.BaselineOps()
	e.exitPJ = energy.NewEvaluator().ExitEnergies(e.model)

	if w.offline() {
		if e.sess, err = core.NewSession(e.model); err != nil {
			return nil, err
		}
		e.warmOffline()
		return e, nil
	}
	for _, step := range []func() error{e.startTopology, e.marshalRequests, e.warmServing} {
		if err := step(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// head returns the images the warm-up and the traced run use: the first
// replayRequests, in whole batches.
func (e *env) head() []*tensor.T {
	n := replayRequests
	if n > len(e.xs) {
		n = len(e.xs) / offlineBatch * offlineBatch
	}
	return e.xs[:n]
}

// warmOffline runs the first batches and single calls untimed.
func (e *env) warmOffline() {
	head := e.head()
	for lo := 0; lo < len(head); lo += offlineBatch {
		e.sess.ClassifyBatchPolicy(head[lo:lo+offlineBatch], e.pol)
	}
	for _, x := range head {
		e.sess.ClassifyDelta(x, e.w.Delta)
	}
}

// newServer starts one serve.Server holding the fixture as modelName.
func (e *env) newServer(workers int) (*serve.Server, string, error) {
	reg := serve.NewRegistry(serve.Config{Workers: workers})
	if _, err := reg.Register(modelName, e.model); err != nil {
		reg.Close()
		return nil, "", err
	}
	srv, err := serve.NewWithRegistry(reg)
	if err != nil {
		reg.Close()
		return nil, "", err
	}
	ts := httptest.NewServer(srv.Handler())
	e.closers = append(e.closers, srv.Close, ts.Close)
	return srv, ts.URL, nil
}

// startTopology brings the workload's servers up on loopback listeners.
// The replica pools of one workload sum to nproc, so the servers never
// oversubscribe the machine the load generator shares with them; an edge
// worker blocks while its cloud request computes, so there the two tiers
// take nproc each.
func (e *env) startTopology() error {
	const classifyPath = "/v2/models/" + modelName + "/classify"
	var err error
	switch e.w.Surface {
	case surfaceServe:
		var base string
		if e.cloud, base, err = e.newServer(e.nproc); err != nil {
			return err
		}
		e.url = base + classifyPath
	case surfaceRouted:
		per := e.nproc / 2
		if per < 1 {
			per = 1
		}
		for i := 0; i < 2; i++ {
			srv, base, err := e.newServer(per)
			if err != nil {
				return err
			}
			e.backends = append(e.backends, srv)
			e.backURLs = append(e.backURLs, base)
		}
		e.cloud = e.backends[0]
		if e.router, err = fleet.New(fleet.Config{Backends: e.backURLs}); err != nil {
			return err
		}
		ts := httptest.NewServer(e.router.Handler())
		e.closers = append(e.closers, e.router.Close, ts.Close)
		e.url = ts.URL + classifyPath
	case surfaceEdge:
		var base string
		if e.cloud, base, err = e.newServer(e.nproc); err != nil {
			return err
		}
		e.backURLs = []string{base}
		newTransport := func() (edgecloud.Transport, error) {
			return edgecloud.NewHTTPModelTransport(base, modelName), nil
		}
		e.edge, err = edgecloud.NewServer(e.model, newTransport, edgecloud.DefaultConfig(edgeSplit),
			edgecloud.ServerConfig{Workers: e.nproc})
		if err != nil {
			return err
		}
		ts := httptest.NewServer(e.edge.Handler())
		// The transport's default client pools its connections here.
		e.closers = append(e.closers, http.DefaultTransport.(*http.Transport).CloseIdleConnections, e.edge.Close, ts.Close)
		e.url = ts.URL + "/v1/classify"
	default:
		return fmt.Errorf("workload %s has no serving surface", e.w.Name)
	}
	e.target = newHTTPTarget(e.url, e.nproc)
	e.closers = append(e.closers, e.target.reconnect)
	return nil
}

// edgeSplit is the number of cascade stages the edge tier owns.
const edgeSplit = 1

// marshalRequests renders every request body once, so that a client's cost
// during a timed phase is a write and a read.
func (e *env) marshalRequests() error {
	k := e.w.ImagesPerReq
	for lo := 0; lo < len(e.xs); lo += k {
		hi := lo + k
		if hi > len(e.xs) {
			hi = len(e.xs)
		}
		images := make([][]float64, hi-lo)
		for i := range images {
			images[i] = e.xs[lo+i].Data
		}
		var v any
		switch {
		case e.w.Surface == surfaceEdge:
			d := e.w.Delta
			v = serve.ClassifyRequest{Images: images, Delta: &d}
		case k == 1:
			v = serve.V2ClassifyRequest{Image: images[0]}
		default:
			v = serve.V2ClassifyRequest{Images: images}
		}
		body, err := json.Marshal(v)
		if err != nil {
			return err
		}
		e.reqs = append(e.reqs, request{body: body, lo: lo, hi: hi})
	}
	return nil
}

// replayCount is how many requests the warm-up sends and the traced run
// replays.
func (e *env) replayCount() int {
	if len(e.reqs) < replayRequests {
		return len(e.reqs)
	}
	return replayRequests
}

// warmServing times the first request alone (the first requests after a
// pool starts pay goroutine start-up and heap growth; the very first is
// reported as serve.first_req_ms), then runs the closed-loop warm-up, so
// none of that lands in a timed phase. Any failure here fails set-up.
func (e *env) warmServing() error {
	t0 := time.Now()
	if _, err := e.do(0, ""); err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	e.firstMS = ms(time.Since(t0))
	n := e.replayCount()
	pass := closedPass(0, n, e.nproc, func(i int) error { _, err := e.do(i, ""); return err })
	if pass.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed, first: %v", pass.failed, n, pass.firstErr)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
