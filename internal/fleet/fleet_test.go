package fleet

// fleet_test.go is the multi-process-shaped harness the fleet tier is
// proven with: every test boots real cdlserve backends — full servers with
// their own worker pools, registries and HTTP surfaces — on loopback
// listeners, puts the router in front, and drives concurrent load through
// failure storms under -race. In-process keeps the harness hermetic and
// race-instrumented end to end, while the boundaries crossed (TCP, HTTP,
// health probes, process-style kill = listener and connections severed)
// are the same ones separate processes would cross.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdl/internal/core"
	"cdl/internal/nn"
	"cdl/internal/serve"
	"cdl/internal/tensor"
	"cdl/internal/train"
)

// testCDLN trains the small two-tap blob cascade every serving-tier test
// uses (12×12 inputs, 3 classes, some inputs exit early, some reach FC).
func testCDLN(t testing.TB, seed int64) (*core.CDLN, []train.Sample) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork([]int{1, 12, 12},
		nn.NewConv2D("C1", 1, 2, 3),
		nn.NewSigmoid("C1.act"),
		nn.NewMaxPool2D("P1", 2),
		nn.NewConv2D("C2", 2, 3, 2),
		nn.NewSigmoid("C2.act"),
		nn.NewMaxPool2D("P2", 2),
		nn.NewFlatten("flat"),
		nn.NewDense("FC", 3*2*2, 3),
		nn.NewSigmoid("FC.act"),
	)
	nn.InitNetwork(net, rng)
	arch := &nn.Arch{
		Name: "fleet-test", Net: net,
		Taps: []int{3, 6}, TapNames: []string{"P1", "P2"},
		NumClasses: 3,
	}
	data := blobData(180, seed+1)
	cfg := train.Defaults(3)
	cfg.Epochs = 12
	cfg.BatchSize = 10
	if _, err := train.SGD(arch.Net, data, cfg); err != nil {
		t.Fatal(err)
	}
	bcfg := core.DefaultBuildConfig()
	bcfg.ForceAllStages = true
	cdln, _, err := core.Build(arch, data, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	return cdln, data
}

func blobData(n int, seed int64) []train.Sample {
	rng := rand.New(rand.NewSource(seed))
	centers := [][2]int{{3, 3}, {3, 8}, {8, 5}}
	out := make([]train.Sample, n)
	for i := range out {
		label := i % 3
		noise := 0.05
		if rng.Float64() < 0.3 {
			noise = 0.35
		}
		x := tensor.New(1, 12, 12)
		cy, cx := centers[label][0], centers[label][1]
		for y := 0; y < 12; y++ {
			for xx := 0; xx < 12; xx++ {
				d2 := float64((y-cy)*(y-cy) + (xx-cx)*(xx-cx))
				v := 1/(1+d2/3) + rng.NormFloat64()*noise
				if v < 0 {
					v = 0
				}
				if v > 1 {
					v = 1
				}
				x.Data[y*12+xx] = v
			}
		}
		out[i] = train.Sample{X: x, Label: label}
	}
	return out
}

// testBackend is one in-process cdlserve "process": a full Server behind a
// real loopback listener. Kill severs the listener and every open
// connection at once — the closest in-process analogue of a SIGKILL — and
// Restart rebinds the same address so probe-driven re-admission is
// observable.
type testBackend struct {
	t    testing.TB
	cdln *core.CDLN
	cfg  serve.Config

	mu   sync.Mutex
	srv  *serve.Server
	hs   *http.Server
	addr string
	url  string
}

func startBackend(t testing.TB, cdln *core.CDLN, cfg serve.Config) *testBackend {
	t.Helper()
	b := &testBackend{t: t, cdln: cdln, cfg: cfg}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.addr = ln.Addr().String()
	b.url = "http://" + b.addr
	b.serveOn(ln)
	t.Cleanup(b.Kill)
	return b
}

func (b *testBackend) serveOn(ln net.Listener) {
	srv, err := serve.New(b.cdln, b.cfg)
	if err != nil {
		b.t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	b.mu.Lock()
	b.srv, b.hs = srv, hs
	b.mu.Unlock()
	go func() { _ = hs.Serve(ln) }()
}

// Kill severs the backend: listener and all live connections close
// immediately, then the server's pools stop. Safe to call twice.
func (b *testBackend) Kill() {
	b.mu.Lock()
	srv, hs := b.srv, b.hs
	b.srv, b.hs = nil, nil
	b.mu.Unlock()
	if hs != nil {
		_ = hs.Close()
	}
	if srv != nil {
		srv.Close()
	}
}

// Restart rebinds the same loopback address with a fresh Server. Go
// listeners set SO_REUSEADDR, so the rebind succeeds as soon as the old
// listener is gone.
func (b *testBackend) Restart() {
	b.t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", b.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		b.t.Fatalf("rebind %s: %v", b.addr, err)
	}
	b.serveOn(ln)
}

// Server returns the live serve.Server (nil while killed).
func (b *testBackend) Server() *serve.Server {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.srv
}

// testFleet is N backends plus the router, served via httptest.
type testFleet struct {
	backends []*testBackend
	router   *Router
	ts       *httptest.Server
}

func (f *testFleet) URL() string { return f.ts.URL }

// startFleet boots n backends over a shared trained model and a router in
// front of them. Probe cadence is fast (25ms) so failure-detection bounds
// keep the test quick; mutate cfg for per-test routing behaviour.
func startFleet(t testing.TB, cdln *core.CDLN, n int, mutate func(*Config)) *testFleet {
	t.Helper()
	scfg := serve.Config{Workers: 2, QueueDepth: 256, MaxBatch: 8}
	f := &testFleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		b := startBackend(t, cdln, scfg)
		f.backends = append(f.backends, b)
		urls[i] = b.url
	}
	cfg := Config{
		Backends:      urls,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.ts = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		f.ts.Close()
		rt.Close()
	})
	return f
}

// classifyPath and resumePath are the data routes of the entry a backend
// registers for a bare model (serve.New, cdlserve -model path).
const (
	classifyPath = "/v2/models/" + serve.DefaultModelName + "/classify"
	resumePath   = "/v2/models/" + serve.DefaultModelName + "/resume"
)

// sampleImages flattens k samples into request image payloads.
func sampleImages(data []train.Sample, off, k int) [][]float64 {
	out := make([][]float64, k)
	for i := 0; i < k; i++ {
		out[i] = data[(off+i)%len(data)].X.Data
	}
	return out
}

func postJSON(t testing.TB, client *http.Client, url string, v any) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil
	}
	return resp.StatusCode, resp.Header, payload
}

func jsonBody(b []byte) io.Reader { return bytes.NewReader(b) }

func readAll(resp *http.Response) ([]byte, error) { return io.ReadAll(resp.Body) }

// routerStats fetches and decodes the router's /statsz.
func routerStats(t testing.TB, url string) RouterStats {
	t.Helper()
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitReady blocks until the router reports n ready backends (probe
// rounds take ~ProbeInterval; the deadline is generous for -race).
func waitReady(t testing.TB, f *testFleet, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ready := 0
		for _, st := range routerStats(t, f.URL()).Backends {
			if st.Healthy {
				ready++
			}
		}
		if ready >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("router never saw %d ready backends", n)
}

// TestFleetRoutesAcrossBackends is the basic fan-out check: traffic
// through the router answers correctly and every backend takes a share
// (the ring spreads distinct inputs).
func TestFleetRoutesAcrossBackends(t *testing.T) {
	cdln, data := testCDLN(t, 31)
	f := startFleet(t, cdln, 3, nil)
	waitReady(t, f, 3)

	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 60; i++ {
		status, _, body := postJSON(t, client, f.URL()+classifyPath,
			serve.V2ClassifyRequest{Images: sampleImages(data, i*3, 2)})
		if status != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i, status, body)
		}
		var cr serve.V2ClassifyResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatalf("request %d: bad body: %v", i, err)
		}
		if cr.Count != 2 {
			t.Fatalf("request %d: count %d, want 2", i, cr.Count)
		}
	}
	st := routerStats(t, f.URL())
	for _, b := range st.Backends {
		if b.Requests == 0 {
			t.Errorf("backend %s took no traffic; ring is not spreading", b.URL)
		}
	}
	if mt := st.Models[serve.DefaultModelName]; mt.Requests != 60 {
		t.Errorf("router counted %d requests, want 60", mt.Requests)
	}
}

// TestPickChainOrder pins bounded load on the router's own in-flight count.
// Backends are named by rank in the key's ring sequence. The chain lists
// healthy backends under the cap first, then those over it, then draining
// ones, each group in ring order; unhealthy backends are left out. The cap
// is LoadFactor (2) × (in flight on healthy backends + 1) ÷ healthy count.
func TestPickChainOrder(t *testing.T) {
	rt, err := New(Config{
		Backends: []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3", "http://127.0.0.1:4"},
		// Nothing listens there and no second round runs, so the states
		// set below stay put.
		ProbeInterval: time.Hour,
		ProbeTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	const key = 42
	seq := rt.ring.Seq(key)
	type state struct {
		down     bool
		inflight int64
		swapping bool
	}
	for _, tc := range []struct {
		name   string
		states [4]state // by ring rank
		want   []int    // ring ranks, in chain order
	}{
		{"idle fleet keeps ring order", [4]state{}, []int{0, 1, 2, 3}},
		// cap = 2 × (3+1)/4 = 2: the owner's 3 is over it.
		{"owner over the cap spills", [4]state{{inflight: 3}, {}, {}, {}}, []int{1, 2, 3, 0}},
		{"over the cap before draining", [4]state{{swapping: true}, {inflight: 3}, {}, {}}, []int{2, 3, 1, 0}},
		{"unhealthy excluded", [4]state{{down: true}, {}, {down: true}, {}}, []int{1, 3}},
		// An unhealthy backend's in-flight count is not in the cap:
		// cap = 2 × (4+1)/3 = 3, so rank 2's 4 is over it.
		{"all three rules", [4]state{{down: true, inflight: 5}, {swapping: true}, {inflight: 4}, {}}, []int{3, 2, 1}},
		{"no healthy backend", [4]state{{down: true}, {down: true}, {down: true}, {down: true}}, nil},
	} {
		for rank, st := range tc.states {
			b := rt.backends[seq[rank]]
			b.healthy.Store(!st.down)
			b.inflight.Store(st.inflight)
			b.swapping.Store(st.swapping)
		}
		var got []int
		for _, b := range rt.pickChain(key) {
			got = append(got, slices.Index(seq, slices.Index(rt.backends, b)))
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: chain by ring rank %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestShedOverflowsToNextNode pins the 503 backstop behind bounded load. A
// ring owner that sheds (503 + Retry-After) sends the request on to the
// next node, and the client gets that node's answer. When every backend
// sheds, the client gets a 503 that still carries Retry-After.
func TestShedOverflowsToNextNode(t *testing.T) {
	var shedding [2]atomic.Bool
	var hits [2]atomic.Int64
	urls := make([]string, 2)
	for i := range urls {
		mux := probedMux(nil)
		mux.HandleFunc("POST "+classifyPath, func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			hits[i].Add(1)
			if shedding[i].Load() {
				serve.WriteShed(w, "queue full")
				return
			}
			serve.WriteJSON(w, http.StatusOK, serve.V2ClassifyResponse{Count: 1})
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	rt, err := New(Config{Backends: urls, ProbeInterval: time.Hour, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	body := []byte(`{"images": [[0.5]]}`)
	ownerIdx := owner(rt.ring, HashRequest(serve.DefaultModelName, body))
	post := func() *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, classifyPath, bytes.NewReader(body))
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, r)
		return w
	}

	shedding[ownerIdx].Store(true)
	if w := post(); w.Code != http.StatusOK {
		t.Fatalf("owner shed: HTTP %d (%s), want the next node's 200", w.Code, w.Body)
	}
	if hits[ownerIdx].Load() != 1 || hits[1-ownerIdx].Load() != 1 {
		t.Errorf("attempts: owner %d, next %d; want the owner, then the next node, once each",
			hits[ownerIdx].Load(), hits[1-ownerIdx].Load())
	}

	shedding[1-ownerIdx].Store(true)
	w := post()
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("fleet-wide shed: HTTP %d (%s), want 503", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("fleet-wide shed reached the client without Retry-After")
	}
	st := rt.Stats().Models[serve.DefaultModelName]
	if st.Retries != 2 || st.Sheds != 1 {
		t.Errorf("retries %d, sheds %d; want 2 failovers and 1 shed", st.Retries, st.Sheds)
	}
}

// unreadBody fails the test if the handler reads the body at all.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the body was read")
	return 0, io.EOF
}

// TestRouterBodyBound pins the router's 413 rule, the one serve's
// decodeBody has: maxBodyBytes alone decides. A declared length over the
// bound is refused before a byte is read, a body that runs past it
// undeclared (chunked) is refused too, both with MaxBytesError's message;
// a body of exactly the bound — two images padded to 32 MiB — is forwarded
// intact, which a backend whose own bound (8 192 images of 144 pixels,
// ~38 MB) is wider shows by classifying it.
func TestRouterBodyBound(t *testing.T) {
	cdln, data := testCDLN(t, 37)
	req, err := json.Marshal(serve.V2ClassifyRequest{Images: sampleImages(data, 0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	const bound = maxBodyBytes
	over := make([]byte, bound+1)
	copy(over, req)
	for i := len(req); i < len(over); i++ {
		over[i] = ' '
	}
	body := over[:bound]
	b := startBackend(t, cdln, serve.Config{Workers: 1, MaxBatch: 1024, QueueDepth: 8192})
	rt, err := New(Config{Backends: []string{b.url}}) // probes once: ready on return
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	for _, tc := range []struct {
		name     string
		body     io.Reader
		declared int64
		want     int
	}{
		{"exactly the bound", bytes.NewReader(body), bound, http.StatusOK},
		{"exactly the bound, chunked", bytes.NewReader(body), -1, http.StatusOK},
		{"declared over the bound", unreadBody{t}, bound + 1, http.StatusRequestEntityTooLarge},
		{"chunked over the bound", bytes.NewReader(over), -1, http.StatusRequestEntityTooLarge},
	} {
		r := httptest.NewRequest(http.MethodPost, classifyPath, tc.body)
		r.ContentLength = tc.declared
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, r)
		if w.Code != tc.want {
			t.Errorf("%s: HTTP %d (%.200s), want %d", tc.name, w.Code, w.Body, tc.want)
			continue
		}
		switch tc.want {
		case http.StatusOK:
			var cr serve.V2ClassifyResponse
			if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil || cr.Count != 2 {
				t.Errorf("%s: the backend answered %s (%v), want 2 results", tc.name, w.Body, err)
			}
		default:
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error != "http: request body too large" {
				t.Errorf("%s: 413 says %s", tc.name, w.Body)
			}
		}
	}
}

// TestFleetSurvivesBackendKill is the e2e storm the issue names: 3 real
// backends under concurrent load, one severed mid-flight (listener and all
// connections die, as a SIGKILL would). Requirements: zero non-503 client
// errors (transport failures must be retried onto survivors, sheds must
// stay proper 503s), the router marks the dead backend down within one
// probe interval, and a restart is re-admitted by probing alone.
func TestFleetSurvivesBackendKill(t *testing.T) {
	cdln, data := testCDLN(t, 32)
	f := startFleet(t, cdln, 3, nil)
	waitReady(t, f, 3)

	const (
		loaders   = 6
		perLoader = 40
	)
	var (
		ok, shed atomic.Int64
		bad      atomic.Int64
		badMu    sync.Mutex
		badNotes []string
	)
	var wg sync.WaitGroup
	stopLoad := make(chan struct{})
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; i < perLoader; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				status, _, body := postJSON(t, client, f.URL()+"/v2/models/"+serve.DefaultModelName+"/classify",
					serve.V2ClassifyRequest{Images: sampleImages(data, l*perLoader+i, 1)})
				switch status {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusServiceUnavailable:
					shed.Add(1)
				default:
					bad.Add(1)
					badMu.Lock()
					if len(badNotes) < 5 {
						badNotes = append(badNotes, fmt.Sprintf("HTTP %d: %.200s", status, body))
					}
					badMu.Unlock()
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(l)
	}

	// Let load flow, then sever one backend mid-flight.
	time.Sleep(100 * time.Millisecond)
	victim := f.backends[1]
	killedAt := time.Now()
	victim.Kill()

	// The router must stop trusting the dead backend within one probe
	// interval (transport errors mark it down even faster).
	deadline := killedAt.Add(f.router.cfg.ProbeInterval + time.Second)
	for {
		st := routerStats(t, f.URL())
		var vs *BackendStats
		for i := range st.Backends {
			if st.Backends[i].URL == victim.url {
				vs = &st.Backends[i]
			}
		}
		if vs == nil {
			t.Fatal("victim missing from /statsz")
		}
		if !vs.Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router still considers the killed backend healthy past one probe interval")
		}
		time.Sleep(5 * time.Millisecond)
	}

	wg.Wait()
	close(stopLoad)
	if bad.Load() != 0 {
		t.Fatalf("%d non-503 errors during the kill storm (want 0): %v", bad.Load(), badNotes)
	}
	if ok.Load() == 0 {
		t.Fatal("no successful requests at all")
	}
	t.Logf("kill storm: %d ok, %d shed (503), 0 hard errors", ok.Load(), shed.Load())

	// Restart the victim on the same address: probing alone must re-admit
	// it, and it must then take traffic again.
	victim.Restart()
	waitReady(t, f, 3)
	before := backendRequests(t, f, victim.url)
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; ; i++ {
		if i >= 500 {
			t.Fatal("restarted backend never took traffic")
		}
		status, _, body := postJSON(t, client, f.URL()+classifyPath,
			serve.V2ClassifyRequest{Images: sampleImages(data, i*7, 1)})
		if status != http.StatusOK {
			t.Fatalf("post-restart request failed: HTTP %d: %s", status, body)
		}
		if backendRequests(t, f, victim.url) > before {
			break
		}
	}
}

func backendRequests(t testing.TB, f *testFleet, url string) int64 {
	t.Helper()
	for _, b := range routerStats(t, f.URL()).Backends {
		if b.URL == url {
			return b.Requests
		}
	}
	t.Fatalf("backend %s missing from /statsz", url)
	return 0
}

// TestFleetReadyz pins the router's own readiness contract: ready while
// any backend lives, 503 once the whole fleet is gone.
func TestFleetReadyz(t *testing.T) {
	cdln, _ := testCDLN(t, 33)
	f := startFleet(t, cdln, 2, nil)
	waitReady(t, f, 2)

	get := func() int {
		resp, err := http.Get(f.URL() + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := get(); got != http.StatusOK {
		t.Fatalf("readyz with live fleet: HTTP %d", got)
	}
	f.backends[0].Kill()
	f.backends[1].Kill()
	deadline := time.Now().Add(3 * time.Second)
	for get() != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("router never turned unready after the whole fleet died")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// With zero ready backends the data path must shed, not hang or 502.
	client := &http.Client{Timeout: 5 * time.Second}
	status, hdr, _ := postJSON(t, client, f.URL()+classifyPath, serve.V2ClassifyRequest{})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("data path with dead fleet: HTTP %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("fleet-wide shed carries no Retry-After")
	}
}

// TestRouterRetiredSurfaceIsGone pins what the router no longer offers: the
// /v1 data routes are not routed, and a rolling PUT that asks to make its
// entry the default is relayed as the backend's 400 for the field.
func TestRouterRetiredSurfaceIsGone(t *testing.T) {
	cdln, data := testCDLN(t, 32)
	f := startFleet(t, cdln, 1, nil)
	waitReady(t, f, 1)
	client := &http.Client{Timeout: 10 * time.Second}
	for _, path := range []string{"/v1/classify", "/v1/resume"} {
		if status, _, body := postJSON(t, client, f.URL()+path, serve.V2ClassifyRequest{Images: sampleImages(data, 0, 1)}); status != http.StatusNotFound {
			t.Errorf("POST %s: HTTP %d (%s), want 404", path, status, body)
		}
	}
	req, err := http.NewRequest(http.MethodPut, f.URL()+"/v2/models/"+serve.DefaultModelName,
		strings.NewReader(`{"path": "absent.cdln", "default": true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var swap SwapResponse
	err = json.NewDecoder(resp.Body).Decode(&swap)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || err != nil || len(swap.Results) != 1 || !strings.Contains(swap.Results[0].Error, `unknown field \"default\"`) {
		t.Errorf(`PUT with "default": HTTP %d %+v (%v), want the backend's 400 naming the unknown field`, resp.StatusCode, swap, err)
	}
}
