package fleet

// hedge_test.go: hedged-request correctness. A deliberately-stalled
// backend must trigger a hedge after the per-model deadline; the client
// sees exactly one well-formed response (the hedge's); the losing attempt
// is cancelled rather than leaked (goroutine counts settle back to
// baseline); and the router's hedge counters conserve: every hedge sent
// resolves as exactly one win or loss.

import (
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdl/internal/serve"
)

// stallingBackend is a fake cdlserve that passes readiness probes but, when
// stalled, sits on classify requests until the router cancels them. It
// counts how many classifies it actually answered (for exactly-once
// assertions), how many were cancelled under it (loser cancellation) and
// every GET it was sent (what the probe loop asks for).
type stallingBackend struct {
	ts        *httptest.Server
	stall     atomic.Bool
	answered  atomic.Int64
	cancelled atomic.Int64
	gets      getLog
}

// getLog tallies the GET requests a fake backend receives, by path.
type getLog struct {
	mu sync.Mutex
	n  map[string]int // guarded by mu
}

func (l *getLog) add(path string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == nil {
		l.n = make(map[string]int)
	}
	l.n[path]++
}

// snapshot copies the tally.
func (l *getLog) snapshot() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return maps.Clone(l.n)
}

// probedMux is a fake backend's mux with the one route the router's probe
// loop needs to admit it: /readyz. Any other GET answers 404. When gets is
// non-nil, every GET is tallied in it.
func probedMux(gets *getLog) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", func(w http.ResponseWriter, r *http.Request) {
		if gets != nil {
			gets.add(r.URL.Path)
		}
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		serve.WriteJSON(w, http.StatusOK, map[string]bool{"ready": true})
	})
	return mux
}

func newStallingBackend(t testing.TB) *stallingBackend {
	t.Helper()
	sb := &stallingBackend{}
	mux := probedMux(&sb.gets)
	mux.HandleFunc("POST /v2/models/{model}/classify", func(w http.ResponseWriter, r *http.Request) {
		// Drain the body before stalling, as a real backend would: the
		// server only watches for client disconnect (which cancels
		// r.Context()) once the request body has been consumed.
		_, _ = io.Copy(io.Discard, r.Body)
		if sb.stall.Load() {
			<-r.Context().Done()
			sb.cancelled.Add(1)
			return
		}
		sb.answered.Add(1)
		serve.WriteJSON(w, http.StatusOK, serve.V2ClassifyResponse{
			Model: r.PathValue("model"), Version: 1, Count: 1,
			Results: []serve.V2Result{{Label: 0, Exit: "stall"}},
		})
	})
	sb.ts = httptest.NewServer(mux)
	t.Cleanup(sb.ts.Close)
	return sb
}

// startHedgeFleet boots one real backend plus the staller behind a router
// with a fixed hedge deadline, and returns a request body whose ring
// placement puts the staller first — so the primary attempt always stalls
// and the hedge always lands on the real backend.
func startHedgeFleet(t *testing.T) (*testFleet, *stallingBackend, []byte) {
	t.Helper()
	cdln, data := testCDLN(t, 51)
	scfg := serve.Config{Workers: 2, QueueDepth: 256, MaxBatch: 8}
	real := startBackend(t, cdln, scfg)
	sb := newStallingBackend(t)

	f := &testFleet{backends: []*testBackend{real}}
	cfg := Config{
		Backends:      []string{real.url, sb.ts.URL},
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  time.Second,
		Hedge:         true,
		HedgeMin:      40 * time.Millisecond,
		HedgeMax:      40 * time.Millisecond,
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
	waitReady(t, f, 2)

	// Search for a body owned by the staller on the ring. The body must be
	// the exact bytes sent, so marshal first, then test placement.
	for off := 0; off < 4096; off++ {
		body, err := json.Marshal(serve.V2ClassifyRequest{Images: sampleImages(data, off, 1)})
		if err != nil {
			t.Fatal(err)
		}
		key := HashRequest(serve.DefaultModelName, body)
		if owner(rt.ring, key) == 1 { // index 1 == the staller
			return f, sb, body
		}
	}
	t.Fatal("no request body hashed onto the stalling backend in 4096 tries")
	return nil, nil, nil
}

func TestHedgeRescuesStalledBackend(t *testing.T) {
	f, sb, body := startHedgeFleet(t)
	sb.stall.Store(true)

	baseline := runtime.NumGoroutine()

	client := &http.Client{Timeout: 10 * time.Second}
	url := f.URL() + "/v2/models/" + serve.DefaultModelName + "/classify"
	const storm = 25
	for i := 0; i < storm; i++ {
		start := time.Now()
		req, err := http.NewRequest(http.MethodPost, url, jsonBody(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		payload, err := readAll(resp)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i, resp.StatusCode, payload)
		}
		// Exactly-once: the payload is one well-formed response document —
		// the winner's — never a concatenation or an empty race artifact.
		dec := json.NewDecoder(jsonBody(payload))
		var cr serve.V2ClassifyResponse
		if err := dec.Decode(&cr); err != nil {
			t.Fatalf("request %d: bad body: %v", i, err)
		}
		if dec.More() {
			t.Fatalf("request %d: more than one response document in the body", i)
		}
		if cr.Count != 1 {
			t.Fatalf("request %d: count %d, want 1", i, cr.Count)
		}
		if findExit(cr) == "stall" {
			t.Fatalf("request %d: answered by the stalled backend", i)
		}
		// The hedge fired after the deadline, not before: a response faster
		// than the hedge deadline would mean the primary answered.
		if took := time.Since(start); took < 35*time.Millisecond {
			t.Fatalf("request %d answered in %v — primary was supposed to stall", i, took)
		}
	}

	// Conservation: every hedge sent resolved exactly once, and in this
	// setup every request hedged and every hedge won.
	st := routerStats(t, f.URL())
	if st.HedgesSent != storm {
		t.Errorf("hedges_sent = %d, want %d", st.HedgesSent, storm)
	}
	if st.HedgesSent != st.HedgeWins+st.HedgeLosses {
		t.Errorf("hedge counters leak: sent %d != wins %d + losses %d",
			st.HedgesSent, st.HedgeWins, st.HedgeLosses)
	}
	if st.HedgeWins != storm {
		t.Errorf("hedge_wins = %d, want %d (the primary always stalls)", st.HedgeWins, storm)
	}
	if got := sb.answered.Load(); got != 0 {
		t.Errorf("stalled backend answered %d classifies, want 0", got)
	}

	// Loser cancellation, not loser leak: the stalled attempts must all be
	// cancelled and goroutine counts must settle back near baseline.
	deadline := time.Now().Add(5 * time.Second)
	for sb.cancelled.Load() < storm {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d stalled attempts were cancelled", sb.cancelled.Load(), storm)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines never settled: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Load is the router's own in-flight count: no probe round scraped the
	// backend's exposition.
	if n := sb.gets.snapshot()["/metricsz"]; n != 0 {
		t.Errorf("the router sent %d GET /metricsz to a backend", n)
	}
}

// TestProbeRoundAsksOnlyReadyz pins the probe's whole cost: one round
// sends each backend, ready or not, exactly GET /readyz.
func TestProbeRoundAsksOnlyReadyz(t *testing.T) {
	var readyGets, unreadyGets getLog
	ready := httptest.NewServer(probedMux(&readyGets))
	t.Cleanup(ready.Close)
	unready := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		unreadyGets.add(r.URL.Path)
		serve.WriteShed(w, "not ready")
	}))
	t.Cleanup(unready.Close)
	rt, err := New(Config{
		Backends:      []string{ready.URL, unready.URL},
		ProbeInterval: time.Hour, // New's own round is the only one
		ProbeTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	want := map[string]int{"/readyz": 1}
	if got := readyGets.snapshot(); !maps.Equal(got, want) {
		t.Errorf("ready backend: one probe round sent %v, want %v", got, want)
	}
	if got := unreadyGets.snapshot(); !maps.Equal(got, map[string]int{"/readyz": 1}) {
		t.Errorf("unready backend: one probe round sent %v, want only /readyz", got)
	}
}

// TestHedgeStaysIdleOnFastPrimary pins the no-straggler case: when the
// primary answers inside the deadline no hedge fires and no duplicate work
// is counted.
func TestHedgeStaysIdleOnFastPrimary(t *testing.T) {
	f, sb, body := startHedgeFleet(t)
	sb.stall.Store(false) // the "staller" answers instantly

	client := &http.Client{Timeout: 10 * time.Second}
	url := f.URL() + "/v2/models/" + serve.DefaultModelName + "/classify"
	for i := 0; i < 10; i++ {
		req, err := http.NewRequest(http.MethodPost, url, jsonBody(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = readAll(resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, resp.StatusCode)
		}
	}
	st := routerStats(t, f.URL())
	if st.HedgesSent != 0 {
		t.Errorf("hedges_sent = %d on a fast fleet, want 0", st.HedgesSent)
	}
	if got := sb.answered.Load(); got != 10 {
		t.Errorf("primary answered %d, want 10", got)
	}
}

func findExit(cr serve.V2ClassifyResponse) string {
	if len(cr.Results) == 0 {
		return ""
	}
	return cr.Results[0].Exit
}
