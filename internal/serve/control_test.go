package serve

// control_test.go covers the SLO controller's serving integration: the
// /v2/models/{name}/slo admin surface, policy inheritance (explicit
// policies always win), shed causes + Retry-After, the timeout_ms range
// check, and concurrent observe/step/swap against a live hot-swap (the
// -race half of the controller test matrix; the control-loop dynamics
// themselves are pinned by internal/control's simulation harness).

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/fixed"
	"cdl/internal/obs"
)

// httpJSON runs one JSON request against ts and decodes the response.
func httpJSON(t testing.TB, method, url string, body any, out any) (int, http.Header) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, url, buf.String(), err)
		}
	}
	return resp.StatusCode, resp.Header
}

func TestSLOEndpoints(t *testing.T) {
	cdln, _ := testCDLN(t, 71)
	_, ts := startServer(t, cdln, Config{Workers: 1})
	base := ts.URL + "/v2/models/" + DefaultModelName + "/slo"

	// No SLO attached yet.
	var got SLOResponse
	if status, _ := httpJSON(t, http.MethodGet, base, nil, &got); status != http.StatusOK {
		t.Fatalf("GET slo: HTTP %d", status)
	}
	if got.SLO != nil || got.Control != nil {
		t.Fatalf("GET slo before attach = %+v, want empty", got)
	}

	// Attach.
	slo := control.SLO{P99LatencyMs: 25, MaxQueueFrac: 0.8}
	got = SLOResponse{}
	if status, _ := httpJSON(t, http.MethodPut, base, slo, &got); status != http.StatusOK {
		t.Fatalf("PUT slo: HTTP %d", status)
	}
	if got.SLO == nil || *got.SLO != slo || got.Control == nil {
		t.Fatalf("PUT slo response = %+v, want the attached SLO + state", got)
	}
	if got.Control.Rung != 0 || got.Control.MaxExit != -1 {
		t.Errorf("fresh controller at rung %d / max_exit %d, want 0 / -1", got.Control.Rung, got.Control.MaxExit)
	}
	if got.Control.MaxRung != len(cdln.Stages) {
		t.Errorf("max rung %d, want %d (one per removable exit point)", got.Control.MaxRung, len(cdln.Stages))
	}

	// Invalid SLOs are rejected.
	for _, bad := range []any{
		control.SLO{},                        // no target
		control.SLO{MaxQueueFrac: 1.5},       // out of range
		map[string]any{"p99_latency_ms": -1}, // negative
		map[string]any{"frogs": 1},           // unknown field
	} {
		if status, _ := httpJSON(t, http.MethodPut, base, bad, nil); status != http.StatusBadRequest {
			t.Errorf("PUT bad slo %+v: HTTP %d, want 400", bad, status)
		}
	}
	// A floor of 1.0 leaves no actuation rung: rejected.
	if status, _ := httpJSON(t, http.MethodPut, base, control.SLO{P99LatencyMs: 10, AccuracyFloorDelta: 1}, nil); status != http.StatusBadRequest {
		t.Errorf("PUT floor=1 slo: HTTP %d, want 400", status)
	}

	// /statsz carries the control section while attached.
	var stats Stats
	if status, _ := httpJSON(t, http.MethodGet, ts.URL+"/statsz", nil, &stats); status != http.StatusOK || stats.Control == nil {
		t.Fatalf("statsz while attached: HTTP %d, control %v", status, stats.Control)
	}

	// Detach; a second detach 404s.
	if status, _ := httpJSON(t, http.MethodDelete, base, nil, nil); status != http.StatusOK {
		t.Fatalf("DELETE slo: HTTP %d", status)
	}
	if status, _ := httpJSON(t, http.MethodDelete, base, nil, nil); status != http.StatusNotFound {
		t.Fatalf("second DELETE slo: HTTP %d, want 404", status)
	}
	if status, _ := httpJSON(t, http.MethodGet, ts.URL+"/v2/models/nosuch/slo", nil, nil); status != http.StatusNotFound {
		t.Fatalf("GET slo on unknown model: HTTP %d, want 404", status)
	}
}

// forceRung drives an entry's controller to its max rung without the
// tick loop: deterministic actuation for the inheritance tests.
func forceRung(t *testing.T, srv *Server, name string) {
	t.Helper()
	m, err := srv.reg.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	// A one-hour interval parks the loop: the test ticks the plane itself.
	ladder := control.Ladder(m.graph.MaxDepth(), 0)
	if err := m.plane.Attach(control.SLO{P99LatencyMs: 1}, ladder, time.Hour, func() float64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.plane.Detach() })
	// Trip the p99 target with synthetic slow images, then tick until the
	// ladder saturates.
	slow := make([]control.Event, 16)
	for i := range slow {
		slow[i] = control.Event{TotalMS: 1000, Outcome: obs.FlightOK}
	}
	for i := 0; i < len(ladder); i++ {
		m.plane.Observe(slow)
		m.plane.Tick(0)
	}
	st := m.plane.Status()
	if st.Rung != st.MaxRung {
		t.Fatalf("controller at rung %d after forcing, want max %d", st.Rung, st.MaxRung)
	}
	if p := m.plane.Policy(); p == nil || p.MaxExit != 0 {
		t.Fatalf("controlled policy %+v, want MaxExit 0", p)
	}
}

// TestControllerInheritance pins the actuation contract: a request with
// no explicit δ/policy inherits the controller's capped policy, while an
// explicit one bypasses it entirely.
func TestControllerInheritance(t *testing.T) {
	cdln, data := testCDLN(t, 72)
	srv, ts := startServer(t, cdln, Config{Workers: 1})
	forceRung(t, srv, "")

	img := data[0].X.Flatten().Data
	// Inherited: the controller's MaxExit=0 cap forces every exit to O1.
	status, body := postClassify(t, ts.URL, V2ClassifyRequest{Images: [][]float64{img, data[1].X.Flatten().Data}})
	if status != http.StatusOK {
		t.Fatalf("inherited classify: HTTP %d: %s", status, body)
	}
	var out V2ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if r.ExitIndex != 0 {
			t.Errorf("inherited result %d exited at %d, want the controller's cap 0", i, r.ExitIndex)
		}
	}

	// Explicit δ=1 disables early exit: the cascade must run to FC even
	// though the controller is parked at MaxExit 0.
	one := 1.0
	status, body = postClassify(t, ts.URL, V2ClassifyRequest{Image: img, Policy: &PolicyRequest{Delta: &one}})
	if status != http.StatusOK {
		t.Fatalf("explicit classify: HTTP %d: %s", status, body)
	}
	out = V2ClassifyResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.Results[0].ExitIndex; got != len(cdln.Stages) {
		t.Errorf("explicit δ=1 exited at %d, want FC (%d) — the controller must never override an explicit policy", got, len(cdln.Stages))
	}

	// v2: an empty-but-present policy object is explicit too.
	v2url := ts.URL + "/v2/models/" + DefaultModelName + "/classify"
	var v2out V2ClassifyResponse
	if status, _ := httpJSON(t, http.MethodPost, v2url, map[string]any{"image": img, "policy": map[string]any{"delta": 1.0}}, &v2out); status != http.StatusOK {
		t.Fatalf("v2 explicit: HTTP %d", status)
	}
	if got := v2out.Results[0].ExitIndex; got != len(cdln.Stages) {
		t.Errorf("v2 explicit δ=1 exited at %d, want FC", got)
	}
	v2out = V2ClassifyResponse{}
	if status, _ := httpJSON(t, http.MethodPost, v2url, map[string]any{"image": img}, &v2out); status != http.StatusOK {
		t.Fatalf("v2 inherited: HTTP %d", status)
	}
	if got := v2out.Results[0].ExitIndex; got != 0 {
		t.Errorf("v2 inherited exited at %d, want 0", got)
	}
}

// TestResumeInheritedPolicyRelaxed: a controller cap shallower than an
// offloaded payload's resume stage must not 400 the resume — the client
// never asked for the cap. An explicit shallow cap still 400s.
func TestResumeInheritedPolicyRelaxed(t *testing.T) {
	cdln, data := testCDLN(t, 73)
	srv, ts := startServer(t, cdln, Config{Workers: 1})
	forceRung(t, srv, "")

	// Build a stage-1 offload payload.
	edge, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	var payload string
	for _, s := range data {
		pre := prefixOne(edge, s.X, 1, 0.99)
		if pre.Exited {
			continue
		}
		raw, err := wire.Encode(wire.Activation{
			FromStage: 1, Pos: pre.Pos, Shape: pre.Activation.Shape(), Data: pre.Activation.Data,
		}, wire.EncodingFloat64, fixed.Format{})
		if err != nil {
			t.Fatal(err)
		}
		payload = base64.StdEncoding.EncodeToString(raw)
		break
	}
	if payload == "" {
		t.Fatal("no input deferred at δ=0.99; fixture degenerate")
	}

	status, body := postResume(t, ts.URL, V2ResumeRequest{Payload: payload})
	if status != http.StatusOK {
		t.Fatalf("inherited resume under a shallow controller cap: HTTP %d: %s (must relax, not reject)", status, body)
	}
	var out V2ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.Results[0].ExitIndex; got < 1 {
		t.Errorf("relaxed resume exited at %d, want ≥ its resume stage 1", got)
	}

	// Explicit cap shallower than the resume stage: still a 400.
	zero := 0
	v2url := ts.URL + "/v2/models/" + DefaultModelName + "/resume"
	if status, _ := httpJSON(t, http.MethodPost, v2url,
		map[string]any{"payload": payload, "policy": map[string]any{"max_exit": zero}}, nil); status != http.StatusBadRequest {
		t.Errorf("explicit max_exit 0 on a stage-1 resume: HTTP %d, want 400", status)
	}
}

// TestShedCausesAndRetryAfter pins the shed contract: every 503 carries
// Retry-After and increments its per-cause counter.
func TestShedCausesAndRetryAfter(t *testing.T) {
	cdln, data := testCDLN(t, 74)
	img := data[0].X.Flatten().Data

	t.Run("closed", func(t *testing.T) {
		srv, err := New(cdln, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		srv.Close()
		body, _ := json.Marshal(V2ClassifyRequest{Image: img})
		resp, err := http.Post(ts.URL+classifyPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("classify after Close: HTTP %d, want 503", resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != shedRetryAfterSeconds {
			t.Errorf("Retry-After %q, want %q", got, shedRetryAfterSeconds)
		}
		st := srv.Stats()
		if st.RejectedClosed != 1 || st.Rejected != 1 {
			t.Errorf("rejected/closed = %d/%d, want 1/1", st.Rejected, st.RejectedClosed)
		}
	})

	t.Run("queue_full", func(t *testing.T) {
		srv, err := New(cdln, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		// Replace the pool with a worker-less one so the queue genuinely
		// cannot drain: a 3-image request against depth 2 must shed.
		m, err := srv.reg.Get("")
		if err != nil {
			t.Fatal(err)
		}
		m.pool.close()
		m.pool = newPool(nil, 2, 1, m.emit)
		body, _ := json.Marshal(V2ClassifyRequest{Images: [][]float64{img, img, img}})
		resp, err := http.Post(ts.URL+classifyPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("oversized classify: HTTP %d, want 503", resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != shedRetryAfterSeconds {
			t.Errorf("Retry-After %q, want %q", got, shedRetryAfterSeconds)
		}
		st := m.Stats()
		if st.RejectedQueueFull != 1 {
			t.Errorf("rejected_queue_full = %d, want 1", st.RejectedQueueFull)
		}
		if snap := m.plane.Window(); snap.Sheds != 3 || snap.Arrivals != 3 {
			t.Errorf("window sheds/arrivals = %d/%d, want 3/3", snap.Sheds, snap.Arrivals)
		}
	})
}

// TestLatencyHistogramsInStats checks the new /statsz latency section
// fills after traffic.
func TestLatencyHistogramsInStats(t *testing.T) {
	cdln, data := testCDLN(t, 75)
	srv, ts := startServer(t, cdln, Config{Workers: 2})
	for i := 0; i < 10; i++ {
		status, _ := postClassify(t, ts.URL, V2ClassifyRequest{Image: data[i].X.Flatten().Data})
		if status != http.StatusOK {
			t.Fatalf("classify %d: HTTP %d", i, status)
		}
	}
	st := srv.Stats()
	for name, ls := range map[string]LatencyStats{
		"queue": st.QueueLatency, "service": st.ServiceLatency, "total": st.TotalLatency,
	} {
		if ls.Count != 10 {
			t.Errorf("%s latency count %d, want 10", name, ls.Count)
		}
		if ls.P99MS < ls.P50MS {
			t.Errorf("%s latency p99 %v < p50 %v", name, ls.P99MS, ls.P50MS)
		}
	}
	if st.TotalLatency.P50MS < st.ServiceLatency.P50MS {
		t.Errorf("total p50 %v < service p50 %v", st.TotalLatency.P50MS, st.ServiceLatency.P50MS)
	}
	// The JSON shape must expose the histograms.
	raw, _ := json.Marshal(st)
	for _, key := range []string{"queue_latency", "service_latency", "total_latency", "rejected_queue_full"} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("stats JSON missing %q: %s", key, raw)
		}
	}
}

// TestV2TimeoutRange pins the timeout_ms range check and the resolved
// deadline surfaced at trace detail.
func TestV2TimeoutRange(t *testing.T) {
	cdln, data := testCDLN(t, 76)
	_, ts := startServer(t, cdln, Config{Workers: 1})
	url := ts.URL + "/v2/models/" + DefaultModelName + "/classify"
	img := data[0].X.Flatten().Data

	for _, ms := range []int{-1, MaxTimeoutMS + 1, 1 << 40} {
		if status, _ := httpJSON(t, http.MethodPost, url, map[string]any{"image": img, "timeout_ms": ms}, nil); status != http.StatusBadRequest {
			t.Errorf("timeout_ms %d: HTTP %d, want 400", ms, status)
		}
	}
	var out V2ClassifyResponse
	before := time.Now().UnixMilli()
	if status, _ := httpJSON(t, http.MethodPost, url,
		map[string]any{"image": img, "timeout_ms": 30000, "policy": map[string]any{"detail": "trace"}}, &out); status != http.StatusOK {
		t.Fatalf("trace classify: HTTP %d", status)
	}
	if out.DeadlineUnixMS < before+29000 || out.DeadlineUnixMS > before+31500 {
		t.Errorf("deadline_unix_ms %d not ~30s after request start %d", out.DeadlineUnixMS, before)
	}
	// Cost detail omits it even with a timeout set.
	out = V2ClassifyResponse{}
	if status, _ := httpJSON(t, http.MethodPost, url, map[string]any{"image": img, "timeout_ms": 30000}, &out); status != http.StatusOK {
		t.Fatal("cost classify failed")
	}
	if out.DeadlineUnixMS != 0 {
		t.Errorf("deadline_unix_ms %d at cost detail, want omitted", out.DeadlineUnixMS)
	}
}

// TestControlObserveStepSwapRace is the -race coverage demanded by the
// issue: live traffic (observe), a fast control loop (step), hot-swaps
// of the controlled entry (swap) and SLO re-attachment all concurrently.
func TestControlObserveStepSwapRace(t *testing.T) {
	cdln, data := testCDLN(t, 77)
	reg := NewRegistry(Config{Workers: 2, ControlInterval: 2 * time.Millisecond})
	if _, err := reg.Register(DefaultModelName, cdln); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	if err := reg.SetSLO(DefaultModelName, control.SLO{P99LatencyMs: 0.5, MaxQueueFrac: 0.9}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Traffic: inherited-policy requests (observe path).
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			img := data[w].X.Flatten().Data
			body, _ := json.Marshal(V2ClassifyRequest{Image: img})
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+classifyPath, "application/json", bytes.NewReader(body))
				if err != nil {
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("classify under churn: HTTP %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	// Hot-swap churn on the controlled entry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := reg.Register(DefaultModelName, cdln); err != nil && err != ErrClosed {
				t.Errorf("swap %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// SLO churn: status reads, re-attach, detach.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = srv.Stats().Control
			if i%7 == 0 {
				_ = reg.SetSLO(DefaultModelName, control.SLO{P99LatencyMs: float64(1 + i%5)})
			}
			if i%31 == 30 {
				reg.ClearSLO(DefaultModelName)
				if err := reg.SetSLO(DefaultModelName, control.SLO{MaxQueueFrac: 0.5}); err != nil {
					t.Errorf("re-attach: %v", err)
					return
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestSLOControllerActuatesEndToEnd drives the whole loop over HTTP: an
// impossible energy budget must shallow the cascade to its floor within
// a few control intervals, visible in /statsz and in the exits of
// subsequent no-policy responses.
func TestSLOControllerActuatesEndToEnd(t *testing.T) {
	cdln, data := testCDLN(t, 78)
	reg := NewRegistry(Config{Workers: 1, ControlInterval: 5 * time.Millisecond})
	if _, err := reg.Register(DefaultModelName, cdln); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	// A 1 pJ budget is below any exit's energy: every adequately-sampled
	// tick violates, so the ladder must saturate.
	if err := reg.SetSLO("", control.SLO{EnergyBudgetPJ: 1}); err != nil {
		t.Fatal(err)
	}
	images := make([][]float64, 16)
	for i := range images {
		images[i] = data[i%len(data)].X.Flatten().Data
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if status, _ := postClassify(t, ts.URL, V2ClassifyRequest{Images: images}); status != http.StatusOK {
			t.Fatalf("classify: HTTP %d", status)
		}
		st := srv.Stats().Control
		if st != nil && st.Rung == st.MaxRung {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller never saturated: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Responses without a policy now exit at the cap.
	status, body := postClassify(t, ts.URL, V2ClassifyRequest{Images: images})
	if status != http.StatusOK {
		t.Fatalf("capped classify: HTTP %d", status)
	}
	var out V2ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if r.ExitIndex != 0 {
			t.Fatalf("result %d exited at %d under a saturated controller, want 0", i, r.ExitIndex)
		}
	}
	st := srv.Stats()
	if st.Control == nil || st.Control.MaxExit != 0 {
		t.Fatalf("statsz control %+v, want MaxExit 0", st.Control)
	}
	if st.Control.Window.Images == 0 {
		t.Error("controller window saw no traffic")
	}
	_ = fmt.Sprintf("%v", st.Control)
}
