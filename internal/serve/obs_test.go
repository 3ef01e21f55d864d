package serve

// obs_test.go covers the observability surface: readiness vs liveness,
// X-Trace-Id propagation (header echo on every response path, body trace
// only when the client asked), span completeness over a routed graph, the
// /metricsz exposition
// (structure, and under concurrent scrape + classify + hot-swap load), and
// the overhead guard benchmark pinning the cost of always-on tracing.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cdl/internal/core"
	"cdl/internal/linclass"
	"cdl/internal/nn"
	"cdl/internal/obs"
	"cdl/internal/opcount"
)

func TestReadyzLifecycle(t *testing.T) {
	cdln, _ := testCDLN(t, 61)
	srv, ts := startServer(t, cdln, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready readyResponse
	err = json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !ready.Ready {
		t.Fatalf("warm server: HTTP %d ready=%v err=%v", resp.StatusCode, ready.Ready, err)
	}
	if ready.Default != DefaultModelName {
		t.Errorf("default entry %q, want %q", ready.Default, DefaultModelName)
	}

	// Liveness must not flip with readiness: /healthz stays 200 while
	// /readyz reports the drain.
	srv.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server: /readyz HTTP %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining server: /healthz HTTP %d, want 200", resp.StatusCode)
	}
}

// postTraced posts a classify request with an optional pinned trace ID.
func postTraced(t testing.TB, url, traceID string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		hreq.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestTraceEchoAndSpans: a pinned X-Trace-Id is echoed on the response
// header and opts the body into the span timeline (queue, batch, stages —
// all closed and ordered); without a pinned ID the header carries a
// generated ID and the body stays exactly the golden shape.
func TestTraceEchoAndSpans(t *testing.T) {
	cdln, data := testCDLN(t, 62)
	_, ts := startServer(t, cdln, Config{Workers: 2})
	req := V2ClassifyRequest{Images: [][]float64{data[0].X.Flatten().Data, data[1].X.Flatten().Data}}

	resp, body := postTraced(t, ts.URL+classifyPath, "pinned-trace-1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "pinned-trace-1" {
		t.Fatalf("header echo %q, want pinned-trace-1", got)
	}
	var out V2ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != "pinned-trace-1" {
		t.Fatalf("body trace_id %q", out.TraceID)
	}
	assertSpanTree(t, out.Spans, true)

	// Unpinned: generated header ID, no trace fields in the body (the
	// golden contract must not grow fields under clients' feet).
	resp, body = postTraced(t, ts.URL+classifyPath, "", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	if id := resp.Header.Get(obs.TraceHeader); len(id) != 32 {
		t.Fatalf("generated header ID %q", id)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["trace_id"]; ok {
		t.Error("unpinned response leaked trace_id into the body")
	}
	if _, ok := raw["spans"]; ok {
		t.Error("unpinned response leaked spans into the body")
	}
}

// TestTraceRecordsEachSpanOnce: a request's jobs share its trace, so a
// micro-batch event that covers several of its rows is one span of that
// trace, not one per row. A traced three-payload resume echoes no two
// identical (name, start, duration, detail) spans.
func TestTraceRecordsEachSpanOnce(t *testing.T) {
	cdln, _ := testCDLN(t, 91)
	_, ts := startServer(t, cdln, Config{Workers: 1})
	golden := goldenResume(t, cdln)
	req := V2ResumeRequest{Payloads: golden.Payloads[:3], Policy: golden.Policy}
	resp, body := postTraced(t, ts.URL+resumePath, "once-trace-1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var out V2ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	assertSpanTree(t, out.Spans, true)
	seen := make(map[obs.Span]bool)
	for _, sp := range out.Spans {
		if seen[sp] {
			t.Errorf("span recorded twice: %+v", sp)
		}
		seen[sp] = true
	}
}

// assertSpanTree checks the span-completeness contract: non-empty, every
// span closed (non-negative duration), ordered by start time, and — when
// wantPool is set — covering admission (queue), grouping (batch) and at
// least one cascade stage.
func assertSpanTree(t *testing.T, spans []obs.Span, wantPool bool) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	names := make(map[string]bool)
	for i, sp := range spans {
		if sp.Name == "" || sp.StartUnixNS == 0 {
			t.Errorf("span %d incomplete: %+v", i, sp)
		}
		if sp.DurationMS < 0 {
			t.Errorf("span %d not closed: %+v", i, sp)
		}
		if i > 0 && sp.StartUnixNS < spans[i-1].StartUnixNS {
			t.Errorf("span %d out of order: %d < %d", i, sp.StartUnixNS, spans[i-1].StartUnixNS)
		}
		names[sp.Name] = true
	}
	if !wantPool {
		return
	}
	for _, want := range []string{"queue", "batch"} {
		if !names[want] {
			t.Errorf("span tree missing %q: %v", want, spanNames(spans))
		}
	}
	stages := 0
	for n := range names {
		if strings.HasPrefix(n, "stage:") || strings.HasPrefix(n, "fc:") || strings.HasPrefix(n, "forced:") {
			stages++
		}
	}
	if stages == 0 {
		t.Errorf("span tree has no stage spans: %v", spanNames(spans))
	}
}

func spanNames(spans []obs.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestRoutedSpanTree drives single-image requests through the routed
// graph fixture with the routing δ: every trace must be complete, and the
// traffic as a whole must surface route-decision spans with the
// "route:<node>-><branch>" vocabulary.
func TestRoutedSpanTree(t *testing.T) {
	ts, _, data := newRoutedServer(t, 63)
	d := routingDelta
	routed := false
	for i := 0; i < 12; i++ {
		req := V2ClassifyRequest{Images: [][]float64{data[i].X.Flatten().Data}, Policy: &PolicyRequest{Delta: &d}}
		resp, body := postTraced(t, ts.URL+classifyPath, "route-trace-"+strconv.Itoa(i), req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
		}
		var out V2ClassifyResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		assertSpanTree(t, out.Spans, true)
		for _, sp := range out.Spans {
			if strings.HasPrefix(sp.Name, "route:trunk->") {
				routed = true
			}
		}
	}
	if !routed {
		t.Error("no request produced a route span; routing fixture degenerate")
	}
}

// TestShedEchoesTrace: a 503 shed must still carry Retry-After AND the
// trace header — the middleware sets the echo before the handler runs, so
// error paths cannot lose it.
func TestShedEchoesTrace(t *testing.T) {
	cdln, data := testCDLN(t, 64)
	srv, ts := startServer(t, cdln, Config{Workers: 1})
	// Retire the serving pool with no successor version: dispatch hits
	// ErrClosed and sheds — the deterministic stand-in for a full queue.
	m, err := srv.reg.Get(DefaultModelName)
	if err != nil {
		t.Fatal(err)
	}
	m.pool.close()
	req := V2ClassifyRequest{Images: [][]float64{data[0].X.Flatten().Data, data[1].X.Flatten().Data}}
	resp, body := postTraced(t, ts.URL+classifyPath, "shed-trace-1", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed without Retry-After")
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "shed-trace-1" {
		t.Errorf("shed trace echo %q, want shed-trace-1", got)
	}
}

// TestV2TraceDetail: detail "trace" opts into the span timeline even
// without a pinned header — the v2 client asked for trace detail in-band.
func TestV2TraceDetail(t *testing.T) {
	cdln, data := testCDLN(t, 66)
	_, ts := startServer(t, cdln, Config{Workers: 1})
	req := V2ClassifyRequest{
		Images: [][]float64{data[0].X.Flatten().Data},
		Policy: &PolicyRequest{Detail: DetailTrace},
	}
	resp, body := postTraced(t, ts.URL+"/v2/models/"+DefaultModelName+"/classify", "", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var out V2ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID == "" {
		t.Fatal("detail=trace response has no trace_id")
	}
	assertSpanTree(t, out.Spans, true)
}

// TestTraceSpansCoreCountInvariant: a traced 16-image /v2 classify on the
// paper's Arch6 cascade walks as one range at GOMAXPROCS 1 and fans out
// across the worker session's lanes at 4; the trace must record the same
// span names, each as often, either way.
func TestTraceSpansCoreCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(67))
	arch := nn.Arch6Layer(rng)
	cdln := &core.CDLN{
		Arch:   arch,
		Stages: []*core.Stage{{Name: "O1", Tap: 3, LC: linclass.New(arch.TapFeatureLen(0), 10, rng)}},
		Delta:  0.5,
		Rule:   core.ThresholdRule{},
		Ops:    opcount.Default(),
	}
	_, ts := startServer(t, cdln, Config{Workers: 1})
	req := V2ClassifyRequest{Images: make([][]float64, 16)}
	for i := range req.Images {
		req.Images[i] = make([]float64, 28*28)
		for j := range req.Images[i] {
			req.Images[i][j] = rng.Float64()
		}
	}
	var counts [2]map[string]int
	for k, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		resp, body := postTraced(t, ts.URL+"/v2/models/"+DefaultModelName+"/classify", "lanes-"+strconv.Itoa(procs), req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GOMAXPROCS %d: HTTP %d: %s", procs, resp.StatusCode, body)
		}
		var out V2ClassifyResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		assertSpanTree(t, out.Spans, true)
		counts[k] = make(map[string]int)
		for _, sp := range out.Spans {
			counts[k][sp.Name]++
		}
	}
	t.Logf("span counts: %v", counts[0])
	if !reflect.DeepEqual(counts[0], counts[1]) {
		t.Fatalf("span counts at GOMAXPROCS 4 %v, at 1 %v", counts[1], counts[0])
	}
}

// scrape fetches /metricsz and validates the text format line by line.
func scrape(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz HTTP %d: %s", resp.StatusCode, buf.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type %q, want %q", ct, obs.ContentType)
	}
	body := buf.String()
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparsable sample line %q", line)
		}
		val := line[sp+1:]
		if val != "+Inf" && val != "-Inf" && val != "NaN" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("bad sample value in %q: %v", line, err)
			}
		}
	}
	return body
}

// TestMetricszExposition drives traffic then checks every promised family
// is present with the model label.
func TestMetricszExposition(t *testing.T) {
	cdln, data := testCDLN(t, 67)
	_, ts := startServer(t, cdln, Config{Workers: 2})
	req := V2ClassifyRequest{}
	for _, s := range data[:20] {
		req.Images = append(req.Images, s.X.Flatten().Data)
	}
	if status, body := postClassify(t, ts.URL, req); status != http.StatusOK {
		t.Fatalf("classify HTTP %d: %s", status, body)
	}
	body := scrape(t, ts.URL)
	for _, want := range []string{
		"cdl_uptime_seconds ",
		"cdl_tracing_enabled 1",
		"cdl_flight_enabled 1",
		`cdl_build_info{go_version="`,
		`tier="serve"} 1`,
		`cdl_flight_seen_total{model="default"} `,
		`cdl_model_version{model="default"} 1`,
		`cdl_requests_total{model="default"} 1`,
		`cdl_images_total{model="default"} 20`,
		`cdl_rejected_total{model="default",cause="queue_full"} 0`,
		`cdl_exit_images_total{model="default",exit=`,
		`cdl_exit_energy_pj{model="default",exit=`,
		`cdl_branch_images_total{model="default",branch=`,
		`cdl_queue_latency_ms_bucket{model="default",le=`,
		`cdl_service_latency_ms_count{model="default"} 20`,
		`cdl_total_latency_ms_sum{model="default"} `,
		`cdl_ops_per_image{model="default"} `,
		`cdl_energy_pj_per_image{model="default"} `,
		`cdl_queue_depth{model="default"} `,
		`cdl_workers{model="default"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestMetricszUnderLoad is the race acceptance test: concurrent scrapes
// against a classify storm and hot swaps must stay valid text and never
// tear (run under -race in CI).
func TestMetricszUnderLoad(t *testing.T) {
	cdln, data := testCDLN(t, 68)
	srv, ts := startServer(t, cdln, Config{Workers: 2, MaxBatch: 4})
	req := V2ClassifyRequest{}
	for _, s := range data[:8] {
		req.Images = append(req.Images, s.X.Flatten().Data)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ { // classify storm
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+classifyPath, "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Add(1)
	go func() { // hot-swapper: republishes the default entry
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := srv.reg.Register(DefaultModelName, cdln); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	deadline := time.Now().Add(500 * time.Millisecond)
	scrapes := 0
	for time.Now().Before(deadline) {
		out := scrape(t, ts.URL)
		if !strings.Contains(out, "cdl_requests_total") {
			t.Fatalf("scrape lost the default model:\n%s", out)
		}
		scrapes++
	}
	close(stop)
	wg.Wait()
	if scrapes < 3 {
		t.Errorf("only %d scrapes completed", scrapes)
	}
}

// BenchmarkObservabilityOverhead pins the cost of always-on tracing: the
// same classify traffic with the obs layer enabled (default) and globally
// disabled. The acceptance bar is ≤5% throughput overhead; run it with
// `go test -run '^$' -bench ObservabilityOverhead ./internal/serve`.
func BenchmarkObservabilityOverhead(b *testing.B) {
	cdln, data := testCDLN(b, 70)
	srv, err := New(cdln, Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	req := V2ClassifyRequest{}
	for _, s := range data[:8] {
		req.Images = append(req.Images, s.X.Flatten().Data)
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B) {
		b.SetBytes(int64(len(req.Images)))
		for i := 0; i < b.N; i++ {
			r := httptest.NewRequest(http.MethodPost, classifyPath, bytes.NewReader(body))
			r.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				b.Fatalf("HTTP %d: %s", w.Code, w.Body.String())
			}
		}
	}
	b.Run("tracing=on", run)
	b.Run("tracing=off", func(b *testing.B) {
		obs.SetEnabled(false)
		defer obs.SetEnabled(true)
		run(b)
	})
	// The flight recorder rides the same ≤5% acceptance bar: flight=off
	// isolates its contribution from the tracing layer's.
	b.Run("flight=on", run)
	b.Run("flight=off", func(b *testing.B) {
		obs.SetFlightEnabled(false)
		defer obs.SetFlightEnabled(true)
		run(b)
	})
}
