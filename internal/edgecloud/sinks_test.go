package edgecloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/obs"
	"cdl/internal/serve"
)

// faultTransport is a loopback cloud whose next round trips can be made to
// fail, or to park until released.
type faultTransport struct {
	lb      *Loopback
	fail    atomic.Bool
	park    atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (f *faultTransport) Resume(ps [][]byte, pol core.ExitPolicy, id string) ([]core.ExitRecord, []obs.Span, error) {
	if f.fail.Load() {
		return nil, nil, errors.New("cloud down")
	}
	if f.park.Load() {
		f.entered <- struct{}{}
		<-f.release
	}
	return f.lb.Resume(ps, pol, id)
}

// TestEdgeSinksAgree is the edge tier's sink-conservation test: after a
// mixed run — OK traffic from several clients, invalid bodies, a request
// shed on a full queue, an offload the cloud failed — the cumulative
// counters, the telemetry window, the burn-rate monitor and the flight
// ring agree exactly, /metricsz renders what /statsz reports, and every
// non-200 left a flight record naming its cause. Run under -race.
func TestEdgeSinksAgree(t *testing.T) {
	t.Parallel()
	cdln, data := testCDLN(t, 93)
	lb, err := NewLoopback(cdln)
	if err != nil {
		t.Fatal(err)
	}
	ft := &faultTransport{lb: lb, entered: make(chan struct{}), release: make(chan struct{})}
	// One worker, so one parked offload holds the queue. The latency
	// target is one nothing misses: bad counts exactly the refused images.
	srv, err := NewServer(cdln, func() (Transport, error) { return ft, nil },
		Config{SplitStage: 1, Delta: -1}, ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Registry().SetSLO(serve.DefaultModelName, control.SLO{P99LatencyMs: 60_000}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seq int
	refused := map[string]int{} // trace id → status of every non-200
	do := func(body []byte) int {
		mu.Lock()
		seq++
		id := fmt.Sprintf("edge-sinks-%04d", seq)
		mu.Unlock()
		r := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
		r.Header.Set(obs.TraceHeader, id)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			mu.Lock()
			refused[id] = w.Code
			mu.Unlock()
		}
		return w.Code
	}
	// offloadAll is δ=1: no early exit, every image crosses the link.
	classify := func(n, from int, offloadAll bool) []byte {
		req := serve.ClassifyRequest{}
		for i := 0; i < n; i++ {
			req.Images = append(req.Images, data[(from+i)%len(data)].X.Flatten().Data)
		}
		if one := 1.0; offloadAll {
			req.Delta = &one
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	get := func(path string, out any) {
		t.Helper()
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil || w.Code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d, %v", path, w.Code, err)
		}
	}
	// queue_full: park the lone worker inside the cloud call, fill the
	// bounded queue (1 024 images, four requests at the 256-image cap),
	// then ask.
	ft.park.Store(true)
	parked := make(chan int, 5)
	go func() { parked <- do(classify(2, 0, true)) }()
	<-ft.entered
	ft.park.Store(false)
	const fill = 4
	for i := 0; i < fill; i++ {
		go func() { parked <- do(classify(256, i, true)) }()
	}
	for srv.model.Stats().QueueDepth < fill*256 {
		time.Sleep(time.Millisecond)
	}
	if code := do(classify(3, 0, true)); code != http.StatusServiceUnavailable {
		t.Fatalf("busy edge: HTTP %d, want 503", code)
	}
	close(ft.release)
	for i := 0; i <= fill; i++ {
		if code := <-parked; code != http.StatusOK {
			t.Fatalf("parked request: HTTP %d, want 200", code)
		}
	}
	okImages, okRequests := int64(2+fill*256), int64(1+fill)

	const clients, perClient = 3, 5
	var wg sync.WaitGroup
	var invalid int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				n := 1 + (c+i)%4
				if code := do(classify(n, c*17+i, i%2 == 0)); code != http.StatusOK {
					t.Errorf("classify: HTTP %d", code)
					return
				}
				if code := do([]byte(`{"image":[1,2,3]}`)); code != http.StatusBadRequest {
					t.Errorf("invalid body: HTTP %d, want 400", code)
					return
				}
				mu.Lock()
				okImages += int64(n)
				okRequests++
				invalid++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	// cloud_error: the offload fails, the whole request is a 502.
	ft.fail.Store(true)
	if code := do(classify(4, 0, true)); code != http.StatusBadGateway {
		t.Fatalf("cloud down: HTTP %d, want 502", code)
	}
	const refusedImages, refusals = 3 + 4, 2

	st := srv.Stats()
	snap := srv.model.Plane().Window()
	var exits int64
	for _, c := range snap.ExitCounts {
		exits += c
	}
	var alerts control.AlertzReport
	get("/alertz", &alerts)
	alert := alerts.Models[serve.DefaultModelName]
	var flights obs.FlightzResponse
	get("/debug/flightz?limit=256", &flights)
	seen := flights.Models[serve.DefaultModelName].Seen

	if st.Images != okImages || st.LocalExits+st.Offloads != okImages || st.TotalLatency.Count != okImages ||
		snap.Images != okImages || exits != okImages || alert.TotalGood != okImages {
		t.Errorf("images: statsz %d, local+offloads %d, latency %d, window %d, Σ exit depth %d, alert good %d — want all %d",
			st.Images, st.LocalExits+st.Offloads, st.TotalLatency.Count, snap.Images, exits, alert.TotalGood, okImages)
	}
	if st.Requests != okRequests || st.Invalid != invalid || st.Rejected != 1 || st.CloudErrors != 1 {
		t.Errorf("requests/invalid/rejected/cloud_errors = %d/%d/%d/%d, want %d/%d/1/1",
			st.Requests, st.Invalid, st.Rejected, st.CloudErrors, okRequests, invalid)
	}
	if want := okImages + invalid + refusals; seen != want {
		t.Errorf("flight seen %d, want %d (one per image, one per refusal)", seen, want)
	}
	if alert.TotalBad != refusedImages {
		t.Errorf("alert bad %d, want %d (an invalid request burns no budget)", alert.TotalBad, refusedImages)
	}
	if snap.Sheds != 3 || snap.Arrivals != okImages+refusedImages {
		t.Errorf("window sheds/arrivals = %d/%d, want 3/%d", snap.Sheds, snap.Arrivals, okImages+refusedImages)
	}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	for _, line := range []string{
		fmt.Sprintf(`cdl_images_total{model="default"} %d`, okImages),
		fmt.Sprintf(`cdl_flight_seen_total{model="default"} %d`, seen),
		fmt.Sprintf(`cdl_alert_bad_total{model="default"} %d`, refusedImages),
		`cdl_alert_error_budget{model="default"} 0.01`,
	} {
		if !bytes.Contains(w.Body.Bytes(), []byte(line+"\n")) {
			t.Errorf("/metricsz lacks %q", line)
		}
	}

	byTrace := map[string]obs.FlightRecord{}
	for _, rec := range flights.Records {
		if rec.Outcome != obs.FlightOK {
			byTrace[rec.TraceID] = rec
		}
	}
	if int64(len(refused)) != invalid+refusals {
		t.Fatalf("%d non-200 responses, want %d", len(refused), invalid+refusals)
	}
	for id, code := range refused {
		if rec, ok := byTrace[id]; !ok || rec.RejectCause == "" {
			t.Errorf("HTTP %d (trace %s) left flight record %+v, want one with a reject_cause", code, id, rec)
		}
	}
}

// lyingTransport is a loopback cloud that rewrites every record it returns.
type lyingTransport struct {
	lb  *Loopback
	lie func(*core.ExitRecord)
}

func (l *lyingTransport) Resume(ps [][]byte, pol core.ExitPolicy, id string) ([]core.ExitRecord, []obs.Span, error) {
	recs, spans, err := l.lb.Resume(ps, pol, id)
	for i := range recs {
		l.lie(&recs[i])
	}
	return recs, spans, err
}

// TestEdgeChecksWhatItCannotDerive: of a cloud record the edge reads only
// what a wire record carries, and checks it against what it sent. The exit
// must lie in the cloud's half of the cascade, no deeper than the
// forwarded depth cap, the label among the model's classes, and under
// detail "trace" the record must carry one confidence per exit point the
// cloud evaluated; a record that breaks any of these fails the request
// with 502, and every sink counts it as a cloud_error: /statsz, /metricsz,
// the burn-rate monitor and the flight ring. Node, name and op cost are
// derived from the exit, so a cloud that gets them wrong changes nothing.
func TestEdgeChecksWhatItCannotDerive(t *testing.T) {
	cdln, data := testCDLN(t, 94)
	classes, exits := cdln.Arch.NumClasses, len(cdln.Stages)+1
	one, capAt := 1.0, 1 // no early exit: every image crosses the link
	images := [][]float64{data[0].X.Flatten().Data, data[1].X.Flatten().Data}
	for _, tc := range []struct {
		name   string
		policy *serve.PolicyRequest // nil: a /v1 request at δ 1
		lie    func(*core.ExitRecord)
		want   string // the 502's error; "" expects the oracle's records
	}{
		{"exit on the edge's side of the split", nil, func(r *core.ExitRecord) { r.StageIndex = 0 }, "cloud returned exit 0 outside [1,3)"},
		{"exit past FC", nil, func(r *core.ExitRecord) { r.StageIndex = exits }, "cloud returned exit 3 outside [1,3)"},
		{"label past the classes", nil, func(r *core.ExitRecord) { r.Label = classes }, "cloud returned label 3 outside [0,3)"},
		{"negative label", nil, func(r *core.ExitRecord) { r.Label = -1 }, "cloud returned label -1 outside [0,3)"},
		{"wrong node, name and ops", nil, func(r *core.ExitRecord) { r.Node, r.StageName, r.Ops = 7, "bogus", -1 }, ""},
		{"exit past the forwarded cap", &serve.PolicyRequest{Delta: &one, MaxExit: &capAt},
			func(r *core.ExitRecord) { r.StageIndex = 2 }, "cloud returned exit 2 at depth 2, past the policy's max exit 1"},
		{"a confidence short", &serve.PolicyRequest{Delta: &one, Detail: serve.DetailTrace},
			func(r *core.ExitRecord) { r.Trace = r.Trace[1:] }, "cloud returned 1 stage confidences for exit 2, want 2"},
		{"a confidence over", &serve.PolicyRequest{Delta: &one, Detail: serve.DetailTrace},
			func(r *core.ExitRecord) { r.Trace = append(r.Trace, 1) }, "cloud returned 3 stage confidences for exit 2, want 2"},
	} {
		path, req := "/v1/classify", any(serve.ClassifyRequest{Images: images, Delta: &one})
		if tc.policy != nil {
			path, req = "/v2/models/default/classify", serve.V2ClassifyRequest{Images: images, Policy: tc.policy}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := NewLoopback(cdln)
		if err != nil {
			t.Fatal(err)
		}
		lt := &lyingTransport{lb: lb, lie: tc.lie}
		srv, err := NewServer(cdln, func() (Transport, error) { return lt, nil },
			Config{SplitStage: 1, Delta: -1}, ServerConfig{Workers: 1})
		if err == nil {
			err = srv.Registry().SetSLO(serve.DefaultModelName, control.SLO{P99LatencyMs: 60_000})
		}
		if err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		r.Header.Set(obs.TraceHeader, "liar-0001")
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, r)
		var out struct {
			Error   string                 `json:"error"`
			Results []serve.ClassifyResult `json:"results"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		get := func(path string) []byte {
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			return w.Body.Bytes()
		}
		var flights obs.FlightzResponse
		var alerts control.AlertzReport
		if err := json.Unmarshal(get("/debug/flightz?limit=16"), &flights); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(get("/alertz"), &alerts); err != nil {
			t.Fatal(err)
		}
		metrics := get("/metricsz")
		st := srv.Stats()
		srv.Close()

		if tc.want == "" {
			ref := cdln.Clone()
			ref.Delta, ref.StageDeltas = one, nil
			for i, res := range out.Results {
				want := ref.Classify(data[i].X)
				if w.Code != http.StatusOK || res.Exit != want.StageName || res.ExitIndex != want.StageIndex || res.Ops != want.Ops || res.Label != want.Label {
					t.Errorf("%s: HTTP %d, image %d answered %+v, oracle %+v", tc.name, w.Code, i, res, want)
				}
			}
			if st.CloudErrors != 0 || st.Offloads != 2 {
				t.Errorf("%s: cloud_errors %d, offloads %d; want 0 and 2", tc.name, st.CloudErrors, st.Offloads)
			}
			continue
		}
		if w.Code != http.StatusBadGateway || !strings.Contains(out.Error, tc.want) {
			t.Errorf("%s: HTTP %d %q, want 502 naming %q", tc.name, w.Code, out.Error, tc.want)
		}
		if st.CloudErrors != 1 || st.Requests != 0 || st.Images != 0 {
			t.Errorf("%s: statsz cloud_errors/requests/images = %d/%d/%d, want 1/0/0", tc.name, st.CloudErrors, st.Requests, st.Images)
		}
		if !bytes.Contains(metrics, []byte(`cdl_cloud_errors_total{model="default"} 1`+"\n")) {
			t.Errorf("%s: /metricsz does not count the cloud error", tc.name)
		}
		if bad := alerts.Models[serve.DefaultModelName].TotalBad; bad != 2 {
			t.Errorf("%s: alert bad %d, want the request's 2 images", tc.name, bad)
		}
		if len(flights.Records) != 1 || flights.Records[0].TraceID != "liar-0001" || flights.Records[0].RejectCause != "cloud_error" {
			t.Errorf("%s: flight records %+v, want one for liar-0001 with cause cloud_error", tc.name, flights.Records)
		}
	}
}
