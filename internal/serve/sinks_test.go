package serve

// sinks_test.go pins the one-emission contract on the serve tier: a
// finished request reaches the cumulative counters, the telemetry window,
// the burn-rate monitor and the flight ring through one call, so the sinks
// must agree exactly — and, because every group is emitted before its
// waiters are released, a client holding its response reads sinks that
// already contain it (no polling anywhere below).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/obs"
)

// opsDoc fetches one ops route as JSON.
func opsDoc(t testing.TB, h http.Handler, path string, out any) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", path, w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// TestFlightRetainsWhatBurnsBudget: under an SLO whose p99 target every
// request misses, every image burns error budget — and an image that burns
// budget is always tail-retained, so the flight ring's anomalous count is
// the monitor's bad count. (Before the single rule the serve tier retained
// only what exceeded the live p99, and the two disagreed.)
func TestFlightRetainsWhatBurnsBudget(t *testing.T) {
	cdln, data := testCDLN(t, 91)
	srv, ts := startServer(t, cdln, Config{Workers: 2, ControlInterval: time.Hour})
	if err := srv.Registry().SetSLO("", control.SLO{P99LatencyMs: 1e-6}); err != nil {
		t.Fatal(err)
	}
	const requests, perRequest = 12, 5
	for i := 0; i < requests; i++ {
		req := V2ClassifyRequest{}
		for _, s := range data[i*perRequest : (i+1)*perRequest] {
			req.Images = append(req.Images, s.X.Flatten().Data)
		}
		if status, body := postClassify(t, ts.URL, req); status != http.StatusOK {
			t.Fatalf("classify %d: HTTP %d: %s", i, status, body)
		}
	}
	// Read through the admin listener's mux: it mirrors the same two routes.
	admin := obs.AdminMux(srv.AdminRoutes()...)
	var alerts control.AlertzReport
	opsDoc(t, admin, "/alertz", &alerts)
	var flights obs.FlightzResponse
	opsDoc(t, admin, "/debug/flightz", &flights)
	bad, anomalous := alerts.Models[DefaultModelName].TotalBad, flights.Models[DefaultModelName].Anomalous
	if bad != requests*perRequest || anomalous != bad {
		t.Fatalf("alertz total_bad %d, flightz anomalous %d, want both %d", bad, anomalous, requests*perRequest)
	}
}

// TestDroppedJobsChargedPerImage: jobs whose context dies in the queue are
// dropped by the worker un-classified, and each is one refused image in
// every sink — whatever the size of the micro-batch it was collected into.
func TestDroppedJobsChargedPerImage(t *testing.T) {
	cdln, data := testCDLN(t, 94)
	srv, _ := startServer(t, cdln, Config{Workers: 1, ControlInterval: time.Hour})
	if err := srv.Registry().SetSLO("", control.SLO{P99LatencyMs: 60_000}); err != nil {
		t.Fatal(err)
	}
	m, err := srv.Registry().Get("")
	if err != nil {
		t.Fatal(err)
	}
	m.pool.close()
	m.pool = newPool(nil, 16, 8, m.emit) // no workers yet: the jobs sit in the queue
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	jobs := make([]*job, 3)
	for i := range jobs {
		jobs[i] = &job{ctx: ctx, x: data[i].X, pol: &identityPolicy, rec: new(core.ExitRecord), wg: &wg}
	}
	if err := m.pool.submit(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	cancel() // die in the queue
	sess, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	m.pool.wg.Add(1)
	go m.pool.worker(&sessionWalker{Session: sess}, m.emit)
	wg.Wait() // emit-before-release: the sinks are settled once the waiters are

	var alerts control.AlertzReport
	opsDoc(t, srv.Handler(), "/alertz", &alerts)
	var flights obs.FlightzResponse
	opsDoc(t, srv.Handler(), "/debug/flightz?outcome=error", &flights)
	if bad := alerts.Models[DefaultModelName].TotalBad; bad != 3 || len(flights.Records) != 3 {
		t.Fatalf("3 dropped jobs: alert bad %d, %d error records — want 3 and 3", bad, len(flights.Records))
	}
	for _, rec := range flights.Records {
		if rec.RejectCause != causeCancelled || rec.ExitIndex != -1 {
			t.Errorf("dropped job recorded as %+v, want cause %q and no exit", rec, causeCancelled)
		}
	}
	// No handler gave up on a request here, so /statsz counts no refusal:
	// a request abandoned after its jobs were dropped counts once, when
	// its handler sees the dead context (Plane.Abandoned).
	if st := srv.Stats(); st.Images != 0 || st.Cancelled != 0 {
		t.Errorf("%d images and %d cancelled requests counted for dropped jobs", st.Images, st.Cancelled)
	}
}

// TestAbandonedRequestCountsOnce: a request whose context dies while its
// jobs wait in the queue is dropped image by image — each image a refusal
// in the monitor and the flight ring — and /statsz counts the request
// once, as cancelled, when its handler gives up.
func TestAbandonedRequestCountsOnce(t *testing.T) {
	cdln, data := testCDLN(t, 96)
	srv, _ := startServer(t, cdln, Config{Workers: 1, ControlInterval: time.Hour})
	if err := srv.Registry().SetSLO("", control.SLO{P99LatencyMs: 60_000}); err != nil {
		t.Fatal(err)
	}
	m, err := srv.Registry().Get("")
	if err != nil {
		t.Fatal(err)
	}
	m.pool.close()
	m.pool = newPool(nil, 16, 8, m.emit) // no workers yet: the jobs wait
	req := V2ClassifyRequest{}
	for _, s := range data[:3] {
		req.Images = append(req.Images, s.X.Flatten().Data)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	status := make(chan int)
	go func() {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, classifyPath, bytes.NewReader(body)).WithContext(ctx))
		status <- w.Code
	}()
	for m.pool.depth() < 3 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	sess, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	m.pool.wg.Add(1)
	go m.pool.worker(&sessionWalker{Session: sess}, m.emit)
	if code := <-status; code != http.StatusServiceUnavailable {
		t.Fatalf("abandoned request: HTTP %d, want 503", code)
	}
	var alerts control.AlertzReport
	opsDoc(t, srv.Handler(), "/alertz", &alerts)
	if st := srv.Stats(); st.Cancelled != 1 || st.Requests != 0 || st.Images != 0 || alerts.Models[DefaultModelName].TotalBad != 3 {
		t.Fatalf("cancelled/requests/images = %d/%d/%d, alert bad %d: want 1/0/0 and 3",
			st.Cancelled, st.Requests, st.Images, alerts.Models[DefaultModelName].TotalBad)
	}
}

// TestSinksAgree drives a mixed run — OK traffic from several clients,
// invalid bodies, a cancelled and an expired context, a queue-full shed —
// and asserts the conservation identities per model: images == window
// samples == Σ exit-depth counts == alert good; flight seen == images +
// refusals; alert good + bad == images + refused images; and every non-200
// left a flight record naming its cause. Every answered record, on the
// linear entry and on a routed one beside it, costs exactly its exit's
// whole-path ops: the fact /statsz's derived aggregates rest on. Run under
// -race in CI.
func TestSinksAgree(t *testing.T) {
	cdln, data := testCDLN(t, 92)
	reg := NewRegistry(Config{Workers: 2, MaxBatch: 4, ControlInterval: time.Hour})
	if _, err := reg.Register(DefaultModelName, cdln); err != nil {
		t.Fatal(err)
	}
	const routed = "routed"
	g, _ := routedServeGraph(t, 92)
	if _, err := reg.RegisterGraph(routed, g); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A target nothing misses: every served image is good, so bad counts
	// exactly the refused images.
	if err := reg.SetSLO("", control.SLO{P99LatencyMs: 60_000}); err != nil {
		t.Fatal(err)
	}
	img := func(i int) []float64 { return data[i%len(data)].X.Flatten().Data }

	// post sends one request to entry name under ctx with a pinned trace
	// id and returns the HTTP status; do posts to the default entry.
	var traceSeq int
	var traceMu sync.Mutex
	refused := map[string]int{}     // trace id → status of every non-200
	answers := map[string][]byte{}  // trace id → body of every 200
	answered := map[string]string{} // trace id → its entry
	post := func(ctx context.Context, name string, body []byte) int {
		traceMu.Lock()
		traceSeq++
		id := fmt.Sprintf("sinks-%04d", traceSeq)
		traceMu.Unlock()
		r := httptest.NewRequest(http.MethodPost, "/v2/models/"+name+"/classify", bytes.NewReader(body)).WithContext(ctx)
		r.Header.Set(obs.TraceHeader, id)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, r)
		traceMu.Lock()
		if w.Code != http.StatusOK {
			refused[id] = w.Code
		} else {
			answers[id], answered[id] = w.Body.Bytes(), name
		}
		traceMu.Unlock()
		return w.Code
	}
	do := func(ctx context.Context, body []byte) int { return post(ctx, DefaultModelName, body) }
	classify := func(n, from int) []byte {
		req := V2ClassifyRequest{}
		for i := 0; i < n; i++ {
			req.Images = append(req.Images, img(from+i))
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// OK traffic and invalid bodies, concurrently.
	const clients, perClient = 4, 6
	var wg sync.WaitGroup
	var okImages, okRequests, invalid int64
	var countMu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				n := 1 + (c+i)%5
				if code := do(context.Background(), classify(n, c*31+i)); code != http.StatusOK {
					t.Errorf("classify: HTTP %d", code)
					return
				}
				if code := do(context.Background(), []byte(`{"image":[1,2,3]}`)); code != http.StatusBadRequest {
					t.Errorf("invalid body: HTTP %d, want 400", code)
					return
				}
				// The routing δ sends the routed entry's images down its
				// branches too.
				body := bytes.Replace(classify(n, c*31+i), []byte("{"), []byte(`{"policy":{"delta":0.999},`), 1)
				if code := post(context.Background(), routed, body); code != http.StatusOK {
					t.Errorf("routed classify: HTTP %d", code)
					return
				}
				countMu.Lock()
				okImages += int64(n)
				okRequests++
				invalid++
				countMu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	// Dead contexts: refused at admission, two images each.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if code := do(cancelled, classify(2, 0)); code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled context: HTTP %d, want 503", code)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if code := do(expired, classify(2, 0)); code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: HTTP %d, want 504", code)
	}
	// Queue full: a worker-less pool of depth 2 must shed a 3-image request.
	m, err := reg.Get("")
	if err != nil {
		t.Fatal(err)
	}
	m.pool.close()
	m.pool = newPool(nil, 2, 1, m.emit)
	if code := do(context.Background(), classify(3, 0)); code != http.StatusServiceUnavailable {
		t.Fatalf("queue full: HTTP %d, want 503", code)
	}
	const refusedImages, refusals = 2 + 2 + 3, 3 // dead contexts + shed

	st := srv.Stats()
	var exits int64
	for _, e := range st.Exits {
		exits += e.Count
	}
	snap := m.plane.Window()
	var alerts control.AlertzReport
	opsDoc(t, srv.Handler(), "/alertz", &alerts)
	alert := alerts.Models[DefaultModelName]
	var flights obs.FlightzResponse
	opsDoc(t, srv.Handler(), "/debug/flightz?limit=256", &flights)
	seen := flights.Models[DefaultModelName].Seen

	if st.Images != okImages || exits != okImages || snap.Images != okImages || alert.TotalGood != okImages {
		t.Errorf("images: statsz %d, Σ exits %d, window %d, alert good %d — want all %d",
			st.Images, exits, snap.Images, alert.TotalGood, okImages)
	}
	if st.Requests != okRequests || st.Invalid != invalid || st.Cancelled != 2 || st.RejectedQueueFull != 1 {
		t.Errorf("requests/invalid/cancelled/queue_full = %d/%d/%d/%d, want %d/%d/2/1",
			st.Requests, st.Invalid, st.Cancelled, st.RejectedQueueFull, okRequests, invalid)
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
	// /metricsz renders the same snapshot.
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	for _, line := range []string{
		fmt.Sprintf(`cdl_images_total{model="default"} %d`, okImages),
		fmt.Sprintf(`cdl_flight_seen_total{model="default"} %d`, seen),
		fmt.Sprintf(`cdl_alert_bad_total{model="default"} %d`, refusedImages),
	} {
		if !bytes.Contains(w.Body.Bytes(), []byte(line+"\n")) {
			t.Errorf("/metricsz lacks %q", line)
		}
	}

	// Every answered record costs its exit's whole-path ops, and /statsz's
	// totals, derived from exit counts, are the answers' own sums.
	rm, err := reg.Get(routed)
	if err != nil {
		t.Fatal(err)
	}
	exitOps := map[string][]float64{DefaultModelName: m.graph.ExitOps(), routed: rm.graph.ExitOps()}
	var ops, pj float64
	for id, body := range answers {
		var resp V2ClassifyResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		for _, r := range resp.Results {
			if want := exitOps[answered[id]][r.ExitIndex]; r.Ops != want {
				t.Errorf("%s (trace %s): exit %d answered %v ops, its exit costs %v", answered[id], id, r.ExitIndex, r.Ops, want)
			}
			if answered[id] == DefaultModelName {
				ops, pj = ops+r.Ops, pj+r.EnergyPJ
			}
		}
	}
	if got := st.MeanOps * float64(st.Images); math.Abs(got-ops) > 1e-12*ops || math.Abs(st.TotalEnergyPJ-pj) > 1e-12*pj {
		t.Errorf("statsz ops %v, pJ %v; the answers sum to %v, %v", got, st.TotalEnergyPJ, ops, pj)
	}

	// Every non-200 left a flight record naming its cause.
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

// TestFlightKeepsRefusals: a refusal keeps its record in /debug/flightz
// however many anomalies follow it. A queue_full shed is followed by 1 024
// δ = 1 images, every one a deepest-exit anomaly, four times what the
// flight ring holds; the shed's record is still there, because sheds and
// errors have half of the ring, which other records cannot evict.
func TestFlightKeepsRefusals(t *testing.T) {
	cdln, data := testCDLN(t, 95)
	srv, err := New(cdln, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	post := func(n int, delta *float64) int {
		req := V2ClassifyRequest{Policy: &PolicyRequest{Delta: delta}}
		for i := 0; i < n; i++ {
			req.Images = append(req.Images, data[i%len(data)].X.Flatten().Data)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, classifyPath, bytes.NewReader(body)))
		return w.Code
	}
	// A worker-less pool of depth 2 cannot take a 3-image request.
	m, err := srv.Registry().Get("")
	if err != nil {
		t.Fatal(err)
	}
	served := m.pool
	m.pool = newPool(nil, 2, 1, m.emit)
	if code := post(3, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("full queue: HTTP %d, want 503", code)
	}
	m.pool = served
	one := 1.0
	const deep = 1024
	for i := 0; i < deep; i += 256 {
		if code := post(256, &one); code != http.StatusOK {
			t.Fatalf("δ = 1 request: HTTP %d", code)
		}
	}
	var flights obs.FlightzResponse
	opsDoc(t, srv.Handler(), "/debug/flightz?outcome=shed", &flights)
	if st := flights.Models[DefaultModelName]; st.Seen != deep+1 || st.Anomalous != deep+1 {
		t.Fatalf("flight stats %+v, want %d seen, all anomalous", st, deep+1)
	}
	if len(flights.Records) != 1 || flights.Records[0].RejectCause != "queue_full" {
		t.Fatalf("shed records after %d deepest exits: %+v, want the queue_full shed", deep, flights.Records)
	}
}
