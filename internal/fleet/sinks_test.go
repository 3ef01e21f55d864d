package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"cdl/internal/obs"
)

// TestRouterSinksAgree is the router's sink-conservation test. One stub
// backend answers each request with the status the body asks for; the mixed
// run — 200s from several clients, relayed 400s, 503s and a 500, then a
// transport failure and, with nothing left healthy, a no_backend shed —
// must leave the router's counters, window, availability monitor and flight
// ring in exact agreement, /metricsz rendering what /statsz reports, and a
// flight record naming the cause of every non-200. Run under -race.
func TestRouterSinksAgree(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.WriteHeader(http.StatusOK) // /readyz
			return
		}
		body, _ := io.ReadAll(r.Body)
		status, err := strconv.Atoi(string(body))
		if err != nil {
			status = http.StatusTeapot
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write([]byte(`{}`))
	}))
	defer stub.Close()
	// An hour-long probe interval: only the construction-time round runs, so
	// health changes below are the data path's alone.
	rt, err := New(Config{Backends: []string{stub.URL}, ProbeInterval: time.Hour, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var mu sync.Mutex
	var seq int
	refused := map[string]int{} // trace id → status of every non-200
	do := func(want int) int {
		mu.Lock()
		seq++
		id := fmt.Sprintf("fleet-sinks-%04d", seq)
		mu.Unlock()
		r := httptest.NewRequest(http.MethodPost, classifyPath, bytes.NewReader([]byte(strconv.Itoa(want))))
		r.Header.Set(obs.TraceHeader, id)
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			mu.Lock()
			refused[id] = w.Code
			mu.Unlock()
		}
		return w.Code
	}

	const clients, perClient = 4, 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				for _, want := range []int{http.StatusOK, http.StatusBadRequest, http.StatusServiceUnavailable} {
					if code := do(want); code != want {
						t.Errorf("relayed HTTP %d, want %d", code, want)
					}
				}
			}
		}()
	}
	wg.Wait()
	const ok, invalid, backendShed = clients * perClient, clients * perClient, clients * perClient
	if code := do(http.StatusInternalServerError); code != http.StatusInternalServerError {
		t.Fatalf("backend 500: relayed HTTP %d", code)
	}
	stub.CloseClientConnections()
	stub.Close()
	if code := do(http.StatusOK); code != http.StatusBadGateway {
		t.Fatalf("dead backend: HTTP %d, want 502", code)
	}
	if code := do(http.StatusOK); code != http.StatusServiceUnavailable {
		t.Fatalf("no healthy backend: HTTP %d, want 503", code)
	}
	const total = ok + invalid + backendShed + 3
	const bad = backendShed + 3 // + backend_error, transport, no_backend

	ms := rt.Stats().Models["default"]
	mm := rt.metrics.model("default")
	latCount := mm.plane.Lifetime(0, 1).Total.Count()
	snap := mm.plane.Window()
	alerts := rt.AlertReport().Models["default"]
	var flights obs.FlightzResponse
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/flightz?limit=256", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &flights); err != nil {
		t.Fatal(err)
	}
	seen := flights.Models["default"].Seen

	if latCount != ok || snap.Images != ok || alerts.TotalGood != ok {
		t.Errorf("served: latency count %d, window %d, alert good %d — want all %d", latCount, snap.Images, alerts.TotalGood, ok)
	}
	if seen != total || alerts.TotalGood+alerts.TotalBad != total-invalid {
		t.Errorf("flight seen %d (want %d), alert good+bad %d (want %d: a relayed 4xx burns no budget)",
			seen, total, alerts.TotalGood+alerts.TotalBad, total-invalid)
	}
	if alerts.TotalBad != bad || snap.Sheds != backendShed+1 {
		t.Errorf("alert bad %d (want %d), window sheds %d (want %d)", alerts.TotalBad, bad, snap.Sheds, backendShed+1)
	}
	if ms.Requests != total-2 || ms.Sheds != backendShed+2 {
		t.Errorf("statsz requests/sheds = %d/%d, want %d/%d", ms.Requests, ms.Sheds, total-2, backendShed+2)
	}
	w = httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	for _, line := range []string{
		fmt.Sprintf(`fleet_requests_total{model="default"} %d`, ms.Requests),
		fmt.Sprintf(`fleet_latency_ms_count{model="default"} %d`, ok),
		fmt.Sprintf(`cdl_flight_seen_total{model="default"} %d`, seen),
		fmt.Sprintf(`cdl_alert_bad_total{model="default"} %d`, bad),
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
	if len(refused) != total-ok {
		t.Fatalf("%d non-200 responses, want %d", len(refused), total-ok)
	}
	wantCause := map[int]string{
		http.StatusBadRequest: "invalid", http.StatusInternalServerError: "backend_error",
		http.StatusBadGateway: "transport",
	}
	for id, code := range refused {
		rec, found := byTrace[id]
		if !found || rec.RejectCause == "" {
			t.Errorf("HTTP %d (trace %s) left flight record %+v, want one with a reject_cause", code, id, rec)
		} else if want, pinned := wantCause[code]; pinned && rec.RejectCause != want {
			t.Errorf("HTTP %d recorded cause %q, want %q", code, rec.RejectCause, want)
		}
	}
}
