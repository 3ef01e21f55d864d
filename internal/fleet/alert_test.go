package fleet

// alert_test.go is the acceptance harness for the fleet observability
// stack: a backend handed an unreachable p99 target behind the router must
// page on its own /alertz, and the breach must leave retrievable evidence
// on the backend's /debug/flightz — a controller rung-down snapshot holding
// at least one anomalous record with its full span tree.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cdl/internal/control"
	"cdl/internal/obs"
	"cdl/internal/serve"
)

// getJSON decodes a GET response into out, failing the test on transport
// or decode errors (the surfaces under test are all local and live).
func getJSON(t testing.TB, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// snapshotSpanTree scans the flightz document for a rung-down snapshot
// that froze at least one anomalous record with a non-empty span tree —
// the evidence chain the triage quickstart walks.
func snapshotSpanTree(fr obs.FlightzResponse) (obs.FlightRecord, bool) {
	for _, snap := range fr.Snapshots {
		if snap.Reason != "rung_down" {
			continue
		}
		for _, rec := range snap.Records {
			if rec.Anomalous() && len(rec.Spans) > 0 {
				return rec, true
			}
		}
	}
	return obs.FlightRecord{}, false
}

func TestFleetAlertOnP99Breach(t *testing.T) {
	cdln, data := testCDLN(t, 34)

	// The breaching backend ticks its SLO controller fast so rung-down
	// snapshots land within the test's patience; its peer stays untargeted.
	breaching := startBackend(t, cdln, serve.Config{
		Workers: 2, QueueDepth: 256, MaxBatch: 8,
		ControlInterval: 50 * time.Millisecond,
	})
	healthy := startBackend(t, cdln, serve.Config{Workers: 2, QueueDepth: 256, MaxBatch: 8})

	rt, err := New(Config{
		Backends:      []string{breaching.url, healthy.url},
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	f := &testFleet{backends: []*testBackend{breaching, healthy}, router: rt, ts: ts}
	waitReady(t, f, 2)

	client := &http.Client{Timeout: 10 * time.Second}

	// Warm the breach evidence before any SLO exists: identity-policy
	// traffic sends the hard inputs to the deepest exit, and those records
	// are tail-retained with their span trees — exactly what the first
	// rung-down snapshot must freeze.
	for i := 0; i < 40; i++ {
		status, _, body := postJSON(t, client, ts.URL+classifyPath,
			serve.V2ClassifyRequest{Images: sampleImages(data, i*2, 2)})
		if status != http.StatusOK {
			t.Fatalf("warmup request %d: HTTP %d: %s", i, status, body)
		}
	}

	// Inject the breach: a p99 target no real request can meet, so every
	// completed request burns error budget and the default multi-window
	// thresholds fire as soon as MinSamples accumulate in the fast window.
	sloBody, err := json.Marshal(control.SLO{P99LatencyMs: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	sloReq, err := http.NewRequest(http.MethodPut,
		breaching.url+"/v2/models/"+serve.DefaultModelName+"/slo", jsonBody(sloBody))
	if err != nil {
		t.Fatal(err)
	}
	sloReq.Header.Set("Content-Type", "application/json")
	sloResp, err := client.Do(sloReq)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := readAll(sloResp)
	sloResp.Body.Close()
	if sloResp.StatusCode != http.StatusOK {
		t.Fatalf("attach SLO: HTTP %d: %s", sloResp.StatusCode, payload)
	}

	deadline := time.Now().Add(20 * time.Second)
	var (
		flight        obs.FlightzResponse
		backendActive bool
		haveSnapshot  bool
	)
	for i := 0; !(backendActive && haveSnapshot); i++ {
		if time.Now().After(deadline) {
			t.Fatalf("breach never fully surfaced: backend alert=%v rung-down span tree=%v",
				backendActive, haveSnapshot)
		}
		// Keep traffic flowing so the fast window and the controller see
		// live load while the alert propagates.
		postJSON(t, client, ts.URL+classifyPath,
			serve.V2ClassifyRequest{Images: sampleImages(data, i*3, 2)})

		if !backendActive {
			var rep control.AlertzReport
			getJSON(t, breaching.url+"/alertz", &rep)
			backendActive = rep.Active && rep.Tier == "serve"
		}
		if !haveSnapshot {
			getJSON(t, breaching.url+"/debug/flightz?limit=64", &flight)
			_, haveSnapshot = snapshotSpanTree(flight)
		}
	}

	rec, _ := snapshotSpanTree(flight)
	if rec.TraceID == "" {
		t.Error("retained anomalous record carries no trace id")
	}
	if st, ok := flight.Models[serve.DefaultModelName]; !ok || st.Anomalous == 0 {
		t.Errorf("flightz retention stats missing anomalous tail: %+v", flight.Models)
	}

	// The router's own flight ring must have wide events for the same
	// traffic, with the backend URL as the routed node path.
	var rfr obs.FlightzResponse
	getJSON(t, ts.URL+"/debug/flightz?limit=16", &rfr)
	if rfr.Tier != "fleet" || len(rfr.Records) == 0 {
		t.Fatalf("router flightz empty: tier=%q records=%d", rfr.Tier, len(rfr.Records))
	}
}
