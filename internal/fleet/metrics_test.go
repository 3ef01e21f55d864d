package fleet

// metrics_test.go: the router's /metricsz exposition is golden-pinned —
// renamed families, re-ordered series or changed label sets break scrape
// dashboards silently, so the full text output is pinned byte-for-byte
// against testdata/router_metricsz.golden (regenerate deliberately with
// go test ./internal/fleet -run TestRouterMetricszGolden -update).

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"cdl/internal/control"
	"cdl/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newQuietRouter builds a router whose two backends are unreachable
// (nothing listens on 127.0.0.1:1/:2) with an hour-long probe interval:
// the construction-time probe round fails deterministically once per
// backend and nothing else ever fires, so every counter in the exposition
// is reproducible.
func newQuietRouter(t *testing.T) *Router {
	t.Helper()
	rt, err := New(Config{
		Backends:      []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		ProbeInterval: time.Hour,
		ProbeTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestRouterMetricszGolden(t *testing.T) {
	rt := newQuietRouter(t)

	// Seed deterministic traffic counters: two models with distinct
	// outcomes, fixed latency observations (bucket placement is what the
	// golden pins, and the histogram bounds are fixed by construction).
	// The latencies are served events on each model's plane, observed with
	// the flight recorder off and before the availability monitor exists,
	// so they reach the lifetime horizon alone and the alert and flight
	// families read zero.
	seed := func(name string, ms ...float64) *modelMetrics {
		p := control.NewPlane(name, rt.metrics.flights.Recorder(name))
		obs.SetFlightEnabled(false)
		for _, v := range ms {
			p.Observe([]control.Event{{TotalMS: v, ExitIndex: -1, Outcome: obs.FlightOK}})
		}
		obs.SetFlightEnabled(true)
		p.Monitor(0)
		mm := &modelMetrics{plane: p}
		rt.metrics.models[name] = mm
		return mm
	}
	def := seed("default", 0.8, 2.5, 2.6, 40, 900)
	def.requests.Add(7)
	def.retries.Add(1)
	def.sheds.Add(2)
	def.hedgesSent.Add(3)
	def.hedgeWins.Add(1)
	def.hedgeLosses.Add(2)
	seed("alt", 12).requests.Add(2)

	rt.metrics.swaps.Add(2)
	rt.metrics.swapFailures.Add(1)
	rt.backends[0].requests.Add(9)
	rt.backends[0].errors.Add(1)
	rt.backends[1].inflight.Add(2)

	req := httptest.NewRequest("GET", "/metricsz", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)

	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	// The build-info labels embed the toolchain version and the uptime is a
	// clock reading; mask them so the golden stays byte-stable (the
	// families' presence and label names are still pinned).
	got := regexp.MustCompile(`cdl_build_info\{[^}]*\}`).
		ReplaceAll(rec.Body.Bytes(), []byte(`cdl_build_info{MASKED}`))
	got = regexp.MustCompile(`(?m)^cdl_uptime_seconds .*$`).
		ReplaceAll(got, []byte(`cdl_uptime_seconds MASKED`))
	golden := filepath.Join("testdata", "router_metricsz.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("router /metricsz drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRouterMetricszCardinalityCap: model labels come from URL paths, so
// the per-model series map must stop growing at the cap and fold the
// overflow into one bucket.
func TestRouterMetricszCardinalityCap(t *testing.T) {
	rt := newQuietRouter(t)
	for i := 0; i < maxModelSeries+50; i++ {
		rt.metrics.model("m" + strconv.Itoa(i)).requests.Add(1)
	}
	rt.metrics.mu.Lock()
	n := len(rt.metrics.models)
	_, hasOverflow := rt.metrics.models[overflowModel]
	rt.metrics.mu.Unlock()
	if n > maxModelSeries+1 {
		t.Errorf("model series grew to %d, cap is %d", n, maxModelSeries)
	}
	if !hasOverflow {
		t.Error("overflow bucket missing after exceeding the cap")
	}
	over := rt.metrics.model(overflowModel)
	if over.requests.Load() == 0 {
		t.Error("overflow bucket counted nothing")
	}
}
