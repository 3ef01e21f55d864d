package edgecloud

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cdl/internal/obs"
	"cdl/internal/serve"
)

// TestEdgeReadyzAndMetricsz covers the edge front's observability surface:
// /readyz flips to 503 on Close while /healthz stays live, and /metricsz
// exposes the tier counters, the latency histogram and the energy split in
// valid exposition text.
func TestEdgeReadyzAndMetricsz(t *testing.T) {
	cdln, data := testCDLN(t, 83)
	lbFactory := func() (Transport, error) { return NewLoopback(cdln) }
	edgeSrv, err := NewServer(cdln, lbFactory, Config{SplitStage: 1, Delta: -1}, ServerConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(edgeSrv.Handler())
	t.Cleanup(ts.Close)

	req := serve.ClassifyRequest{}
	for _, s := range data[:10] {
		req.Images = append(req.Images, s.X.Flatten().Data)
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify HTTP %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz HTTP %d, want 200", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz HTTP %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type %q", ct)
	}
	out := buf.String()
	for _, want := range []string{
		`cdl_requests_total{model="default"} 1`,
		`cdl_images_total{model="default"} 10`,
		`cdl_split_stage{model="default"} 1`,
		`cdl_offload_fraction{model="default"} `,
		`cdl_total_latency_ms_count{model="default"} 10`,
		`cdl_tier_energy_pj_total{model="default",tier="edge"} `,
		`cdl_tier_energy_pj_total{model="default",tier="link"} `,
		`cdl_tier_energy_pj_total{model="default",tier="cloud"} `,
		`cdl_energy_pj_per_image{model="default"} `,
		`cdl_workers{model="default"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("edge scrape missing %q", want)
		}
	}

	edgeSrv.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed edge: /readyz HTTP %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("closed edge: /healthz HTTP %d, want 200", resp.StatusCode)
	}
}
