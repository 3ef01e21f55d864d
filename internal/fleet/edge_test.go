package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"cdl/internal/core"
	"cdl/internal/edgecloud"
	"cdl/internal/serve"
)

// TestRouterFrontsSplitEntries: the router fronts edges like any backend.
// Two backends whose "default" entry is a split entry (edgecloud.Register
// at split 1 over a Loopback) are admitted by the /readyz probes, and /v2
// classify answers through the router are a local entry's byte for byte,
// with the run-to-run stamps, energy_pj (a split entry's carries the link)
// and the tier-prefixed span list masked.
func TestRouterFrontsSplitEntries(t *testing.T) {
	cdln, data := testCDLN(t, 38)
	edges := make([]*serve.Server, 2)
	urls := make([]string, len(edges))
	for i := range edges {
		reg := serve.NewRegistry(serve.Config{Workers: 2})
		if _, err := edgecloud.Register(reg, serve.DefaultModelName, core.LinearGraph(cdln),
			func() (edgecloud.Transport, error) { return edgecloud.NewLoopback(cdln) }, edgecloud.DefaultConfig(1)); err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewWithRegistry(reg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		edges[i], urls[i] = srv, ts.URL
	}
	rt, err := New(Config{Backends: urls, ProbeInterval: 25 * time.Millisecond, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close() })
	waitReady(t, &testFleet{router: rt, ts: front}, 2)
	resp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router /readyz over split entries: HTTP %d", resp.StatusCode)
	}

	local, err := serve.New(cdln, serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	localTS := httptest.NewServer(local.Handler())
	t.Cleanup(func() { localTS.Close(); local.Close() })
	masked := regexp.MustCompile(`"(trace_id|start_unix_ns|duration_ms|deadline_unix_ms|energy_pj)":("[^"]*"|[0-9.e+-]+)|"spans":\[[^\]]*\]`)
	d, capAt := 0.9, 1
	for i, pol := range []*serve.PolicyRequest{
		nil, {Delta: &d}, {Delta: &d, MaxExit: &capAt}, {Delta: &d, Detail: serve.DetailTrace}, {Detail: serve.DetailLabel},
	} {
		for lo := 0; lo < 48; lo += 8 {
			req := serve.V2ClassifyRequest{Images: sampleImages(data, lo, 8), Policy: pol}
			code, _, got := postJSON(t, http.DefaultClient, front.URL+classifyPath, req)
			wantCode, _, want := postJSON(t, http.DefaultClient, localTS.URL+classifyPath, req)
			got, want = masked.ReplaceAll(got, []byte("MASKED")), masked.ReplaceAll(want, []byte("MASKED"))
			if code != http.StatusOK || wantCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("policy %d, images %d+8: HTTP %d through the router, %d local\nrouter: %s\nlocal:  %s", i, lo, code, wantCode, got, want)
			}
		}
	}
	for i, e := range edges {
		if st := e.Stats(); st.Requests == 0 || st.Tier.Offloaded == 0 {
			t.Errorf("edge %d served %d requests, offloaded %d images; want a share of both", i, st.Requests, st.Tier.Offloaded)
		}
	}
}
