package fleet

// forward_test.go: the router is opaque to bodies, so it must be opaque to
// what labels them. An edge tier pointed at a cdlrouter front door sends its
// offloads as wire frames (Content-Type wire.FrameContentType); a backend
// picks its decoder by that header alone, so relabelling the forwarded
// attempt as JSON turns every offload into a 400.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cdl/internal/core"
	"cdl/internal/edgecloud"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/serve"
	"cdl/internal/tensor"
)

// TestRouterForwardsEdgeOffloads is the chain edge → Router → two backends:
// a batch whose hard residue offloads through the router comes back with
// records equal to the monolithic oracle's, on the named-model resume
// route.
func TestRouterForwardsEdgeOffloads(t *testing.T) {
	cdln, data := testCDLN(t, 31)
	f := startFleet(t, cdln, 2, nil)
	waitReady(t, f, 2)

	const delta = 0.9
	ref := cdln.Clone()
	ref.Delta, ref.StageDeltas = delta, nil
	xs := make([]*tensor.T, 48)
	for i := range xs {
		xs[i] = data[i].X
	}
	for name, transport := range map[string]edgecloud.Transport{
		"named model": edgecloud.NewHTTPModelTransport(f.URL(), serve.DefaultModelName),
	} {
		edge, err := edgecloud.New(cdln, transport, edgecloud.DefaultConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		offloads := 0
		// Batches of 8, so the ring sees several distinct bodies.
		for at := 0; at < len(xs); at += 8 {
			results, err := edge.ClassifyBatchPolicy(xs[at:at+8], core.DeltaPolicy(delta))
			if err != nil {
				t.Fatalf("%s: batch at %d through the router: %v", name, at, err)
			}
			for i, res := range results {
				want := ref.Classify(xs[at+i])
				got := res.Record
				if got.StageIndex != want.StageIndex || got.StageName != want.StageName || got.Label != want.Label ||
					got.Confidence != want.Confidence || got.Ops != want.Ops {
					t.Fatalf("%s: input %d: %+v through the router, oracle %+v", name, at+i, got, want)
				}
				if res.Offloaded {
					offloads++
				}
			}
		}
		if offloads == 0 {
			t.Fatalf("%s: nothing offloaded; the router went unexercised", name)
		}
	}
}

// TestRouterForwardsContentType pins the header itself on both attempts of
// a hedged request: the primary (which stalls) and the hedge (which answers)
// each see the client's Content-Type, and a client that sent none is
// forwarded as JSON, as before.
func TestRouterForwardsContentType(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	first := make(chan struct{}, 1)
	first <- struct{}{}
	backend := func() string {
		mux := probedMux(nil)
		mux.HandleFunc("POST "+resumePath, func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			mu.Lock()
			seen = append(seen, r.Header.Get("Content-Type"))
			mu.Unlock()
			select {
			case <-first: // the primary attempt: stall until the hedge wins
				<-r.Context().Done()
				first <- struct{}{}
			default:
				serve.WriteJSON(w, http.StatusOK, serve.V2ClassifyResponse{})
			}
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	rt, err := New(Config{
		Backends:      []string{backend(), backend()},
		ProbeInterval: 25 * time.Millisecond,
		Hedge:         true,
		HedgeMin:      20 * time.Millisecond,
		HedgeMax:      20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close() })
	waitReady(t, &testFleet{router: rt, ts: front}, 2)

	for _, tc := range []struct{ sent, want string }{
		{wire.FrameContentType, wire.FrameContentType},
		{"", "application/json"},
	} {
		mu.Lock()
		seen = nil
		mu.Unlock()
		req, err := http.NewRequest(http.MethodPost, front.URL+resumePath, bytes.NewReader([]byte("opaque to the router")))
		if err != nil {
			t.Fatal(err)
		}
		if tc.sent != "" {
			req.Header.Set("Content-Type", tc.sent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Content-Type %q: HTTP %d through the router", tc.sent, resp.StatusCode)
		}
		// The stalled primary records before it stalls; wait for its
		// cancellation to hand the token back before the next round.
		deadline := time.Now().Add(5 * time.Second)
		for len(first) == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		got := append([]string(nil), seen...)
		mu.Unlock()
		if len(got) != 2 || got[0] != tc.want || got[1] != tc.want {
			t.Errorf("client sent Content-Type %q: the attempts carried %q, want primary and hedge %q", tc.sent, got, tc.want)
		}
	}
}
