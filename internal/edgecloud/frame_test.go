package edgecloud

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/fixed"
	"cdl/internal/obs"
	"cdl/internal/serve"
)

// TestLinkChargeMatchesTheWire pins what energy.Link is charged on against
// what HTTPTransport puts on the link: one wire frame per offloading batch,
// whose length less its framing (the 12-byte preamble, the members object,
// four bytes per payload) is exactly the sum of the offloaded results'
// WireBytes. The charge was always on the raw wire.Encode length; since the
// frame replaced base64-in-JSON that is also what is sent, traced or not.
// The members are the request's whole policy: a bare δ's bytes are the
// ones a δ-only offload sent.
func TestLinkChargeMatchesTheWire(t *testing.T) {
	cdln, data := testCDLN(t, 91)
	cloud, err := serve.New(cdln, serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	type seen struct {
		contentType string
		body        []byte
	}
	var mu sync.Mutex
	var requests []seen
	cloudTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		requests = append(requests, seen{r.Header.Get("Content-Type"), body})
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		cloud.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() { cloudTS.Close(); cloud.Close() })

	xs := tensorsOf(data[:40])
	for _, tc := range []struct {
		name      string
		transport *HTTPTransport
		traced    bool
		pol       core.ExitPolicy
		members   string
	}{
		{"named model", NewHTTPModelTransport(cloudTS.URL, serve.DefaultModelName), false, core.DeltaPolicy(0.9), `{"policy":{"delta":0.9}}`},
		{"named model, traced", NewHTTPModelTransport(cloudTS.URL, serve.DefaultModelName), true, core.DeltaPolicy(0.9), `{"policy":{"delta":0.9}}`},
		{"stage deltas, a cap, traced detail", NewHTTPModelTransport(cloudTS.URL, serve.DefaultModelName), false,
			core.ExitPolicy{Delta: -1, StageDeltas: []float64{0.999, -1}, MaxExit: 2, Trace: true},
			`{"policy":{"stage_deltas":[0.999,-1],"max_exit":2,"detail":"trace"}}`},
	} {
		mu.Lock()
		requests = nil
		mu.Unlock()
		cfg := DefaultConfig(1)
		edge, err := New(cdln, tc.transport, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tc.traced {
			edge.AttachTrace(obs.NewTrace("00112233445566778899aabbccddeeff", true))
		}
		results, err := edge.ClassifyBatchPolicy(xs, tc.pol)
		if err != nil {
			t.Fatal(err)
		}
		charged, offloads := 0, 0
		for _, res := range results {
			if res.Offloaded {
				offloads++
				charged += res.WireBytes
				if want := cfg.Link.TransferPJ(res.WireBytes); res.LinkPJ != want {
					t.Errorf("%s: link charge %v pJ, want %v for %d bytes", tc.name, res.LinkPJ, want, res.WireBytes)
				}
			}
		}
		if offloads < 2 || len(requests) != 1 {
			t.Fatalf("%s: %d offloads in %d requests; want a batch in one round trip", tc.name, offloads, len(requests))
		}
		req := requests[0]
		if req.contentType != wire.FrameContentType {
			t.Errorf("%s: Content-Type %q, want %q", tc.name, req.contentType, wire.FrameContentType)
		}
		members, payloads, err := wire.ReadFrame(req.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(payloads) != offloads {
			t.Errorf("%s: %d payloads on the link for %d offloads", tc.name, len(payloads), offloads)
		}
		if sent := len(req.body) - (12 + len(members) + 4*len(payloads)); sent != charged {
			t.Errorf("%s: %d payload bytes on the link, %d charged", tc.name, sent, charged)
		}
		if string(members) != tc.members {
			t.Errorf("%s: members %s, want %s", tc.name, members, tc.members)
		}
	}
}

// TestRequestFrameOutlivesAnEarlyRefusal: a cloud may refuse before it
// reads the body, and net/http then returns the answer from Do while it is
// still writing the request. A body past the server's 256 KB post-handler
// drain is never drained: the server answers, holds the connection for its
// reset-avoidance delay and closes it, so the write of every call below is
// still in flight when the next call builds its frame. Several callers
// share the pool, as an edge's workers do. The pooled request frame must go
// back to its pool only when net/http closes the body; under -race,
// recycling it any earlier is a data race between that write and another
// call's AppendFrame.
func TestRequestFrameOutlivesAnEarlyRefusal(t *testing.T) {
	cloud := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serve.WriteError(w, http.StatusServiceUnavailable, "refused unread")
	}))
	defer cloud.Close()
	transport := NewHTTPModelTransport(cloud.URL, serve.DefaultModelName)
	var wg sync.WaitGroup
	for caller := 0; caller < 3; caller++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payloads := make([][]byte, 4)
			for i := range payloads {
				payloads[i] = bytes.Repeat([]byte{byte(caller)}, 100<<10)
			}
			for call := 0; call < 10; call++ {
				for _, p := range payloads {
					p[0] = byte(call)
				}
				if _, err := transport.ResumeBatch(payloads, 0.9); err == nil {
					t.Errorf("caller %d call %d: a refusing cloud yielded records", caller, call)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestServerCloseSettlesGoroutines: an edge that offloaded over HTTP leaves
// no goroutine behind once Close returns. The cloud stays up, so its
// keep-alive connections to the edge's default client stay open unless
// Close shuts them.
func TestServerCloseSettlesGoroutines(t *testing.T) {
	cdln, data := testCDLN(t, 96)
	cloud, err := serve.New(cdln, serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cloudTS := httptest.NewServer(cloud.Handler())
	defer func() { cloudTS.Close(); cloud.Close() }()
	start := runtime.NumGoroutine()

	transport := NewHTTPModelTransport(cloudTS.URL, serve.DefaultModelName)
	srv, err := NewServer(cdln, func() (Transport, error) { return transport, nil },
		Config{SplitStage: 1, Delta: -1}, ServerConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	edgeTS := httptest.NewServer(srv.Handler())
	one := 1.0 // no early exit: every image crosses the link
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				body, err := json.Marshal(serve.ClassifyRequest{Images: [][]float64{data[c+i].X.Flatten().Data}, Delta: &one})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := edgeTS.Client().Post(edgeTS.URL+"/v1/classify", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("classify: HTTP %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	if st := srv.Stats(); st.Offloads != 12 {
		t.Fatalf("%d offloads, want 12", st.Offloads)
	}
	edgeTS.Close()
	srv.Close()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 1 s after Close, %d before the edge started:\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// recordingTransport keeps a copy of every payload it is handed: the
// payloads are views of a buffer the Edge reuses.
type recordingTransport struct {
	inner Transport
	sent  [][]byte
}

func (r *recordingTransport) Resume(ps [][]byte, pol core.ExitPolicy, id string) ([]core.ExitRecord, []obs.Span, error) {
	for _, p := range ps {
		r.sent = append(r.sent, bytes.Clone(p))
	}
	return r.inner.Resume(ps, pol, id)
}

// TestEdgeEncodesFromItsSlab: an Edge walks its prefix into a slab it
// reuses call after call, growing and shrinking with the batch, and what it
// ships is byte for byte the encoding of the private activations
// ClassifyPrefixBatchPolicy returns for the same inputs — trunk residues
// and routed branch handoffs alike — and its records are the monolithic
// walk's.
func TestEdgeEncodesFromItsSlab(t *testing.T) {
	g, data := routedEdgeGraph(t, 17)
	lb, err := NewGraphLoopback(g)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingTransport{inner: lb}
	edge, err := NewGraph(g, rec, Config{SplitStage: 1, Delta: -1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewGraphSession(g)
	if err != nil {
		t.Fatal(err)
	}
	pol := core.DeltaPolicy(0.999)
	xs := tensorsOf(data)
	branch := 0
	for lo, n := range []int{16, 3, 11, 1, 16, 7} {
		batch := xs[lo*5 : lo*5+n]
		rec.sent = rec.sent[:0]
		got, err := edge.WalkBatch(batch, 0, 0, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		for _, pre := range ref.ClassifyPrefixBatchPolicy(batch, 1, pol) {
			if pre.Exited {
				continue
			}
			p, err := wire.Encode(wire.Activation{Node: pre.Node, FromStage: pre.FromStage, Pos: pre.Pos, Shape: pre.Activation.Shape(), Data: pre.Activation.Data}, wire.EncodingFloat64, fixed.Format{})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, p)
			if pre.Node > 0 {
				branch++
			}
		}
		if len(rec.sent) != len(want) {
			t.Fatalf("batch %d: shipped %d payloads, want %d", lo, len(rec.sent), len(want))
		}
		for i := range want {
			if !bytes.Equal(rec.sent[i], want[i]) {
				t.Fatalf("batch %d: payload %d is not the encoding of its private activation", lo, i)
			}
		}
		for i, r := range ref.ClassifyBatchPolicy(batch, pol) {
			if !sameRecord(got[i], r) {
				t.Fatalf("batch %d input %d: edge record %+v, monolithic %+v", lo, i, got[i], r)
			}
		}
	}
	if branch == 0 {
		t.Fatal("no routed handoff was shipped; the test needs one")
	}
}
