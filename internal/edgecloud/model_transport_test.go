package edgecloud

// model_transport_test.go covers the multi-model cloud tier: an
// HTTPTransport pinned to a named registry entry must resume on exactly
// that model (POST /v2/models/{name}/resume), so one cloud process can
// back heterogeneous edge splits — each edge names the cascade its prefix
// belongs to, and records stay bit-identical to a monolithic run of that
// cascade.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"cdl/internal/core"
	"cdl/internal/serve"
	"cdl/internal/tensor"
	"cdl/internal/train"
)

// tensorsOf collects samples' input tensors.
func tensorsOf(data []train.Sample) []*tensor.T {
	out := make([]*tensor.T, len(data))
	for i, s := range data {
		out[i] = s.X
	}
	return out
}

func TestHTTPModelTransportResumesNamedModel(t *testing.T) {
	cdlnA, _ := testCDLN(t, 91)
	cdlnB, data := testCDLN(t, 92) // different weights, same shapes

	// Cloud tier: default model A plus named entry "b" — the edge below
	// splits model B, so only the named route can serve it correctly.
	reg := serve.NewRegistry(serve.Config{Workers: 2})
	if _, err := reg.Register("a", cdlnA); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("b", cdlnB); err != nil {
		t.Fatal(err)
	}
	cloud, err := serve.NewWithRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	cloudTS := httptest.NewServer(cloud.Handler())
	t.Cleanup(func() { cloudTS.Close(); cloud.Close() })

	mono, err := core.NewSession(cdlnB)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []float64{-1, 0.9} {
		edge, err := New(cdlnB, NewHTTPModelTransport(cloudTS.URL, "b"), DefaultConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		offloads := 0
		for i, s := range data[:60] {
			res, err := classifyOne(edge, s.X, delta)
			if err != nil {
				t.Fatalf("δ=%v sample %d: %v", delta, i, err)
			}
			if res.Offloaded {
				offloads++
			}
			ref := mono.ClassifyDelta(s.X, delta)
			if !sameRecord(res.Record, ref) {
				t.Fatalf("δ=%v sample %d: split-on-b %+v != monolithic-b %+v", delta, i, res.Record, ref)
			}
		}
		if delta == 0.9 && offloads == 0 {
			t.Fatal("δ=0.9 produced no offloads; the named route went unexercised")
		}
	}

	// Batch path over the same named route.
	edge, err := New(cdlnB, NewHTTPModelTransport(cloudTS.URL, "b"), DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	xs := tensorsOf(data[:40])
	results, err := edge.ClassifyBatchPolicy(xs, core.DeltaPolicy(0.9))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		ref := mono.ClassifyDelta(xs[i], 0.9)
		if !sameRecord(res.Record, ref) {
			t.Fatalf("batch sample %d: %+v != %+v", i, res.Record, ref)
		}
	}

	// A transport naming a missing entry must surface the cloud's 404, not
	// fabricate records.
	bad, err := New(cdlnB, NewHTTPModelTransport(cloudTS.URL, "ghost"), DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := classifyOne(bad, data[0].X, -1); err == nil {
		t.Fatal("offload to an unknown cloud model succeeded")
	}
}

// TestHTTPTransportRefusesAnUnnamedModel: with no model named, the path
// would be /v2/models//resume, which the cloud's mux redirects to a GET of
// /v2/models/resume and answers as a 404 for a model called "resume". The
// transport refuses before it sends anything, naming the field.
func TestHTTPTransportRefusesAnUnnamedModel(t *testing.T) {
	var sent atomic.Int64
	cloud := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sent.Add(1)
		serve.WriteError(w, http.StatusNotFound, "unknown model")
	}))
	defer cloud.Close()
	h := &HTTPTransport{BaseURL: cloud.URL}
	_, err := h.ResumeBatch([][]byte{{1}}, -1)
	if err == nil || !strings.Contains(err.Error(), "HTTPTransport.Model") {
		t.Errorf("ResumeBatch with no model: %v, want an error naming HTTPTransport.Model", err)
	}
	_, _, err = h.Resume([][]byte{{1}}, core.DeltaPolicy(0.9), "00112233445566778899aabbccddeeff")
	if err == nil || !strings.Contains(err.Error(), "HTTPTransport.Model") {
		t.Errorf("Resume with no model: %v, want an error naming HTTPTransport.Model", err)
	}
	if n := sent.Load(); n != 0 {
		t.Errorf("%d requests reached the cloud, want none", n)
	}
}
