package edgecloud

// control_test.go covers the edge tier's SLO integration: the
// policy-aware split pipeline (ClassifyBatchPolicy) and the offload-split
// controller adapting an edge front end to end (the restricted actuation
// ladder is serve's TestEdgeLadder).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/serve"
	"cdl/internal/tensor"
)

// TestClassifyBatchPolicyForceLocal pins the shed knob: a depth cap
// below the split stage resolves every input on the edge — zero offloads
// — with records identical to a fully-local capped cascade.
func TestClassifyBatchPolicyForceLocal(t *testing.T) {
	cdln, data := testCDLN(t, 81)
	lb, err := NewLoopback(cdln)
	if err != nil {
		t.Fatal(err)
	}
	split := len(cdln.Stages)
	edge, err := New(cdln, lb, Config{SplitStage: split, Delta: -1})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*tensor.T, 40)
	for i := range xs {
		xs[i] = data[i].X
	}
	ref, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	for cap := 0; cap < split; cap++ {
		pol := core.DepthCapped(cap)
		want := ref.ClassifyBatchPolicy(xs, pol)
		got, err := edge.ClassifyBatchPolicy(xs, pol)
		if err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		for i, res := range got {
			if res.Offloaded {
				t.Fatalf("cap %d sample %d offloaded — a sub-split cap must stay local", cap, i)
			}
			if !sameRecord(res.Record, want[i]) {
				t.Fatalf("cap %d sample %d: %+v != local reference %+v", cap, i, res.Record, want[i])
			}
		}
	}

	// Caps in the cloud's half of the cascade cannot ride the δ-only
	// wire and must error, as must per-stage deltas.
	mid, err := New(cdln, lb, Config{SplitStage: 1, Delta: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mid.ClassifyBatchPolicy(xs[:1], core.DepthCapped(1)); err == nil {
		t.Error("cloud-tier depth cap accepted; want an error (not forwardable)")
	}
	if _, err := mid.ClassifyBatchPolicy(xs[:1], core.ExitPolicy{Delta: -1, MaxExit: -1, StageDeltas: []float64{-1, -1}}); err == nil {
		t.Error("per-stage deltas accepted; want an error (not forwardable)")
	}
}

// TestEdgeServerSLORejectsSplitZero: an SLO on an edge that owns no
// stages has nothing to actuate and must fail loudly at startup.
func TestEdgeServerSLORejectsSplitZero(t *testing.T) {
	cdln, _ := testCDLN(t, 82)
	lbFactory := func() (Transport, error) { return NewLoopback(cdln) }
	_, err := NewServer(cdln, lbFactory, Config{SplitStage: 0, Delta: -1},
		ServerConfig{Workers: 1, SLO: control.SLO{P99LatencyMs: 10}})
	if err == nil {
		t.Fatal("NewServer accepted an SLO with split 0; want an error")
	}
}

// TestEdgeServerControllerAdaptsOffloadSplit drives the loop end to end:
// an impossible energy budget must push the edge to resolve everything
// locally (offload fraction → 0 for inherited requests), while an
// explicit δ still offloads.
func TestEdgeServerControllerAdaptsOffloadSplit(t *testing.T) {
	cdln, data := testCDLN(t, 83)
	lbFactory := func() (Transport, error) { return NewLoopback(cdln) }
	edgeSrv, err := NewServer(cdln, lbFactory,
		Config{SplitStage: 1, Delta: 0.995}, // near-1 δ: nearly everything offloads at identity
		ServerConfig{
			Workers: 1,
			SLO:     control.SLO{EnergyBudgetPJ: 1}, // below any exit's energy
		})
	if err != nil {
		t.Fatal(err)
	}
	defer edgeSrv.Close()
	ts := httptest.NewServer(edgeSrv.Handler())
	defer ts.Close()

	images := make([][]float64, 16)
	for i := range images {
		images[i] = data[i].X.Flatten().Data
	}
	post := func(req serve.ClassifyRequest) serve.ClassifyResponse {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out serve.ClassifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("classify: HTTP %d, %v", resp.StatusCode, err)
		}
		return out
	}

	// Drive traffic until the controller saturates at its floor.
	deadline := time.Now().Add(10 * time.Second)
	for {
		post(serve.ClassifyRequest{Images: images})
		st := edgeSrv.Stats()
		if st.Control != nil && st.Control.Rung == st.Control.MaxRung {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("edge controller never saturated: %+v", st.Control)
		}
		time.Sleep(10 * time.Millisecond)
	}

	before := edgeSrv.Stats()
	out := post(serve.ClassifyRequest{Images: images})
	for i, r := range out.Results {
		if r.ExitIndex != 0 {
			t.Fatalf("inherited result %d exited at %d under a saturated edge controller, want 0 (local)", i, r.ExitIndex)
		}
	}
	after := edgeSrv.Stats()
	if after.Offloads != before.Offloads {
		t.Errorf("saturated controller still offloaded (%d → %d)", before.Offloads, after.Offloads)
	}
	if after.LocalExits-before.LocalExits != int64(len(images)) {
		t.Errorf("local exits grew by %d, want %d", after.LocalExits-before.LocalExits, len(images))
	}

	// Explicit δ bypasses the controller: offloads resume.
	delta := 0.995
	post(serve.ClassifyRequest{Images: images, Delta: &delta})
	final := edgeSrv.Stats()
	if final.Offloads == after.Offloads {
		t.Errorf("explicit δ request did not offload — the controller must not override explicit policies")
	}
	if final.Control == nil || final.Control.MaxExit != 0 {
		t.Errorf("stats control %+v, want MaxExit 0", final.Control)
	}
	if final.TotalLatency.Count == 0 {
		t.Error("edge latency histogram empty after traffic")
	}
}
