package edgecloud

// control_test.go covers the edge tier's SLO integration: the
// policy-aware split pipeline (ClassifyBatchPolicy) and the controller
// adapting an edge front end to end, on its plain control.Ladder.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/serve"
	"cdl/internal/tensor"
)

// TestClassifyBatchPolicyForceLocal pins the shed knob: a depth cap
// below the split stage resolves every input on the edge — zero offloads
// — with records identical to a fully-local capped cascade. A cap in the
// cloud's half and per-stage δs cross with the offload instead, and the
// split answers what a monolithic Session does, bit for bit.
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

	mid, err := New(cdln, lb, Config{SplitStage: 1, Delta: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []core.ExitPolicy{
		{Delta: 0.999, MaxExit: 1},
		{Delta: -1, MaxExit: -1, StageDeltas: []float64{0.999, -1}},
		{Delta: 0.9, MaxExit: 1, StageDeltas: []float64{-1, 0.5}, Trace: true},
	} {
		want := ref.ClassifyBatchPolicy(xs, pol)
		got, err := mid.ClassifyBatchPolicy(xs, pol)
		if err != nil {
			t.Fatalf("%+v: %v", pol, err)
		}
		offloads := 0
		for i, res := range got {
			if !sameRecord(res.Record, want[i]) || !slices.Equal(res.Record.Trace, want[i].Trace) {
				t.Fatalf("%+v sample %d: %+v != monolithic %+v", pol, i, res.Record, want[i])
			}
			if res.Offloaded {
				offloads++
			}
		}
		if offloads == 0 {
			t.Errorf("%+v: nothing offloaded", pol)
		}
	}
}

// TestEdgeServerSLOAtSplitZeroCapsTheCloud: an edge that owns no stages
// takes an SLO, and its saturated controller caps the cloud's walk: every
// inherited input still crosses the link and exits at the floor rung's
// cap, exit 0.
func TestEdgeServerSLOAtSplitZeroCapsTheCloud(t *testing.T) {
	cdln, data := testCDLN(t, 82)
	edgeSrv, err := NewServer(cdln, func() (Transport, error) { return NewLoopback(cdln) },
		Config{SplitStage: 0, Delta: -1},
		ServerConfig{Workers: 1, SLO: control.SLO{EnergyBudgetPJ: 1}}) // below any exit's energy
	if err != nil {
		t.Fatal(err)
	}
	defer edgeSrv.Close()
	images := make([][]float64, 16)
	for i := range images {
		images[i] = data[i].X.Flatten().Data
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _, err := postJSON(edgeSrv.Handler(), "/v1/classify", serve.ClassifyRequest{Images: images}); code != http.StatusOK || err != nil {
			t.Fatalf("classify: HTTP %d, %v", code, err)
		}
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
	_, got, err := postJSON(edgeSrv.Handler(), "/v1/classify", serve.ClassifyRequest{Images: images})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.ExitIndex != 0 {
			t.Errorf("inherited result %d exited at %d under a saturated controller, want the cap, 0", i, r.ExitIndex)
		}
	}
	if after := edgeSrv.Stats(); after.Offloads-before.Offloads != int64(len(images)) || after.Control.MaxExit != 0 {
		t.Errorf("offloads grew by %d, control %+v; want every image offloaded under MaxExit 0", after.Offloads-before.Offloads, after.Control)
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
