package edgecloud

// split_test.go pins the edge front as a serve split entry: it answers
// what an Edge answers on the same inputs, on both of its classify routes;
// queued requests share one micro-batch and so one round trip, and idle
// workers never split a request into several; and what
// the δ-only offload wire cannot carry is refused at admission, before the
// transport is ever called.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/fixed"
	"cdl/internal/modelio"
	"cdl/internal/serve"
	"cdl/internal/train"
)

// countingTransport counts the round trips of the transport it wraps.
type countingTransport struct {
	inner Transport
	calls *atomic.Int64
}

func (c countingTransport) ResumeBatch(ps [][]byte, d float64) ([]core.ExitRecord, error) {
	c.calls.Add(1)
	return c.inner.ResumeBatch(ps, d)
}

// answer is the part of a /v1 or /v2 result the split entry must get
// bit-for-bit right.
type answer struct {
	Label         int     `json:"label"`
	Exit          string  `json:"exit"`
	ExitIndex     int     `json:"exit_index"`
	Confidence    float64 `json:"confidence"`
	Ops           float64 `json:"ops"`
	NormalizedOps float64 `json:"normalized_ops"`
	EnergyPJ      float64 `json:"energy_pj"`
}

// postJSON posts body to path on h and decodes a 200's results.
func postJSON(h http.Handler, path string, body any) (int, []answer, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	var out struct{ Results []answer }
	if w.Code == http.StatusOK {
		err = json.Unmarshal(w.Body.Bytes(), &out)
	}
	return w.Code, out.Results, err
}

// TestSplitEntryMatchesTheEdge: every image posted to the edge front's
// /v1/classify and to its /v2/models/default/classify answers exactly what
// Edge.ClassifyBatchPolicy gives the same input — label, exit, exit index,
// confidence, ops, normalized ops and energy, bitwise — for splits 0, 1
// and the whole trunk, both wire encodings, a linear cascade and a routed
// graph. Run under -race in CI.
func TestSplitEntryMatchesTheEdge(t *testing.T) {
	cdln, data := testCDLN(t, 61)
	routed, rdata := routedEdgeGraph(t, 62)
	for _, gc := range []struct {
		name  string
		g     *core.Graph
		data  []train.Sample
		delta float64
	}{
		{"linear", core.LinearGraph(cdln), data, 0.9},
		{"routed", routed, rdata, 0.999}, // suppresses trunk exits, so inputs route
	} {
		trunk := gc.g.Trunk()
		xs := tensorsOf(gc.data[:24])
		for split := 0; split <= len(trunk.Stages); split++ {
			for _, enc := range []wire.Encoding{wire.EncodingFloat64, wire.EncodingFixed} {
				name := fmt.Sprintf("%s split %d %s", gc.name, split, enc)
				cfg := Config{SplitStage: split, Delta: -1, Encoding: enc}
				lb, err := NewGraphLoopback(gc.g)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := NewGraph(gc.g, lb, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracle.ClassifyBatchPolicy(xs, core.DeltaPolicy(gc.delta))
				if err != nil {
					t.Fatal(err)
				}
				srv, err := NewGraphServer(gc.g, func() (Transport, error) { return NewGraphLoopback(gc.g) }, cfg, ServerConfig{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				d := gc.delta
				offloads := 0
				for lo := 0; lo < len(xs); lo += 8 {
					images := make([][]float64, 8)
					for i := range images {
						images[i] = xs[lo+i].Data
					}
					c1, v1, err1 := postJSON(srv.Handler(), "/v1/classify", serve.ClassifyRequest{Images: images, Delta: &d})
					c2, v2, err2 := postJSON(srv.Handler(), "/v2/models/default/classify",
						serve.V2ClassifyRequest{Images: images, Policy: &serve.PolicyRequest{Delta: &d}})
					if len(v1) != len(images) || len(v2) != len(images) {
						t.Fatalf("%s: HTTP %d (%v) and %d (%v), %d and %d results for %d images", name, c1, err1, c2, err2, len(v1), len(v2), len(images))
					}
					for i := range images {
						res := want[lo+i]
						rec := res.Record
						exp := answer{rec.Label, rec.StageName, rec.StageIndex, rec.Confidence, rec.Ops, rec.Ops / trunk.BaselineOps(), res.TotalPJ()}
						if v1[i] != exp || v2[i] != exp {
							t.Errorf("%s image %d: /v1 %+v, /v2 %+v, edge %+v", name, lo+i, v1[i], v2[i], exp)
						}
						if res.Offloaded {
							offloads++
						}
					}
				}
				if st := srv.Stats(); st.Offloads != int64(2*offloads) || st.Images != int64(2*len(xs)) {
					t.Errorf("%s: statsz %d offloads of %d images, want %d of %d", name, st.Offloads, st.Images, 2*offloads, 2*len(xs))
				}
				srv.Close()
			}
		}
	}
}

// TestQueuedRequestsShareARoundTrip: with the lone worker parked in the
// cloud call, requests queued behind it ride one micro-batch, so they cost
// one round trip between them, and each still answers what it alone would.
func TestQueuedRequestsShareARoundTrip(t *testing.T) {
	cdln, data := testCDLN(t, 63)
	lb, err := NewLoopback(cdln)
	if err != nil {
		t.Fatal(err)
	}
	bt := &blockingTransport{entered: make(chan struct{}, 1), release: make(chan struct{}), lb: lb}
	var calls atomic.Int64
	srv, err := NewServer(cdln, func() (Transport, error) { return countingTransport{inner: bt, calls: &calls}, nil },
		Config{SplitStage: 1, Delta: -1}, ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	one := 1.0 // no early exit: every image crosses the link
	const queued, per = 5, 3
	// The oracle's records, made before the traffic: CDLN.Classify is not
	// concurrent.
	oracle := reference(cdln, one)
	want := make([]core.ExitRecord, 1+queued*per)
	for i := range want {
		want[i] = oracle.Classify(data[i].X)
	}
	post := func(lo, n int) error {
		req := serve.ClassifyRequest{Delta: &one}
		for i := lo; i < lo+n; i++ {
			req.Images = append(req.Images, data[i].X.Flatten().Data)
		}
		code, got, err := postJSON(srv.Handler(), "/v1/classify", req)
		if err != nil || code != http.StatusOK || len(got) != n {
			return fmt.Errorf("images %d+%d: HTTP %d, %d results, %v", lo, n, code, len(got), err)
		}
		for i, a := range got {
			if w := want[lo+i]; a.ExitIndex != w.StageIndex || a.Label != w.Label || a.Confidence != w.Confidence {
				return fmt.Errorf("image %d answered %+v, oracle %+v", lo+i, a, w)
			}
		}
		return nil
	}
	errs := make(chan error, 1+queued)
	go func() { errs <- post(0, 1) }()
	<-bt.entered // the lone worker is parked inside the cloud call
	for r := 0; r < queued; r++ {
		go func() { errs <- post(1+r*per, per) }()
	}
	for srv.Stats().QueueDepth < queued*per {
		time.Sleep(time.Millisecond)
	}
	close(bt.release)
	for r := 0; r <= queued; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("%d round trips, want 2: the parked one and one for the %d queued requests", n, queued)
	}
}

// TestARequestRidesOneRoundTrip: with every worker idle, a request's
// images go to one worker whole, so each request costs one round trip —
// idle workers share out requests, never the images of one.
func TestARequestRidesOneRoundTrip(t *testing.T) {
	cdln, data := testCDLN(t, 65)
	var calls atomic.Int64
	srv, err := NewServer(cdln, func() (Transport, error) {
		lb, err := NewLoopback(cdln)
		return countingTransport{inner: lb, calls: &calls}, err
	}, Config{SplitStage: 1, Delta: -1}, ServerConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	one := 1.0 // no early exit: every image crosses the link
	const requests, per = 20, 8
	for r := 0; r < requests; r++ {
		req := serve.ClassifyRequest{Delta: &one}
		for i := 0; i < per; i++ {
			req.Images = append(req.Images, data[r*per+i].X.Flatten().Data)
		}
		if code, got, err := postJSON(srv.Handler(), "/v1/classify", req); code != http.StatusOK || len(got) != per || err != nil {
			t.Fatalf("request %d: HTTP %d, %d results, %v", r, code, len(got), err)
		}
	}
	if n := calls.Load(); n != requests {
		t.Errorf("%d round trips for %d requests of %d images, want one each", n, requests, per)
	}
}

// TestSplitEntryRefusesWhatTheWireCannotCarry: a split entry refuses at
// admission every request the δ-only offload wire cannot carry — per-stage
// deltas, a max_exit or an ops_budget in the cloud's half, detail "trace",
// a resume — with 400, and never calls the transport; a cap below the
// split answers locally. A model or branch swap on it is refused too.
func TestSplitEntryRefusesWhatTheWireCannotCarry(t *testing.T) {
	cdln, data := testCDLN(t, 64)
	path := filepath.Join(t.TempDir(), "m.cdln")
	if err := modelio.SaveFile(path, cdln); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	srv, err := NewServer(cdln, func() (Transport, error) {
		lb, err := NewLoopback(cdln)
		return countingTransport{inner: lb, calls: &calls}, err
	}, Config{SplitStage: 1, Delta: -1}, ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	img := data[0].X.Flatten().Data
	one, capCloud, capLocal := 1.0, 1, 0
	budget := cdln.ExitOps()[1] // affords exit 1, in the cloud's half
	payload, err := wire.Encode(wire.Activation{Shape: []int{1, 12, 12}, Data: img}, wire.EncodingFloat64, fixed.Q2x13)
	if err != nil {
		t.Fatal(err)
	}
	policy := func(p serve.PolicyRequest) any {
		p.Delta = &one
		return serve.V2ClassifyRequest{Image: img, Policy: &p}
	}
	const classify = "/v2/models/default/classify"
	for _, tc := range []struct {
		name, path string
		body       any
		want       int
	}{
		{"stage_deltas", classify, policy(serve.PolicyRequest{StageDeltas: []float64{1, 1}}), http.StatusBadRequest},
		{"max_exit in the cloud's half", classify, policy(serve.PolicyRequest{MaxExit: &capCloud}), http.StatusBadRequest},
		{"ops_budget in the cloud's half", classify, policy(serve.PolicyRequest{OpsBudget: &budget}), http.StatusBadRequest},
		{`detail "trace"`, classify, policy(serve.PolicyRequest{Detail: serve.DetailTrace}), http.StatusBadRequest},
		{"resume", "/v2/models/default/resume", serve.V2ResumeRequest{Payloads: []string{base64.StdEncoding.EncodeToString(payload)}}, http.StatusBadRequest},
		{"max_exit below the split", classify, policy(serve.PolicyRequest{MaxExit: &capLocal}), http.StatusOK},
	} {
		before := srv.Stats().Invalid
		if code, _, err := postJSON(srv.Handler(), tc.path, tc.body); code != tc.want || err != nil {
			t.Errorf("%s: HTTP %d (%v), want %d", tc.name, code, err, tc.want)
		}
		if got := srv.Stats().Invalid - before; tc.want == http.StatusBadRequest && got != 1 {
			t.Errorf("%s: invalid counter +%d, want +1", tc.name, got)
		}
		if n := calls.Load(); n != 0 {
			t.Fatalf("%s: the transport was called %d times", tc.name, n)
		}
	}
	for _, route := range []string{"/v2/models/default", "/v2/models/default/branches/trunk"} {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPut, route, bytes.NewReader([]byte(`{"path":"`+path+`"}`))))
		if w.Code != http.StatusBadRequest || !bytes.Contains(w.Body.Bytes(), []byte("split entry")) {
			t.Errorf("PUT %s: HTTP %d %s, want 400 naming the split entry", route, w.Code, w.Body.Bytes())
		}
	}
}
