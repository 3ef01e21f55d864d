package edgecloud

// split_test.go pins the edge front as a serve split entry: under every
// /v2 policy it answers what an Edge answers on the same inputs, and over
// the lossless wire what a local entry answers; queued requests share one
// micro-batch and so one round trip, and idle workers never split a
// request into several; and /resume and a swap are refused at admission,
// before the transport is ever called.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/fixed"
	"cdl/internal/modelio"
	"cdl/internal/obs"
	"cdl/internal/serve"
	"cdl/internal/train"
)

// countingTransport counts the round trips of the transport it wraps.
type countingTransport struct {
	inner Transport
	calls *atomic.Int64
}

func (c countingTransport) Resume(ps [][]byte, pol core.ExitPolicy, id string) ([]core.ExitRecord, []obs.Span, error) {
	c.calls.Add(1)
	return c.inner.Resume(ps, pol, id)
}

// answer is the part of a /v1 or /v2 result the split entry must get
// bit-for-bit right.
type answer struct {
	Label            int       `json:"label"`
	Exit             string    `json:"exit"`
	ExitIndex        int       `json:"exit_index"`
	Confidence       float64   `json:"confidence"`
	Ops              float64   `json:"ops"`
	NormalizedOps    float64   `json:"normalized_ops"`
	EnergyPJ         float64   `json:"energy_pj"`
	StageConfidences []float64 `json:"stage_confidences"`
}

// post posts body to path on h and returns the status and the body.
func post(h http.Handler, path string, body any) (int, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	return w.Code, w.Body.Bytes(), nil
}

// postJSON posts body to path on h and decodes a 200's results.
func postJSON(h http.Handler, path string, body any) (int, []answer, error) {
	code, b, err := post(h, path, body)
	var out struct{ Results []answer }
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(b, &out)
	}
	return code, out.Results, err
}

// policyCase is one /v2 policy and the core policy it resolves to.
type policyCase struct {
	name string
	req  *serve.PolicyRequest
	pol  core.ExitPolicy
}

// policyCases is the /v2 policy set a split entry answers as a local entry
// does, on a graph whose trunk has two stages: the golden set's (none, a
// δ, label detail, a δ no stage clears under a depth cap with detail
// "trace"), and per-stage δs with a keep entry, a max_exit and an
// ops_budget in the cloud's half of a split-1 cascade, and detail "trace".
func policyCases(t testing.TB, g *core.Graph, delta float64) []policyCase {
	t.Helper()
	d, strict, capAt := delta, 0.999, 1
	budget := g.ExitOps()[1]
	byOps, err := g.MaxExitForOps(budget)
	if err != nil {
		t.Fatal(err)
	}
	return []policyCase{
		{"trained", nil, core.DefaultExitPolicy()},
		{"delta", &serve.PolicyRequest{Delta: &d}, core.DeltaPolicy(d)},
		{"label", &serve.PolicyRequest{Detail: serve.DetailLabel}, core.DefaultExitPolicy()},
		{"shaped trace", &serve.PolicyRequest{Delta: &strict, MaxExit: &capAt, Detail: serve.DetailTrace},
			core.ExitPolicy{Delta: strict, MaxExit: capAt, Trace: true}},
		{"stage_deltas", &serve.PolicyRequest{StageDeltas: []float64{strict, -1}},
			core.ExitPolicy{Delta: -1, MaxExit: -1, StageDeltas: []float64{strict, -1}}},
		{"max_exit", &serve.PolicyRequest{Delta: &d, MaxExit: &capAt}, core.ExitPolicy{Delta: d, MaxExit: capAt}},
		{"ops_budget", &serve.PolicyRequest{Delta: &d, OpsBudget: &budget}, core.ExitPolicy{Delta: d, MaxExit: byOps}},
		{"trace", &serve.PolicyRequest{Delta: &d, Detail: serve.DetailTrace}, core.ExitPolicy{Delta: d, MaxExit: -1, Trace: true}},
	}
}

// TestSplitEntryMatchesTheEdge: every image posted to the edge front's
// /v2/models/default/classify answers, under every policy of policyCases,
// exactly what Edge.ClassifyBatchPolicy gives the same input under the
// policy it resolves to — label, exit, exit index, confidence, ops,
// normalized ops, energy and stage confidences, bitwise — and /v1/classify
// does under a bare δ, for splits 0, 1 and the whole trunk, both wire
// encodings, a linear cascade and a routed graph. Run under -race in CI.
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
				cfg := Config{SplitStage: split, Delta: -1, Encoding: enc}
				lb, err := NewGraphLoopback(gc.g)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := NewGraph(gc.g, lb, cfg)
				if err != nil {
					t.Fatal(err)
				}
				srv, err := NewGraphServer(gc.g, func() (Transport, error) { return NewGraphLoopback(gc.g) }, cfg, ServerConfig{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				images, offloads := 0, 0
				// check posts xs in requests of 8 and compares each answer
				// with the oracle's record under pol.
				check := func(name, path string, pol core.ExitPolicy, label bool, body func([][]float64) any) {
					want, err := oracle.ClassifyBatchPolicy(xs, pol)
					if err != nil {
						t.Fatal(err)
					}
					for lo := 0; lo < len(xs); lo += 8 {
						batch := make([][]float64, 8)
						for i := range batch {
							batch[i] = xs[lo+i].Data
						}
						code, got, err := postJSON(srv.Handler(), path, body(batch))
						if len(got) != len(batch) {
							t.Fatalf("%s: HTTP %d (%v), %d results for %d images", name, code, err, len(got), len(batch))
						}
						for i, res := range want[lo : lo+len(batch)] {
							rec := res.Record
							exp := answer{rec.Label, rec.StageName, rec.StageIndex, rec.Confidence, rec.Ops, rec.Ops / trunk.BaselineOps(), res.TotalPJ(), rec.Trace}
							if label {
								exp.Ops, exp.NormalizedOps, exp.EnergyPJ = 0, 0, 0
							}
							if !reflect.DeepEqual(got[i], exp) {
								t.Errorf("%s image %d: split entry %+v, edge %+v", name, lo+i, got[i], exp)
							}
							if res.Offloaded {
								offloads++
							}
						}
					}
					images += len(xs)
				}
				prefix := fmt.Sprintf("%s split %d %s", gc.name, split, enc)
				d := gc.delta
				check(prefix+" /v1 delta", "/v1/classify", core.DeltaPolicy(d), false, func(batch [][]float64) any {
					return serve.ClassifyRequest{Images: batch, Delta: &d}
				})
				for _, pc := range policyCases(t, gc.g, d) {
					check(prefix+" "+pc.name, "/v2/models/default/classify", pc.pol, pc.req != nil && pc.req.Detail == serve.DetailLabel,
						func(batch [][]float64) any { return serve.V2ClassifyRequest{Images: batch, Policy: pc.req} })
				}
				if st := srv.Stats(); st.Offloads != int64(offloads) || st.Images != int64(images) {
					t.Errorf("%s: statsz %d offloads of %d images, want %d of %d", prefix, st.Offloads, st.Images, offloads, images)
				}
				srv.Close()
			}
		}
	}
}

// TestSplitEntryAnswersLikeALocalEntry replays the /v2 classify requests
// of serve's golden set (one image, a batch, a δ, label detail, and the
// shaped trace under a timeout) and the rest of policyCases against a
// split entry at splits 0, 1 and the whole trunk, whose cloud is a
// Loopback in one run and a serve cloud over HTTP in the other, so the
// policy crosses a real wire. Over the lossless encoding every answer is
// the local entry's byte for byte, with three things masked: the
// run-to-run stamps the goldens mask, energy_pj (it carries the link), and
// the span list (the split's spans are tier-prefixed by design).
func TestSplitEntryAnswersLikeALocalEntry(t *testing.T) {
	cdln, data := testCDLN(t, 66)
	routed, rdata := routedEdgeGraph(t, 67)
	masked := regexp.MustCompile(`"(trace_id|start_unix_ns|duration_ms|deadline_unix_ms|energy_pj)":("[^"]*"|[0-9.e+-]+)|"spans":\[[^\]]*\]`)
	for _, gc := range []struct {
		name string
		g    *core.Graph
		data []train.Sample
	}{
		{"linear", core.LinearGraph(cdln), data},
		{"routed", routed, rdata},
	} {
		reg := serve.NewRegistry(serve.Config{Workers: 2})
		if _, err := reg.RegisterGraph(serve.DefaultModelName, gc.g); err != nil {
			t.Fatal(err)
		}
		local, err := serve.NewWithRegistry(reg)
		if err != nil {
			t.Fatal(err)
		}
		cloudTS := httptest.NewServer(local.Handler())
		img := func(i int) []float64 { return gc.data[i].X.Data }
		batch, small := make([][]float64, 24), make([][]float64, 10)
		for i := range batch {
			batch[i] = img(i)
		}
		for i := range small {
			small[i] = img(40 + i)
		}
		reqs := []serve.V2ClassifyRequest{{Image: img(3)}, {Images: batch}}
		for _, pc := range policyCases(t, gc.g, 0.7) {
			reqs = append(reqs, serve.V2ClassifyRequest{Images: small, Policy: pc.req})
			if pc.name == "shaped trace" {
				reqs = append(reqs, serve.V2ClassifyRequest{Image: img(5), Policy: pc.req, TimeoutMS: 60_000})
			}
		}
		for split := 0; split <= len(gc.g.Trunk().Stages); split++ {
			for _, tc := range []struct {
				name string
				new  func() (Transport, error)
			}{
				{"loopback", func() (Transport, error) { return NewGraphLoopback(gc.g) }},
				{"http", func() (Transport, error) { return NewHTTPModelTransport(cloudTS.URL, serve.DefaultModelName), nil }},
			} {
				name := fmt.Sprintf("%s split %d %s", gc.name, split, tc.name)
				srv, err := NewGraphServer(gc.g, tc.new, Config{SplitStage: split, Delta: -1}, ServerConfig{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				for i, req := range reqs {
					wantCode, want, err1 := post(local.Handler(), "/v2/models/default/classify", req)
					code, got, err2 := post(srv.Handler(), "/v2/models/default/classify", req)
					if err1 != nil || err2 != nil || wantCode != http.StatusOK || code != http.StatusOK {
						t.Fatalf("%s request %d: HTTP %d (%v) local, %d (%v) split: %s", name, i, wantCode, err1, code, err2, got)
					}
					want, got = masked.ReplaceAll(want, []byte("MASKED")), masked.ReplaceAll(got, []byte("MASKED"))
					if !bytes.Equal(got, want) {
						t.Errorf("%s request %d:\nsplit: %s\nlocal: %s", name, i, got, want)
					}
				}
				if st := srv.Stats(); st.Offloads == 0 {
					t.Errorf("%s: nothing offloaded", name)
				}
				srv.Close()
			}
		}
		cloudTS.Close()
		local.Close()
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

// TestSplitEntryRefusesResumeAndSwap: a split entry's tail runs on
// another tier, so it refuses a resume at admission with 400 and never
// calls the transport, and it refuses a model or branch swap.
func TestSplitEntryRefusesResumeAndSwap(t *testing.T) {
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
	payload, err := wire.Encode(wire.Activation{Shape: []int{1, 12, 12}, Data: data[0].X.Flatten().Data}, wire.EncodingFloat64, fixed.Q2x13)
	if err != nil {
		t.Fatal(err)
	}
	body := serve.V2ResumeRequest{Payloads: []string{base64.StdEncoding.EncodeToString(payload)}}
	if code, _, err := postJSON(srv.Handler(), "/v2/models/default/resume", body); code != http.StatusBadRequest || err != nil {
		t.Errorf("resume: HTTP %d (%v), want 400", code, err)
	}
	if got := srv.Stats().Invalid; got != 1 {
		t.Errorf("resume: invalid counter %d, want 1", got)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("resume: the transport was called %d times", n)
	}
	for _, route := range []string{"/v2/models/default", "/v2/models/default/branches/trunk"} {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPut, route, bytes.NewReader([]byte(`{"path":"`+path+`"}`))))
		if w.Code != http.StatusBadRequest || !bytes.Contains(w.Body.Bytes(), []byte("split entry")) {
			t.Errorf("PUT %s: HTTP %d %s, want 400 naming the split entry", route, w.Code, w.Body.Bytes())
		}
	}
}
