package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cdl/internal/core"
	"cdl/internal/nn"
	"cdl/internal/tensor"
	"cdl/internal/train"
)

// testCDLN trains a small two-tap cascade on a synthetic blob problem
// (mirrors internal/core's test fixture: 12×12 inputs, 3 classes, noise
// spread so some inputs exit early and some reach FC).
func testCDLN(t testing.TB, seed int64) (*core.CDLN, []train.Sample) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork([]int{1, 12, 12},
		nn.NewConv2D("C1", 1, 2, 3),
		nn.NewSigmoid("C1.act"),
		nn.NewMaxPool2D("P1", 2),
		nn.NewConv2D("C2", 2, 3, 2),
		nn.NewSigmoid("C2.act"),
		nn.NewMaxPool2D("P2", 2),
		nn.NewFlatten("flat"),
		nn.NewDense("FC", 3*2*2, 3),
		nn.NewSigmoid("FC.act"),
	)
	nn.InitNetwork(net, rng)
	arch := &nn.Arch{
		Name: "serve-test", Net: net,
		Taps: []int{3, 6}, TapNames: []string{"P1", "P2"},
		NumClasses: 3,
	}
	data := blobData(180, seed+1)
	cfg := train.Defaults(3)
	cfg.Epochs = 12
	cfg.BatchSize = 10
	if _, err := train.SGD(arch.Net, data, cfg); err != nil {
		t.Fatal(err)
	}
	bcfg := core.DefaultBuildConfig()
	bcfg.ForceAllStages = true
	cdln, _, err := core.Build(arch, data, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	return cdln, data
}

// blobData builds the 3-class blob-position problem with a hard noise tail.
// prefixOne runs the edge tier's share of a split on one input — a batch
// of one through the session's prefix walk — under a bare δ.
func prefixOne(sess *core.Session, x *tensor.T, split int, delta float64) core.PrefixResult {
	return sess.ClassifyPrefixBatchPolicy([]*tensor.T{x}, split, core.DeltaPolicy(delta))[0]
}

func blobData(n int, seed int64) []train.Sample {
	rng := rand.New(rand.NewSource(seed))
	centers := [][2]int{{3, 3}, {3, 8}, {8, 5}}
	out := make([]train.Sample, n)
	for i := range out {
		label := i % 3
		noise := 0.05
		if rng.Float64() < 0.3 {
			noise = 0.35
		}
		x := tensor.New(1, 12, 12)
		cy, cx := centers[label][0], centers[label][1]
		for y := 0; y < 12; y++ {
			for xx := 0; xx < 12; xx++ {
				d2 := float64((y-cy)*(y-cy) + (xx-cx)*(xx-cx))
				v := 1/(1+d2/3) + rng.NormFloat64()*noise
				if v < 0 {
					v = 0
				}
				if v > 1 {
					v = 1
				}
				x.Data[y*12+xx] = v
			}
		}
		out[i] = train.Sample{X: x, Label: label}
	}
	return out
}

// startServer builds a serve.Server over an httptest listener.
func startServer(t testing.TB, cdln *core.CDLN, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cdln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// classifyPath and resumePath are the data routes of the entry New
// registers.
const (
	classifyPath = "/v2/models/" + DefaultModelName + "/classify"
	resumePath   = "/v2/models/" + DefaultModelName + "/resume"
)

func postClassify(t testing.TB, url string, req V2ClassifyRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+classifyPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestServerMatchesEvaluate is the end-to-end identity check: batched
// classify results must be bit-identical to core.Evaluate's records on
// the same samples.
func TestServerMatchesEvaluate(t *testing.T) {
	cdln, data := testCDLN(t, 21)
	res, err := core.Evaluate(cdln, data, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, cdln, Config{Workers: 4})

	// Send in batches of 32 and compare per-sample.
	for lo := 0; lo < len(data); lo += 32 {
		hi := lo + 32
		if hi > len(data) {
			hi = len(data)
		}
		req := V2ClassifyRequest{Images: make([][]float64, 0, hi-lo)}
		for _, s := range data[lo:hi] {
			req.Images = append(req.Images, s.X.Flatten().Data)
		}
		status, body := postClassify(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("HTTP %d: %s", status, body)
		}
		var out V2ClassifyResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Count != hi-lo {
			t.Fatalf("count %d, want %d", out.Count, hi-lo)
		}
		for i, got := range out.Results {
			want := res.Records[lo+i]
			if got.Label != want.Label || got.Exit != want.StageName ||
				got.ExitIndex != want.StageIndex ||
				got.Confidence != want.Confidence || got.Ops != want.Ops {
				t.Fatalf("sample %d: server %+v != evaluate %+v", lo+i, got, want)
			}
		}
	}
}

// TestServerStatsz checks the live counters after serving traffic.
func TestServerStatsz(t *testing.T) {
	cdln, data := testCDLN(t, 22)
	srv, ts := startServer(t, cdln, Config{Workers: 2})

	req := V2ClassifyRequest{}
	for _, s := range data[:50] {
		req.Images = append(req.Images, s.X.Flatten().Data)
	}
	if status, body := postClassify(t, ts.URL, req); status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Images != 50 || st.Requests != 1 {
		t.Fatalf("stats %d images / %d requests, want 50/1", st.Images, st.Requests)
	}
	total := int64(0)
	for _, e := range st.Exits {
		total += e.Count
	}
	if total != 50 {
		t.Errorf("exit counts sum to %d, want 50", total)
	}
	if st.MeanOps <= 0 || st.MeanEnergyPJ <= 0 || st.BaselineEnergyPJ <= 0 {
		t.Errorf("cost counters not populated: %+v", st)
	}
	if st.NormalizedOps <= 0 || st.NormalizedOps > 1.5 {
		t.Errorf("normalized OPS %v implausible", st.NormalizedOps)
	}
	if got := srv.Stats(); got.Images != 50 {
		t.Errorf("Server.Stats images %d, want 50", got.Images)
	}

	// healthz reports the model identity.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["arch"] != "serve-test" {
		t.Errorf("healthz %v", h)
	}
}

// TestServerDeltaOverride exercises the §III.B runtime knob over HTTP: δ=1
// forces every input to FC; δ=0 exits every input at the first stage
// (threshold rule fires iff exactly one score ≥ δ... δ=0 passes when one
// class clears zero, which sigmoids always do for all classes, so use the
// model behaviour instead: δ=1 vs trained must differ in exit mix).
func TestServerDeltaOverride(t *testing.T) {
	cdln, data := testCDLN(t, 23)
	_, ts := startServer(t, cdln, Config{Workers: 2})

	one := 1.0
	req := V2ClassifyRequest{Policy: &PolicyRequest{Delta: &one}}
	for _, s := range data[:30] {
		req.Images = append(req.Images, s.X.Flatten().Data)
	}
	status, body := postClassify(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	var out V2ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if r.Exit != "FC" {
			t.Fatalf("sample %d: δ=1 exited at %s", i, r.Exit)
		}
	}

	// Trained thresholds: expect at least one early exit on this fixture.
	req.Policy = nil
	status, body = postClassify(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	early := 0
	for _, r := range out.Results {
		if r.Exit != "FC" {
			early++
		}
	}
	if early == 0 {
		t.Error("no early exits under trained thresholds; fixture degenerate")
	}
}

// TestServerConcurrent hammers the server from many goroutines and checks
// every response against the expected record (run under -race in CI).
func TestServerConcurrent(t *testing.T) {
	cdln, data := testCDLN(t, 24)
	res, err := core.Evaluate(cdln, data, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, cdln, Config{Workers: 4, MaxBatch: 8})

	const clients = 16
	const perClient = 25
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cl)))
			for k := 0; k < perClient; k++ {
				i := rng.Intn(len(data))
				req := V2ClassifyRequest{Image: data[i].X.Flatten().Data}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+classifyPath, "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				var out V2ClassifyResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				want := res.Records[i]
				got := out.Results[0]
				if got.Label != want.Label || got.Exit != want.StageName || got.Confidence != want.Confidence {
					errCh <- fmt.Errorf("client %d sample %d: %+v != %+v", cl, i, got, want)
					return
				}
			}
			errCh <- nil
		}(cl)
	}
	wg.Wait()
	for cl := 0; cl < clients; cl++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerBadRequests covers the 4xx/405 paths.
func TestServerBadRequests(t *testing.T) {
	cdln, data := testCDLN(t, 25)
	srv, ts := startServer(t, cdln, Config{Workers: 1, QueueDepth: 4})

	good := data[0].X.Flatten().Data
	bad := 2.0
	cases := []struct {
		name string
		req  V2ClassifyRequest
		want int
		// pad spaces follow the value; chunked declares no Content-Length.
		pad     int
		chunked bool
	}{
		{name: "empty", req: V2ClassifyRequest{}, want: http.StatusBadRequest},
		{name: "wrong width", req: V2ClassifyRequest{Image: []float64{1, 2, 3}}, want: http.StatusBadRequest},
		{name: "both forms", req: V2ClassifyRequest{Image: good, Images: [][]float64{good}}, want: http.StatusBadRequest},
		{name: "delta range", req: V2ClassifyRequest{Image: good, Policy: &PolicyRequest{Delta: &bad}}, want: http.StatusBadRequest},
		{name: "too many images", req: V2ClassifyRequest{Images: [][]float64{good, good, good, good, good}}, want: http.StatusBadRequest},
		// 40 KB of pixels against a 4-image bound of ~34 KB: the byte limit
		// decides, before the width check could see the image.
		{name: "body over the bound", req: V2ClassifyRequest{Image: make([]float64, 20000)}, want: http.StatusRequestEntityTooLarge},
		// The bound decides on length alone: a good request is refused once
		// padding carries it over, by its declared Content-Length before a
		// byte is read, or without one (chunked) when the bytes run past.
		{name: "declared length over the bound", req: V2ClassifyRequest{Image: good}, want: http.StatusRequestEntityTooLarge, pad: 64 << 10},
		{name: "chunked body over the bound", req: V2ClassifyRequest{Image: good}, want: http.StatusRequestEntityTooLarge, pad: 64 << 10, chunked: true},
	}
	// One verdict and one bump of the invalid counter per row.
	for _, tc := range cases {
		before := srv.Stats().Invalid
		if status, body := postPadded(t, ts.URL+classifyPath, tc.req, tc.pad, tc.chunked); status != tc.want {
			t.Errorf("%s: HTTP %d (%s), want %d", tc.name, status, body, tc.want)
		}
		if got := srv.Stats().Invalid; got != before+1 {
			t.Errorf("%s: invalid counter %d -> %d, want +1", tc.name, before, got)
		}
	}

	resp, err := http.Get(ts.URL + classifyPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET classify: HTTP %d, want 405", resp.StatusCode)
	}

	// Oversized body: rejected by the byte limit, well before the
	// image-count check could see it.
	huge := bytes.Repeat([]byte("9"), 8<<20)
	oresp, err := http.Post(ts.URL+classifyPath, "application/json",
		bytes.NewReader(append([]byte(`{"image":[`), huge...)))
	if err == nil {
		oresp.Body.Close()
		if oresp.StatusCode == http.StatusOK {
			t.Error("8MB body accepted")
		}
	}

	// Malformed JSON.
	mresp, err := http.Post(ts.URL+classifyPath, "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: HTTP %d, want 400", mresp.StatusCode)
	}

	if st := srv.Stats(); st.Invalid == 0 {
		t.Error("invalid-request counter not incremented")
	}
}

// TestPoolAllOrNothingAdmission checks that an oversized submit enqueues
// nothing: a rejected request must cost the saturated server no worker
// time. The pool has no workers, so the queue never drains underneath us.
func TestPoolAllOrNothingAdmission(t *testing.T) {
	p := newPool(nil, 4, 1, nil)
	defer p.close()
	mkJobs := func(n int) []*job {
		out := make([]*job, n)
		var wg sync.WaitGroup
		for i := range out {
			out[i] = &job{rec: &core.ExitRecord{}, wg: &wg}
		}
		return out
	}
	if err := p.submit(context.Background(), mkJobs(3)); err != nil {
		t.Fatal(err)
	}
	if err := p.submit(context.Background(), mkJobs(2)); err != ErrOverloaded {
		t.Fatalf("overflow submit: %v, want ErrOverloaded", err)
	}
	if d := p.depth(); d != 3 {
		t.Fatalf("queue depth %d after rejected submit, want 3 (partial enqueue)", d)
	}
	if err := p.submit(context.Background(), mkJobs(1)); err != nil {
		t.Fatalf("exact-fit submit rejected: %v", err)
	}
}

// TestPoolCollectNeverWaits pins work-conserving dispatch at collect
// itself: on an empty queue it returns the lone job it was handed — a
// collect that waited for company would block here, there is nobody to
// send any — and a job that arrives afterwards stays queued for the next
// batch.
func TestPoolCollectNeverWaits(t *testing.T) {
	p := newPool(nil, 4, 8, nil) // no workers: the test is the worker
	defer p.close()
	lone := &job{}
	batch := []*job{lone}
	p.collect(&batch)
	if len(batch) != 1 || batch[0] != lone {
		t.Fatalf("collect on an empty queue returned %d jobs, want the lone job it was given", len(batch))
	}
	var wg sync.WaitGroup
	if err := p.submit(context.Background(), []*job{{rec: &core.ExitRecord{}, wg: &wg}}); err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || p.depth() != 1 {
		t.Fatalf("late arrival: batch %d, queue depth %d, want 1 and 1", len(batch), p.depth())
	}
}

// TestPoolBatchesFormFromBacklog pins the other half: with the only
// replica held busy, N queued jobs leave as one batch of min(N, MaxBatch)
// and the rest as the next.
func TestPoolBatchesFormFromBacklog(t *testing.T) {
	cdln, data := testCDLN(t, 61)
	sess, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	const maxBatch = 4
	// emit runs before the group's waiters are released: the worker reports
	// the batch size and then sits in the callback until the test lets it go,
	// so the replica is provably busy while the next jobs queue.
	sizes, resume := make(chan int), make(chan struct{})
	p := newPool([]Walker{&sessionWalker{Session: sess}}, 16, maxBatch, func(_ []*job, batchSize int) {
		sizes <- batchSize
		<-resume
	})
	defer p.close()
	pol := core.DefaultExitPolicy()
	submit := func(n int) *sync.WaitGroup {
		var wg sync.WaitGroup
		jobs := make([]*job, n)
		for i := range jobs {
			jobs[i] = &job{x: data[i].X, pol: &pol, rec: &core.ExitRecord{}, wg: &wg}
		}
		if err := p.submit(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		return &wg
	}
	for _, tc := range []struct{ n, first, second int }{{3, 3, 0}, {4, 4, 0}, {6, 4, 2}} {
		warm := submit(1)
		if got := <-sizes; got != 1 {
			t.Fatalf("warm-up batch of %d, want 1", got)
		}
		wg := submit(tc.n) // queues behind the held replica
		resume <- struct{}{}
		warm.Wait()
		if got := <-sizes; got != tc.first {
			t.Fatalf("%d queued jobs left as a batch of %d, want %d", tc.n, got, tc.first)
		}
		resume <- struct{}{}
		if tc.second > 0 {
			if got := <-sizes; got != tc.second {
				t.Fatalf("%d queued jobs: second batch of %d, want %d", tc.n, got, tc.second)
			}
			resume <- struct{}{}
		}
		wg.Wait()
	}
}

// TestServerClosedRejects checks that classify after Close sheds load with
// 503 instead of panicking on the closed queue.
func TestServerClosedRejects(t *testing.T) {
	cdln, data := testCDLN(t, 26)
	srv, err := New(cdln, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Close()
	status, _ := postClassify(t, ts.URL, V2ClassifyRequest{Image: data[0].X.Flatten().Data})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("classify after Close: HTTP %d, want 503", status)
	}
	if st := srv.Stats(); st.Rejected != 1 {
		t.Errorf("rejected counter %d, want 1", st.Rejected)
	}
}

// BenchmarkServerClassify measures end-to-end single-image request
// throughput through the full HTTP + pool + session path.
func BenchmarkServerClassify(b *testing.B) {
	cdln, data := testCDLN(b, 27)
	_, ts := startServer(b, cdln, Config{Workers: 4})
	body, _ := json.Marshal(V2ClassifyRequest{Image: data[0].X.Flatten().Data})
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+classifyPath, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bytes.NewBuffer(nil).ReadFrom(resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
	}
}

// TestRetiredSurfaceIsGone pins what the server no longer offers: the /v1
// data routes are not routed, and a PUT that asks to make its entry the
// default is refused for the field, before the path is looked at.
func TestRetiredSurfaceIsGone(t *testing.T) {
	cdln, data := testCDLN(t, 28)
	srv, ts := startServer(t, cdln, Config{Workers: 1})
	for _, path := range []string{"/v1/classify", "/v1/resume"} {
		if status, body := postJSON(t, ts.URL+path, V2ClassifyRequest{Image: data[0].X.Flatten().Data}); status != http.StatusNotFound {
			t.Errorf("POST %s: HTTP %d (%s), want 404", path, status, body)
		}
	}
	status, body := putJSON(t, ts.URL+"/v2/models/"+DefaultModelName, map[string]any{"path": "absent.cdln", "default": true})
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte(`unknown field \"default\"`)) {
		t.Errorf(`PUT with "default": HTTP %d (%s), want 400 naming the unknown field`, status, body)
	}
	if m, err := srv.Registry().Get(DefaultModelName); err != nil || m.Version() != 1 {
		t.Errorf("after the refused PUT: %v, %v; want version 1 serving", m, err)
	}
}
