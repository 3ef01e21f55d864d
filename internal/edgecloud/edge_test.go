package edgecloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/energy"
	"cdl/internal/modelio"
	"cdl/internal/nn"
	"cdl/internal/obs"
	"cdl/internal/serve"
	"cdl/internal/tensor"
	"cdl/internal/train"
)

// testCDLN trains the small two-tap blob cascade shared with the core and
// serve test suites: 12×12 inputs, 3 classes, a hard noise tail so the
// exit mix spans the cascade.
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
		Name: "edge-test", Net: net,
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

func sameRecord(a, b core.ExitRecord) bool {
	return a.StageIndex == b.StageIndex && a.StageName == b.StageName &&
		a.Label == b.Label && a.Confidence == b.Confidence && a.Ops == b.Ops
}

// reference returns the monolithic reference oracle (CDLN.Classify: serial,
// per layer) under a bare δ override (negative keeps the trained
// thresholds), expressed as the threshold of a private clone.
func reference(cdln *core.CDLN, delta float64) *core.CDLN {
	ref := cdln.Clone()
	if delta >= 0 {
		ref.Delta, ref.StageDeltas = delta, nil
	}
	return ref
}

// TestEdgeLoopbackIdentity is the subsystem-level identity check: with the
// lossless encoding, the full edge pipeline (prefix → wire encode → decode
// → resume) must agree bit-for-bit with the monolithic reference walk for
// every split stage and δ, and the per-tier energies must sum to the
// monolithic exit energy.
func TestEdgeLoopbackIdentity(t *testing.T) {
	cdln, data := testCDLN(t, 51)
	exits := energy.NewEvaluator().ExitEnergies(cdln)
	for _, delta := range []float64{-1, 0.9} {
		mono := reference(cdln, delta)
		for split := 0; split <= len(cdln.Stages); split++ {
			lb, err := NewLoopback(cdln)
			if err != nil {
				t.Fatal(err)
			}
			edge, err := New(cdln, lb, Config{SplitStage: split, Delta: -1})
			if err != nil {
				t.Fatal(err)
			}
			offloads := 0
			for i, s := range data {
				want := mono.Classify(s.X)
				res, err := edge.ClassifyDelta(s.X, delta)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRecord(res.Record, want) {
					t.Fatalf("split %d δ=%v sample %d: edge %+v != monolithic %+v",
						split, delta, i, res.Record, want)
				}
				if res.Offloaded != (want.StageIndex >= split) {
					t.Fatalf("split %d sample %d: offloaded=%v for exit %d", split, i, res.Offloaded, want.StageIndex)
				}
				if res.Offloaded {
					offloads++
					if res.WireBytes == 0 || res.LinkPJ == 0 {
						t.Fatalf("split %d: offload with no wire cost: %+v", split, res)
					}
				} else if res.WireBytes != 0 || res.LinkPJ != 0 || res.CloudPJ != 0 {
					t.Fatalf("split %d: local exit charged remote costs: %+v", split, res)
				}
				if got := res.EdgePJ + res.CloudPJ; got != exits[want.StageIndex] {
					t.Fatalf("split %d: edge %v + cloud %v != monolithic %v pJ",
						split, res.EdgePJ, res.CloudPJ, exits[want.StageIndex])
				}
			}
			if split == 0 && offloads != len(data) {
				t.Fatalf("split 0: %d/%d offloads", offloads, len(data))
			}
		}
	}
}

// TestEdgeQuantizedLink runs the fixed-point wire: payloads must shrink to
// roughly a quarter of the lossless size and predictions must stay close
// to monolithic (quantization noise on a [0,1] sigmoid activation at Q2.13
// resolution is tiny, but identity is no longer guaranteed).
func TestEdgeQuantizedLink(t *testing.T) {
	cdln, data := testCDLN(t, 52)
	mono, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLoopback(cdln)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := New(cdln, lb, Config{SplitStage: 1, Delta: -1, Encoding: wire.EncodingFixed})
	if err != nil {
		t.Fatal(err)
	}
	agree, offloads := 0, 0
	var fixedBytes int
	const strict = 0.9 // force offloads past the easy-exit thresholds
	for _, s := range data {
		want := mono.ClassifyDelta(s.X, strict)
		res, err := edge.ClassifyDelta(s.X, strict)
		if err != nil {
			t.Fatal(err)
		}
		if res.Offloaded {
			offloads++
			fixedBytes = res.WireBytes
		}
		if res.Record.Label == want.Label {
			agree++
		}
	}
	if offloads == 0 {
		t.Fatal("no offloads; fixture degenerate")
	}
	shape := cdln.Arch.Net.ShapeAt(cdln.SplitPos(1))
	numel := 1
	for _, d := range shape {
		numel *= d
	}
	lossless := wire.EncodedSize(len(shape), numel, wire.EncodingFloat64)
	if fixedBytes >= lossless/3 {
		t.Errorf("fixed payload %d B not ~4x smaller than lossless %d B", fixedBytes, lossless)
	}
	if frac := float64(agree) / float64(len(data)); frac < 0.95 {
		t.Errorf("quantized-link label agreement %.2f below 0.95", frac)
	}
}

// TestEdgeServerEndToEnd drives the full two-tier deployment over real
// HTTP: a cloud serve.Server, an edge Server offloading to it via
// HTTPTransport, and a client speaking the plain classify schema to the
// edge. Results must match monolithic evaluation; the tier counters must
// reconcile.
func TestEdgeServerEndToEnd(t *testing.T) {
	cdln, data := testCDLN(t, 53)
	res, err := core.Evaluate(cdln, data, 0, true)
	if err != nil {
		t.Fatal(err)
	}

	cloud, err := serve.New(cdln, serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cloudTS := httptest.NewServer(cloud.Handler())
	t.Cleanup(func() { cloudTS.Close(); cloud.Close() })

	edgeSrv, err := NewServer(cdln,
		func() (Transport, error) { return NewHTTPModelTransport(cloudTS.URL, serve.DefaultModelName), nil },
		Config{SplitStage: 1, Delta: -1},
		ServerConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	edgeTS := httptest.NewServer(edgeSrv.Handler())
	t.Cleanup(edgeTS.Close)

	req := serve.ClassifyRequest{}
	for _, s := range data[:60] {
		req.Images = append(req.Images, s.X.Flatten().Data)
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(edgeTS.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	var out serve.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 60 {
		t.Fatalf("count %d, want 60", out.Count)
	}
	for i, got := range out.Results {
		want := res.Records[i]
		if got.Label != want.Label || got.Exit != want.StageName ||
			got.ExitIndex != want.StageIndex || got.Confidence != want.Confidence {
			t.Fatalf("sample %d: edge-served %+v != monolithic %+v", i, got, want)
		}
		if got.EnergyPJ <= 0 {
			t.Fatalf("sample %d: no energy reported", i)
		}
	}

	st := edgeSrv.Stats()
	if st.Images != 60 || st.LocalExits+st.Offloads != 60 {
		t.Fatalf("edge stats %+v do not reconcile", st)
	}
	if st.Tier.Count != 60 || st.Tier.OffloadFraction != float64(st.Offloads)/60 {
		t.Fatalf("tier summary %+v does not reconcile", st.Tier)
	}
	if st.Offloads > 0 && (st.Tier.LinkPJ <= 0 || st.Tier.WireBytes <= 0) {
		t.Fatalf("offloads charged no link cost: %+v", st.Tier)
	}

	// Cloud side saw exactly the offloaded residue.
	cst := cloud.Stats()
	if cst.Images != st.Offloads {
		t.Fatalf("cloud served %d images, edge offloaded %d", cst.Images, st.Offloads)
	}
	if cst.ResumeRequests != st.Offloads {
		t.Fatalf("cloud resume requests %d, want %d", cst.ResumeRequests, st.Offloads)
	}

	// healthz reports the edge role and split.
	hr, err := http.Get(edgeTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["role"] != "edge" || h["split_stage"] != float64(1) || h["arch"] != "edge-test" {
		t.Errorf("healthz %v", h)
	}
}

// TestEdgeServerCloudDown maps transport failures to 502 and counts them.
func TestEdgeServerCloudDown(t *testing.T) {
	cdln, data := testCDLN(t, 54)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	edgeSrv, err := NewServer(cdln,
		func() (Transport, error) { return NewHTTPModelTransport(dead.URL, serve.DefaultModelName), nil },
		Config{SplitStage: 0, Delta: -1}, // split 0: every input must offload
		ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(edgeSrv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(serve.ClassifyRequest{Image: data[0].X.Flatten().Data})
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("HTTP %d, want 502", resp.StatusCode)
	}
	if st := edgeSrv.Stats(); st.CloudErrors != 1 {
		t.Errorf("cloud_errors %d, want 1", st.CloudErrors)
	}
}

// TestEdgeServerBadRequests covers the edge front's 4xx paths.
func TestEdgeServerBadRequests(t *testing.T) {
	cdln, data := testCDLN(t, 55)
	lbFactory := func() (Transport, error) { return NewLoopback(cdln) }
	edgeSrv, err := NewServer(cdln, lbFactory, Config{SplitStage: 1, Delta: -1},
		ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	good := data[0].X.Flatten().Data
	bad := 1.5
	tooMany := make([][]float64, 256+1) // the per-request cap is 256 images
	for i := range tooMany {
		tooMany[i] = good
	}
	cases := []struct {
		name string
		req  serve.ClassifyRequest
		want int
		// pad spaces follow the value; chunked declares no Content-Length.
		pad     int
		chunked bool
	}{
		{name: "empty", req: serve.ClassifyRequest{}, want: http.StatusBadRequest},
		{name: "wrong width", req: serve.ClassifyRequest{Image: []float64{1, 2}}, want: http.StatusBadRequest},
		{name: "both forms", req: serve.ClassifyRequest{Image: good, Images: [][]float64{good}}, want: http.StatusBadRequest},
		{name: "bad delta", req: serve.ClassifyRequest{Image: good, Delta: &bad}, want: http.StatusBadRequest},
		{name: "too many", req: serve.ClassifyRequest{Images: tooMany}, want: http.StatusBadRequest},
		// A wrong-width image in 8 MB against the 256-image body bound of
		// ~6.4 MB: the byte limit decides, before the width check could.
		{name: "body over the bound", req: serve.ClassifyRequest{Image: make([]float64, 20000)}, want: http.StatusRequestEntityTooLarge, pad: 8 << 20},
		// The bound decides on length alone: a good request is refused once
		// padding carries it over, by its declared Content-Length before a
		// byte is read, or without one (chunked) when the bytes run past.
		{name: "declared length over the bound", req: serve.ClassifyRequest{Image: good}, want: http.StatusRequestEntityTooLarge, pad: 8 << 20},
		{name: "chunked body over the bound", req: serve.ClassifyRequest{Image: good}, want: http.StatusRequestEntityTooLarge, pad: 8 << 20, chunked: true},
	}
	for _, tc := range cases {
		before := edgeSrv.Stats().Invalid
		body, _ := json.Marshal(tc.req)
		var rd io.Reader = bytes.NewReader(append(body, bytes.Repeat([]byte(" "), tc.pad)...))
		if tc.chunked {
			rd = struct{ io.Reader }{rd}
		}
		// Handler to handler: over a socket, a body refused unread holds
		// the connection's close for half a second.
		w := httptest.NewRecorder()
		edgeSrv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/classify", rd))
		if w.Code != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, w.Code, tc.want)
		}
		if got := edgeSrv.Stats().Invalid; got != before+1 {
			t.Errorf("%s: invalid counter %d -> %d, want +1", tc.name, before, got)
		}
	}
	w := httptest.NewRecorder()
	edgeSrv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/classify", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: HTTP %d, want 405", w.Code)
	}
	if st := edgeSrv.Stats(); st.Invalid == 0 {
		t.Error("invalid counter not incremented")
	}
}

// countingBatchTransport wraps a Loopback, counting round trips and the
// payloads they carried.
type countingBatchTransport struct {
	lb       *Loopback
	calls    int
	payloads int
}

func (c *countingBatchTransport) Resume(ps [][]byte, pol core.ExitPolicy, id string) ([]core.ExitRecord, []obs.Span, error) {
	c.calls++
	c.payloads += len(ps)
	return c.lb.Resume(ps, pol, id)
}

// TestClassifyBatchUsesBatchTransport checks that a batch's offloads
// travel through one Resume call — a batch of one included, where the
// round trip carries the one payload — with results bit-identical to the
// reference walk and in input order.
func TestClassifyBatchUsesBatchTransport(t *testing.T) {
	cdln, data := testCDLN(t, 57)
	const strict = 0.9 // force a local/offload mix
	ref := reference(cdln, strict)
	lb, err := NewLoopback(cdln)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*tensor.T, 40)
	for i := range xs {
		xs[i] = data[i].X
	}
	for _, bsz := range []int{1, len(xs)} {
		ct := &countingBatchTransport{lb: lb}
		edge, err := New(cdln, ct, Config{SplitStage: 1, Delta: -1})
		if err != nil {
			t.Fatal(err)
		}
		offloads, wantCalls := 0, 0
		for lo := 0; lo < len(xs); lo += bsz {
			results, err := edge.ClassifyBatchPolicy(xs[lo:lo+bsz], core.DeltaPolicy(strict))
			if err != nil {
				t.Fatal(err)
			}
			before := offloads
			for k, res := range results {
				if want := ref.Classify(xs[lo+k]); !res.Record.Equal(want) {
					t.Fatalf("batch %d sample %d: split %+v != reference %+v", bsz, lo+k, res.Record, want)
				}
				if res.Offloaded {
					offloads++
				}
			}
			if offloads > before {
				wantCalls++
			}
		}
		if offloads == 0 {
			t.Fatal("no offloads; fixture degenerate")
		}
		if ct.calls != wantCalls || ct.payloads != offloads {
			t.Fatalf("batch %d: transport saw %d calls carrying %d payloads, want %d carrying %d",
				bsz, ct.calls, ct.payloads, wantCalls, offloads)
		}
	}
}

// blockingTransport parks every round trip until released, signalling
// entry without ever blocking on the signal.
type blockingTransport struct {
	entered chan struct{}
	release chan struct{}
	lb      *Loopback
}

func (b *blockingTransport) Resume(ps [][]byte, pol core.ExitPolicy, id string) ([]core.ExitRecord, []obs.Span, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	return b.lb.Resume(ps, pol, id)
}

// TestEdgeServerShedsWhenBusy pins the load-shedding path: with the lone
// worker parked inside the cloud call and serve's bounded queue full (1 024
// images), the next request is shed at once with 503 + Retry-After, cause
// queue_full, instead of queueing unboundedly.
func TestEdgeServerShedsWhenBusy(t *testing.T) {
	cdln, data := testCDLN(t, 58)
	lb, err := NewLoopback(cdln)
	if err != nil {
		t.Fatal(err)
	}
	bt := &blockingTransport{entered: make(chan struct{}, 1), release: make(chan struct{}), lb: lb}
	edgeSrv, err := NewServer(cdln,
		func() (Transport, error) { return bt, nil },
		Config{SplitStage: 0, Delta: -1}, // split 0: every input offloads
		ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(edgeSrv.Handler())
	defer ts.Close()

	post := func(n int) (*http.Response, error) {
		req := serve.ClassifyRequest{}
		for i := 0; i < n; i++ {
			req.Images = append(req.Images, data[i%len(data)].X.Flatten().Data)
		}
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		return resp, err
	}
	const fill = 4 // requests at the 256-image cap: the 1 024-image queue
	done := make(chan error, 1+fill)
	go func() { _, err := post(1); done <- err }()
	<-bt.entered // the lone worker is now parked inside the cloud call
	for i := 0; i < fill; i++ {
		go func() { _, err := post(256); done <- err }()
	}
	for edgeSrv.Stats().QueueDepth < fill*256 {
		time.Sleep(time.Millisecond)
	}

	resp, err := post(1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("full queue: HTTP %d, Retry-After %q; want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	close(bt.release)
	for i := 0; i <= fill; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := edgeSrv.Stats()
	if st.Rejected != 1 || st.RejectedQueueFull != 1 {
		t.Errorf("rejected %d (queue_full %d), want 1", st.Rejected, st.RejectedQueueFull)
	}
	if want := int64(1 + fill*256); st.Images != want {
		t.Errorf("images %d, want %d (the shed request must not be classified)", st.Images, want)
	}
	var flights obs.FlightzResponse
	w := httptest.NewRecorder()
	edgeSrv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/flightz?limit=256", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &flights); err != nil {
		t.Fatal(err)
	}
	shed := 0
	for _, rec := range flights.Records {
		if rec.RejectCause == "queue_full" {
			shed++
		}
	}
	if shed != 1 {
		t.Errorf("%d flight records with cause queue_full, want 1", shed)
	}
}

// TestNewValidation covers Edge constructor rejection.
func TestNewValidation(t *testing.T) {
	cdln, _ := testCDLN(t, 56)
	lb, err := NewLoopback(cdln)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cdln, nil, Config{SplitStage: 1}); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := New(cdln, lb, Config{SplitStage: -1}); err == nil {
		t.Error("negative split accepted")
	}
	if _, err := New(cdln, lb, Config{SplitStage: len(cdln.Stages) + 1}); err == nil {
		t.Error("too-deep split accepted")
	}
	if _, err := New(cdln, lb, Config{SplitStage: 1, Delta: 1.5}); err == nil {
		t.Error("delta > 1 accepted")
	}
	if _, err := New(cdln, lb, Config{SplitStage: 1, Encoding: wire.Encoding(9)}); err == nil {
		t.Error("unknown encoding accepted")
	}
}

// flakyTransport drops every fourth round trip its inner transport would
// have made. Each edge worker builds its own, so trips is never shared.
type flakyTransport struct {
	inner Transport
	trips int
}

func (f *flakyTransport) Resume(ps [][]byte, pol core.ExitPolicy, id string) ([]core.ExitRecord, []obs.Span, error) {
	if f.trips++; f.trips%4 == 0 {
		return nil, nil, errors.New("link dropped")
	}
	return f.inner.Resume(ps, pol, id)
}

// TestEdgePixelsGoBackAfterTheWalk is the edge's side of
// serve.TestPixelsGoBackAfterTheLastReader: the edge gives a request's
// arena, its images included, back once the walk has returned and the
// response is written, whatever it answers. Several
// clients send images of their own, and 4xx refusals, through two edge
// workers to a cloud that is hot-swapped to the same weights mid-run and
// whose link drops every fourth round trip (502s); every 200 must be
// exactly CDLN.Classify of the images its client sent. Run under -race in
// CI.
func TestEdgePixelsGoBackAfterTheWalk(t *testing.T) {
	cdln, data := testCDLN(t, 59)
	path := filepath.Join(t.TempDir(), "m.cdln")
	if err := modelio.SaveFile(path, cdln); err != nil {
		t.Fatal(err)
	}
	cloud, err := serve.New(cdln, serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cloudTS := httptest.NewServer(cloud.Handler())
	t.Cleanup(func() { cloudTS.Close(); cloud.Close() })
	edgeSrv, err := NewServer(cdln,
		func() (Transport, error) {
			return &flakyTransport{inner: NewHTTPModelTransport(cloudTS.URL, serve.DefaultModelName)}, nil
		},
		Config{SplitStage: 1, Delta: 0.99}, ServerConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	edgeTS := httptest.NewServer(edgeSrv.Handler())
	t.Cleanup(edgeTS.Close)
	oracle := reference(cdln, 0.99)
	inShape := cdln.Arch.Net.InShape

	const clients, perClient, swaps = 5, 20, 4
	var mu sync.Mutex
	statuses := map[int]int{}
	errs := make(chan error, clients+1)
	var wg sync.WaitGroup
	wg.Add(clients + 1)
	swap, err := json.Marshal(serve.V2PutModelRequest{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer wg.Done()
		for k := 0; k < swaps; k++ {
			req, err := http.NewRequest(http.MethodPut, cloudTS.URL+"/v2/models/"+serve.DefaultModelName, bytes.NewReader(swap))
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("HTTP %d", resp.StatusCode)
				}
			}
			if err != nil {
				errs <- fmt.Errorf("swap %d: %v", k, err)
				return
			}
		}
	}()
	for c := 0; c < clients; c++ {
		// Each client's images, and the oracle's records of them, are made
		// before the traffic starts: CDLN.Classify is not concurrent.
		rng := rand.New(rand.NewSource(int64(c) + 1))
		type request struct {
			body   serve.ClassifyRequest
			expect []core.ExitRecord
		}
		reqs := make([]request, perClient)
		for k := range reqs {
			q := &reqs[k]
			for i := 0; i <= (c+k)%3; i++ {
				img := make([]float64, len(data[0].X.Data))
				for p, v := range data[rng.Intn(len(data))].X.Data {
					img[p] = v + 0.05*rng.NormFloat64()
				}
				q.body.Images = append(q.body.Images, img)
				q.expect = append(q.expect, oracle.Classify(tensor.FromSlice(img, inShape...)))
			}
			if k%5 == 3 { // a refusal: one image a pixel short, or a pixel long
				q.expect = nil
				if img := q.body.Images[0]; k%2 == 0 {
					q.body.Images[0] = img[:len(img)-1]
				} else {
					q.body.Images[0] = append(img, 0.5)
				}
			}
		}
		go func(c int) {
			defer wg.Done()
			for k, q := range reqs {
				body, err := json.Marshal(q.body)
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(edgeTS.URL+"/v1/classify", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var out serve.ClassifyResponse
				status := resp.StatusCode
				if status == http.StatusOK {
					err = json.NewDecoder(resp.Body).Decode(&out)
				}
				resp.Body.Close()
				switch {
				case err != nil:
				case q.expect == nil && status != http.StatusBadRequest:
					err = fmt.Errorf("a refusal answered HTTP %d", status)
				case q.expect != nil && status != http.StatusOK && status != http.StatusBadGateway && status != http.StatusServiceUnavailable:
					err = fmt.Errorf("HTTP %d", status)
				case status == http.StatusOK && len(out.Results) != len(q.expect):
					err = fmt.Errorf("%d results for %d images", len(out.Results), len(q.expect))
				}
				for i := 0; err == nil && status == http.StatusOK && i < len(out.Results); i++ {
					got, want := out.Results[i], q.expect[i]
					if got.Label != want.Label || got.ExitIndex != want.StageIndex || got.Exit != want.StageName || got.Confidence != want.Confidence {
						err = fmt.Errorf("image %d answered %+v, its own pixels classify as %+v", i, got, want)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("client %d request %d: %v", c, k, err)
					return
				}
				mu.Lock()
				statuses[status]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("answers by status: %v; %d offloads", statuses, edgeSrv.Stats().Offloads)
	if statuses[http.StatusOK] == 0 || statuses[http.StatusBadGateway] == 0 {
		t.Errorf("want both classified requests and dropped links, got %v", statuses)
	}
}
