package edgecloud

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/fixed"
	"cdl/internal/mnist"
	"cdl/internal/modelio"
	"cdl/internal/serve"
	"cdl/internal/tensor"
)

// TestRequestAllocs pins what one request allocates on serve's data path,
// through Handler() on warmed servers over the benchmark's MNIST_3C
// fixture: a 1-image and a 16-image /v2 classify and a framed /resume of 8
// split-1 activations on a cloud server, and an 8-image /v1/classify on an
// edge server (split 1, δ 0.95, so most of it offloads) whose cloud is a
// Loopback, and on one whose cloud is that server over HTTP. Each count is
// testing.AllocsPerRun's, which counts every goroutine's allocations:
// building the request and recording the answer included, and over HTTP
// the cloud's handling too. The request's jobs, headers, records,
// results, pixels and frame buffers come from its pooled arena, so a warm
// request allocates per request, not per input: 16 images cost fewer than
// 15 allocations more than one. Each count must also stay within its pin,
// which is the count measured on go1.24 (29, 39, 64, 47 and 132) plus a
// headroom of 5 to 7 for what net/http and httptest allocate under other
// Go releases.
func TestRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cdln, err := modelio.LoadFile("../../bench/testdata/mnist3c.cdln")
	if err != nil {
		t.Fatal(err)
	}
	_, test, err := mnist.GenerateSamples(1, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	images := make([][]float64, len(test))
	xs := make([]*tensor.T, len(test))
	for i, s := range test {
		images[i], xs[i] = s.X.Flatten().Data, s.X
	}
	cloud, err := serve.New(cdln, serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cloud.Close)
	edge, err := NewServer(cdln, func() (Transport, error) { return NewLoopback(cdln) },
		Config{SplitStage: 1, Delta: 0.95}, ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(edge.Close)
	cloudTS := httptest.NewServer(cloud.Handler())
	t.Cleanup(cloudTS.Close)
	overHTTP, err := NewServer(cdln, func() (Transport, error) { return NewHTTPModelTransport(cloudTS.URL, serve.DefaultModelName), nil },
		Config{SplitStage: 1, Delta: 0.95}, ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(overHTTP.Close)

	sess, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for _, pre := range sess.ClassifyPrefixBatchPolicy(xs[:8], 1, core.ExitPolicy{Delta: 2, MaxExit: -1}) {
		p, err := wire.Encode(wire.Activation{FromStage: pre.FromStage, Pos: pre.Pos, Shape: pre.Activation.Shape(), Data: pre.Activation.Data}, wire.EncodingFloat64, fixed.Format{})
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	frame, err := wire.AppendFrame(nil, []byte(`{}`), payloads)
	if err != nil {
		t.Fatal(err)
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	post := func(h http.Handler, path, contentType string, body []byte) func() {
		return func() {
			r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			r.Header.Set("Content-Type", contentType)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: HTTP %d %s", path, w.Code, w.Body)
			}
		}
	}
	const classify, resume = "/v2/models/" + serve.DefaultModelName + "/classify", "/v2/models/" + serve.DefaultModelName + "/resume"
	counts := make([]float64, 5)
	for i, tc := range []struct {
		name string
		run  func()
		pin  float64
	}{
		{"/v2 classify, 1 image", post(cloud.Handler(), classify, "application/json", marshal(serve.V2ClassifyRequest{Image: images[0]})), 34},
		{"/v2 classify, 16 images", post(cloud.Handler(), classify, "application/json", marshal(serve.V2ClassifyRequest{Images: images})), 44},
		{"edge /v1/classify, 8 images", post(edge.Handler(), "/v1/classify", "application/json", marshal(serve.ClassifyRequest{Images: images[:8]})), 71},
		{"framed /resume, 8 activations", post(cloud.Handler(), resume, wire.FrameContentType, frame), 54},
		{"edge /v1/classify, 8 images, HTTP cloud", post(overHTTP.Handler(), "/v1/classify", "application/json", marshal(serve.ClassifyRequest{Images: images[:8]})), 139},
	} {
		for k := 0; k < 20; k++ {
			tc.run()
		}
		counts[i] = testing.AllocsPerRun(100, tc.run)
		t.Logf("%s: %.0f allocations per request", tc.name, counts[i])
		if counts[i] > tc.pin {
			t.Errorf("%s: %.0f allocations per request, want <= %.0f", tc.name, counts[i], tc.pin)
		}
	}
	if extra := counts[1] - counts[0]; extra >= 15 {
		t.Errorf("15 more images cost %.0f more allocations: the data path allocates per input", extra)
	}
}
