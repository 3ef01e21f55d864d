package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cdl/internal/mnist"
	"cdl/internal/modelio"
	"cdl/internal/serve"
)

// TestRoutedRequestAllocs pins what one routed request allocates: a
// 1-image /v2 classify through Router.Handler() to an httptest backend
// serving the benchmark's MNIST_3C fixture. testing.AllocsPerRun counts
// every goroutine's allocations, so the count takes in building the
// request, the router's forward and relay, and the backend's own handling
// over a real loopback connection. Probes run once an hour, so none lands
// in the measurement. The pin is the count measured on go1.24 (59) plus a
// headroom of 7 for what net/http and httptest allocate under other Go
// releases.
func TestRoutedRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cdln, err := modelio.LoadFile("../../bench/testdata/mnist3c.cdln")
	if err != nil {
		t.Fatal(err)
	}
	_, test, err := mnist.GenerateSamples(1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	backend, err := serve.New(cdln, serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(backend.Handler())
	rt, err := New(Config{Backends: []string{ts.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close(); ts.Close(); backend.Close() })
	body, err := json.Marshal(serve.V2ClassifyRequest{Image: test[0].X.Flatten().Data})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		r := httptest.NewRequest(http.MethodPost, classifyPath, bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("HTTP %d %s", w.Code, w.Body)
		}
	}
	for k := 0; k < 20; k++ {
		run()
	}
	const pin = 66
	n := testing.AllocsPerRun(100, run)
	t.Logf("routed /v2 classify, 1 image: %.0f allocations per request", n)
	if n > pin {
		t.Errorf("routed /v2 classify, 1 image: %.0f allocations per request, want <= %d", n, pin)
	}
}
