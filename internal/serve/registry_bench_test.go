package serve

// registry_bench_test.go measures what the multi-model redesign costs on
// the hot path: named dispatch against a single-model process vs a 4-model
// process (round-robin): registry overhead is one RLock + map hit per
// request. Run them with
// `go test -run '^$' -bench Registry ./internal/serve`.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
)

// benchRegistryServer builds a server holding n copies of the fixture
// model under names m0..m{n-1}.
func benchRegistryServer(b *testing.B, n int) (*Server, *httptest.Server, [][]byte) {
	b.Helper()
	cdln, data := testCDLN(b, 81)
	cfg := Config{Workers: 2, MaxBatch: 8}
	reg := NewRegistry(cfg)
	for i := 0; i < n; i++ {
		if _, err := reg.Register(fmt.Sprintf("m%d", i), cdln); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := NewWithRegistry(reg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() { ts.Close(); srv.Close() })

	bodies := make([][]byte, 4)
	for k := range bodies {
		images := make([][]float64, 8)
		for i := range images {
			images[i] = data[(k*8+i)%len(data)].X.Flatten().Data
		}
		body, err := json.Marshal(V2ClassifyRequest{Images: images})
		if err != nil {
			b.Fatal(err)
		}
		bodies[k] = body
	}
	return srv, ts, bodies
}

// benchDispatch posts b.N 8-image requests round-robin over the given
// model names.
func benchDispatch(b *testing.B, ts *httptest.Server, bodies [][]byte, names []string) {
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := ts.URL + "/v2/models/" + names[i%len(names)] + "/classify"
		resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bytes.NewBuffer(nil).ReadFrom(resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	imgs := float64(b.N) * 8
	b.ReportMetric(imgs/b.Elapsed().Seconds(), "images/s")
}

// BenchmarkRegistryDispatchSingle is the baseline: one model, named v2
// dispatch.
func BenchmarkRegistryDispatchSingle(b *testing.B) {
	_, ts, bodies := benchRegistryServer(b, 1)
	benchDispatch(b, ts, bodies, []string{"m0"})
}

// BenchmarkRegistryDispatchMulti4 round-robins over four registry entries
// in one process — the per-request cost of multi-model dispatch vs the
// single-model baseline is the registry's overhead.
func BenchmarkRegistryDispatchMulti4(b *testing.B) {
	_, ts, bodies := benchRegistryServer(b, 4)
	benchDispatch(b, ts, bodies, []string{"m0", "m1", "m2", "m3"})
}
