package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cdl/internal/core"
	"cdl/internal/edgecloud"
	"cdl/internal/mnist"
	"cdl/internal/modelio"
	"cdl/internal/serve"
	"cdl/internal/train"
)

// TestClientMatchesEvaluate pins what the verify recipes rely on: the exit
// counts and accuracy serveload reports equal core.Evaluate's (the serial
// oracle) on the same images exactly, and its mean normalized OPS to 1e-12,
// on the entry a bare -model path is named, on another name with a δ
// policy, and round robin across both. The model is the benchmark's
// MNIST_3C fixture, read in place, registered under both names.
func TestClientMatchesEvaluate(t *testing.T) {
	model, err := modelio.LoadFile("../../bench/testdata/mnist3c.cdln")
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Config{Workers: 2})
	for _, name := range []string{serve.DefaultModelName, "m3c"} {
		if _, err := reg.Register(name, model); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := serve.NewWithRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n, batch, seed = 300, 7, 3
	_, test, err := mnist.GenerateSamples(1, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		models []string
		delta  float64
	}{
		{[]string{serve.DefaultModelName}, -1},
		{[]string{"m3c"}, 0.5},
		{[]string{serve.DefaultModelName, "m3c"}, 1},
	} {
		oracle := model
		if tc.delta >= 0 {
			oracle = model.Clone()
			oracle.Delta, oracle.StageDeltas = tc.delta, nil
		}
		got, err := run(ts.URL, n, 3, batch, tc.delta, seed, tc.models)
		if err != nil {
			t.Fatalf("%q δ=%v: %v", tc.models, tc.delta, err)
		}
		if want := (n + batch - 1) / batch; len(got.Latencies) != want {
			t.Errorf("%q: %d latencies, want one per request (%d)", tc.models, len(got.Latencies), want)
		}
		correct, totalOps, baseOps := 0, 0.0, 0.0
		for k, m := range tc.models {
			var subset []train.Sample
			for r := k; r*batch < n; r += len(tc.models) {
				subset = append(subset, test[r*batch:min((r+1)*batch, n)]...)
			}
			want, err := core.Evaluate(oracle, subset, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			images := 0
			for e, name := range want.ExitNames {
				w := 0
				for _, c := range want.ExitCounts[e] {
					w += c
				}
				if got.Exits[m][name] != w {
					t.Errorf("%q δ=%v model %q exit %s: %d images, oracle %d", tc.models, tc.delta, m, name, got.Exits[m][name], w)
				}
				images += got.Exits[m][name]
			}
			if images != len(subset) {
				t.Errorf("%q model %q: %d images at the oracle's exits %v, sent %d (got %v)", tc.models, m, images, want.ExitNames, len(subset), got.Exits[m])
			}
			if len(tc.models) == 1 && float64(got.Correct)/n != want.Confusion.Accuracy() {
				t.Errorf("%q δ=%v: accuracy %v, oracle %v", tc.models, tc.delta, float64(got.Correct)/n, want.Confusion.Accuracy())
			}
			correct += want.Confusion.Correct()
			totalOps, baseOps = totalOps+want.TotalOps, want.BaselineOps
		}
		if got.Correct != correct {
			t.Errorf("%q δ=%v: %d correct, oracle %d", tc.models, tc.delta, got.Correct, correct)
		}
		if g, w := got.SumNormOps/n, totalOps/n/baseOps; math.Abs(g-w) > 1e-12 {
			t.Errorf("%q δ=%v: mean normalized OPS %v, oracle %v", tc.models, tc.delta, g, w)
		}
	}
}

// TestClientDrivesTheEdge: serveload drives an edge front (split 1, over an
// in-process loopback cloud) through its /v2/models/default/classify, and
// every number it reports equals CDLN.Classify's on the same images: the
// exit counts and the correct count exactly, mean normalized OPS to 1e-12.
func TestClientDrivesTheEdge(t *testing.T) {
	model, err := modelio.LoadFile("../../bench/testdata/mnist3c.cdln")
	if err != nil {
		t.Fatal(err)
	}
	edge, err := edgecloud.NewServer(model, func() (edgecloud.Transport, error) { return edgecloud.NewLoopback(model) },
		edgecloud.DefaultConfig(1), edgecloud.ServerConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	ts := httptest.NewServer(edge.Handler())
	defer ts.Close()

	const n, batch, seed = 200, 8, 5
	_, test, err := mnist.GenerateSamples(1, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []float64{-1, 0.95} {
		oracle := model
		if delta >= 0 {
			oracle = model.Clone()
			oracle.Delta, oracle.StageDeltas = delta, nil
		}
		got, err := run(ts.URL, n, 3, batch, delta, seed, []string{serve.DefaultModelName})
		if err != nil {
			t.Fatalf("δ=%v: %v", delta, err)
		}
		exits, correct, normOps := map[string]int{}, 0, 0.0
		for _, s := range test {
			rec := oracle.Classify(s.X)
			exits[rec.StageName]++
			if rec.Label == s.Label {
				correct++
			}
			normOps += rec.Ops / model.BaselineOps()
		}
		if fmt.Sprint(got.Exits[serve.DefaultModelName]) != fmt.Sprint(exits) || got.Correct != correct {
			t.Errorf("δ=%v: exits %v, %d correct; CDLN.Classify %v, %d", delta, got.Exits[serve.DefaultModelName], got.Correct, exits, correct)
		}
		if math.Abs(got.SumNormOps-normOps) > 1e-12*n {
			t.Errorf("δ=%v: Σ normalized OPS %v, CDLN.Classify %v", delta, got.SumNormOps, normOps)
		}
	}
	if st := edge.Stats(); st.Offloads == 0 || st.LocalExits == 0 {
		t.Errorf("%d offloads, %d local exits: want both tiers to answer", st.Offloads, st.LocalExits)
	}
}

// TestRunFailsOnRefusal: a server that answers 4xx fails the run, and the
// error names the status, even when the body would otherwise parse as one
// result per image; an empty model name fails it before anything is sent.
func TestRunFailsOnRefusal(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"results": [{"exit": "O1"}, {"exit": "O1"}, {"exit": "O1"}, {"exit": "O1"}]}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	for _, models := range [][]string{{serve.DefaultModelName}, {"m3c"}} {
		s, err := run(ts.URL, 20, 2, 4, -1, 1, models)
		if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
			t.Errorf("%q: run = %v, %v; want an HTTP 400 error", models, s, err)
		}
	}
	// An empty name would post to /v2/models//classify: refused unsent.
	if s, err := run(ts.URL, 20, 2, 4, -1, 1, []string{"m3c", ""}); err == nil || !strings.Contains(err.Error(), "every model named") {
		t.Errorf("an empty model name: run = %v, %v; want it refused", s, err)
	}
}
