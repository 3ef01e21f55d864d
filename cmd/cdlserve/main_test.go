package main

// main_test.go boots cdlserve in process through newServer, the code main
// runs, over the benchmark's MNIST_3C fixture: -model's grammar, the
// startup refusals, and split entries that answer every /v2 policy as a
// local entry does.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"cdl/internal/core"
	"cdl/internal/mnist"
	"cdl/internal/serve"
)

// fixture is the benchmark's MNIST_3C model: two trunk stages, trained δ
// 0.5.
const fixture = "../../bench/testdata/mnist3c.cdln"

// masked blanks what differs run to run (the stamps), energy_pj (a split
// entry's carries the link) and the span list (a split entry's spans are
// tier-prefixed), as edgecloud's TestSplitEntryAnswersLikeALocalEntry
// masks them, plus the entry name an answer echoes.
var masked = regexp.MustCompile(`"(trace_id|start_unix_ns|duration_ms|deadline_unix_ms|energy_pj|model)":("[^"]*"|[0-9.e+-]+)|"spans":\[[^\]]*\]`)

func TestModelFlag(t *testing.T) {
	for _, tc := range []struct {
		values []string
		want   []modelEntry
		err    string
	}{
		{[]string{"a=p@1"}, []modelEntry{{"a", "p", 1}}, ""},
		{[]string{"p@0"}, []modelEntry{{serve.DefaultModelName, "p", 0}}, ""},
		{[]string{"p", "b=q.cdln@2"}, []modelEntry{{serve.DefaultModelName, "p", -1}, {"b", "q.cdln", 2}}, ""},
		{[]string{"a=p@x"}, nil, `split "x"`},
		{[]string{"a=p@"}, nil, `split ""`},
		{[]string{"a=p@-1"}, nil, `split "-1"`},
		{[]string{"a=@1"}, nil, "empty model path"},
		{[]string{"a=p", "a=q@1"}, nil, `duplicate model name "a"`},
	} {
		var f modelFlag
		var err error
		for _, v := range tc.values {
			if err = f.Set(v); err != nil {
				break
			}
		}
		switch {
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: error %v, want one naming %s", tc.values, err, tc.err)
		case tc.err == "" && (err != nil || !reflect.DeepEqual([]modelEntry(f), tc.want)):
			t.Errorf("%q: entries %+v (%v), want %+v", tc.values, f, err, tc.want)
		}
	}
}

// TestStartupRefusals: a split past the model's trunk is refused at load,
// a split entry needs -cloud, and -cloud needs a split entry.
func TestStartupRefusals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		models []modelEntry
		cloud  string
		err    string
	}{
		{"split past the trunk", []modelEntry{{"a", fixture, 3}}, "http://127.0.0.1:1", "split stage 3 outside [0,2]"},
		{"split without -cloud", []modelEntry{{"a", fixture, 1}}, "", `-cloud "": a split -model entry (name=path@k) needs -cloud`},
		{"-cloud without a split", []modelEntry{{"a", fixture, -1}}, "http://127.0.0.1:1", `-cloud "http://127.0.0.1:1": a split -model entry`},
	} {
		srv, err := newServer(tc.models, options{delta: -1, cloud: tc.cloud, encoding: "float64", Config: serve.Config{Workers: 1}})
		if err == nil {
			srv.Close()
		}
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.err)
		}
	}
}

// boot starts newServer's server for models under o.
func boot(t *testing.T, models []modelEntry, o options) *serve.Server {
	t.Helper()
	if o.encoding == "" {
		o.encoding = "float64"
	}
	srv, err := newServer(models, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// post posts req to the entry's classify route and returns the masked
// answer of a 200.
func post(t *testing.T, srv *serve.Server, entry string, req serve.V2ClassifyRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v2/models/"+entry+"/classify", bytes.NewReader(b)))
	if w.Code != http.StatusOK {
		t.Fatalf("%s: HTTP %d %s", entry, w.Code, w.Body.Bytes())
	}
	return masked.ReplaceAll(w.Body.Bytes(), []byte("MASKED"))
}

// images returns n flattened MNIST test images.
func images(t *testing.T, n int) [][]float64 {
	t.Helper()
	_, test, err := mnist.GenerateSamples(1, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, n)
	for i, s := range test {
		out[i] = s.X.Flatten().Data
	}
	return out
}

// TestSplitEntriesAnswerLikeALocalEntry: one registry serves the fixture
// as a local entry "default" (and as s0, s1, s2 for the tails), and a
// second, over an HTTP server of the first, serves split entries s0, s1
// and s2 at splits 0, 1 and 2. Every /v2 policy gets the local entry's
// answer, byte for byte, from every split entry, and each split entry's
// offloads resume on the cloud entry of its own name.
func TestSplitEntriesAnswerLikeALocalEntry(t *testing.T) {
	cloud := boot(t, []modelEntry{
		{serve.DefaultModelName, fixture, -1}, {"s0", fixture, -1}, {"s1", fixture, -1}, {"s2", fixture, -1},
	}, options{delta: -1, Config: serve.Config{Workers: 2}})
	cloudTS := httptest.NewServer(cloud.Handler())
	t.Cleanup(cloudTS.Close)
	edge := boot(t, []modelEntry{{"s0", fixture, 0}, {"s1", fixture, 1}, {"s2", fixture, 2}},
		options{delta: -1, Config: serve.Config{Workers: 2}, cloud: cloudTS.URL})

	local, err := cloud.Registry().Get(serve.DefaultModelName)
	if err != nil {
		t.Fatal(err)
	}
	imgs := images(t, 34)
	d, strict, capAt, budget := 0.7, 0.999, 1, core.LinearGraph(local.CDLN()).ExitOps()[1]
	reqs := []serve.V2ClassifyRequest{{Image: imgs[0]}, {Images: imgs[:24]}}
	for _, pol := range []*serve.PolicyRequest{
		{Delta: &d},
		{Detail: serve.DetailLabel},
		{Delta: &strict, MaxExit: &capAt, Detail: serve.DetailTrace},
		{StageDeltas: []float64{strict, -1}},
		{Delta: &d, MaxExit: &capAt},
		{Delta: &d, OpsBudget: &budget},
		{Delta: &d, Detail: serve.DetailTrace},
	} {
		reqs = append(reqs, serve.V2ClassifyRequest{Images: imgs[24:], Policy: pol})
	}
	reqs = append(reqs, serve.V2ClassifyRequest{Image: imgs[5], Policy: reqs[4].Policy, TimeoutMS: 60_000})

	for split := 0; split <= 2; split++ {
		name := fmt.Sprintf("s%d", split)
		for i, req := range reqs {
			if want, got := post(t, cloud, serve.DefaultModelName, req), post(t, edge, name, req); !bytes.Equal(got, want) {
				t.Errorf("%s request %d:\nsplit: %s\nlocal: %s", name, i, got, want)
			}
		}
		m, err := edge.Registry().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tail, err := cloud.Registry().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if off, resumed := m.Stats().Tier.Offloaded, tail.Stats().Images; off == 0 || resumed != off {
			t.Errorf("%s: %d images offloaded, %d resumed on the cloud entry %s", name, off, resumed, name)
		}
	}
}

// TestSplitEntryDeltaIsItsPolicy: -delta on a split entry is the δ its
// requests run and forward whenever they set none — without a policy, or
// under one that sets only detail or a depth cap — in front of a cloud that
// runs the trained δ (0.5): they get what a local entry loaded under
// -delta 0.9 answers, and /healthz reports 0.9. Were -delta to override
// the model's thresholds, the entry would forward the trained δ and the
// cloud's tail would run it.
func TestSplitEntryDeltaIsItsPolicy(t *testing.T) {
	cloud := boot(t, []modelEntry{{serve.DefaultModelName, fixture, -1}}, options{delta: -1, Config: serve.Config{Workers: 2}})
	cloudTS := httptest.NewServer(cloud.Handler())
	t.Cleanup(cloudTS.Close)
	local := boot(t, []modelEntry{{serve.DefaultModelName, fixture, -1}}, options{delta: 0.9, Config: serve.Config{Workers: 2}})
	edge := boot(t, []modelEntry{{serve.DefaultModelName, fixture, 1}}, options{delta: 0.9, Config: serve.Config{Workers: 2}, cloud: cloudTS.URL})

	imgs := images(t, 32)
	capAt := 1
	for _, req := range []serve.V2ClassifyRequest{
		{Image: imgs[12]}, {Images: imgs},
		{Images: imgs, Policy: &serve.PolicyRequest{Detail: serve.DetailTrace}},
		{Images: imgs, Policy: &serve.PolicyRequest{MaxExit: &capAt}},
	} {
		if want, got := post(t, local, serve.DefaultModelName, req), post(t, edge, serve.DefaultModelName, req); !bytes.Equal(got, want) {
			t.Errorf("split entry at -delta 0.9:\n%s\nlocal entry at -delta 0.9:\n%s", got, want)
		}
	}
	if st := edge.Stats(); st.Tier == nil || st.Tier.Offloaded == 0 {
		t.Fatalf("nothing offloaded: %+v", st.Tier)
	}
	w := httptest.NewRecorder()
	edge.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h struct {
		Delta float64
		Split *serve.SplitInfo
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil || h.Delta != 0.9 || h.Split == nil || h.Split.CloudModel != serve.DefaultModelName {
		t.Errorf("healthz %s (%v): want δ 0.9 and a split resuming on %q", w.Body.Bytes(), err, serve.DefaultModelName)
	}
}
