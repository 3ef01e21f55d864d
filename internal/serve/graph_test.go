package serve

// graph_test.go covers the serve layer's routed-graph surface: a ≥2-branch
// tree registered and served through /v2, branch metadata on the model
// listing, per-branch exit distribution on /statsz, and the acceptance
// test for branch-granular hot-swap — one branch subnetwork replaced via
// PUT /v2/models/{model}/branches/{branch} under sustained classify load
// with zero dropped requests (run under -race in CI).

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"cdl/internal/core"
	"cdl/internal/linclass"
	"cdl/internal/modelio"
	"cdl/internal/nn"
	"cdl/internal/opcount"
	"cdl/internal/train"
)

// branchCDLN builds an untrained branch cascade over the trunk's tap-3
// shape [2,5,5] (testCDLN's P1 output). Untrained is fine here: the serve
// tests exercise routing mechanics and swap atomicity, not accuracy.
func branchCDLN(seed int64, classes int) *core.CDLN {
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork([]int{2, 5, 5},
		nn.NewConv2D("B1", 2, 2, 2),
		nn.NewSigmoid("B1.act"),
		nn.NewFlatten("B.flat"),
		nn.NewDense("BFC", 2*4*4, classes),
		nn.NewSigmoid("BFC.act"),
	)
	nn.InitNetwork(net, rng)
	arch := &nn.Arch{
		Name: "serve-branch", Net: net,
		Taps: []int{2}, TapNames: []string{"B1"},
		NumClasses: classes,
	}
	return &core.CDLN{
		Arch:   arch,
		Stages: []*core.Stage{{Name: "O1", Tap: 2, LC: linclass.New(2*4*4, classes, rng), Gain: 1}},
		Delta:  0.5,
		Rule:   core.ThresholdRule{},
		Ops:    opcount.Default(),
	}
}

// routedServeGraph wraps testCDLN's trained trunk in a two-branch tree:
// stage 0 routes class 0 to "lo" (classes {0,1}) and class 2 to "hi"
// (class {2}), class 1 continuing down the trunk. The trunk's rule is
// forced to threshold so a δ close to 1 suppresses stage exits and pushes
// traffic through the router (threshold exits only on exactly one
// over-δ score).
func routedServeGraph(t testing.TB, seed int64) (*core.Graph, []train.Sample) {
	t.Helper()
	trunk, data := testCDLN(t, seed)
	trunk.Rule = core.ThresholdRule{}
	g := &core.Graph{Nodes: []*core.Node{
		{
			Name:   "trunk",
			Model:  trunk,
			Routes: []core.Route{{Stage: 0, Branch: []int{1, -1, 2}}},
		},
		{Name: "lo", Model: branchCDLN(seed+100, 2), Labels: []int{0, 1}},
		{Name: "hi", Model: branchCDLN(seed+200, 1), Labels: []int{2}},
	}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g, data
}

// routingDelta forces the threshold rule past every trunk stage exit so
// the router actually dispatches (scores rarely clear 0.999).
const routingDelta = 0.999

func newRoutedServer(t *testing.T, seed int64) (*httptest.Server, *Server, []train.Sample) {
	t.Helper()
	g, data := routedServeGraph(t, seed)
	reg := NewRegistry(Config{Workers: 4, MaxBatch: 8})
	if _, err := reg.RegisterGraph(DefaultModelName, g); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, srv, data
}

// v2ClassifyNodes posts one batch through /v2 with the routing δ and
// returns the node that resolved each image.
func v2ClassifyNodes(t *testing.T, ts *httptest.Server, data []train.Sample, n, off int) []int {
	t.Helper()
	images := make([][]float64, n)
	for i := range images {
		images[i] = data[(off+i)%len(data)].X.Flatten().Data
	}
	delta := routingDelta
	status, body := postJSON(t, ts.URL+"/v2/models/"+DefaultModelName+"/classify",
		V2ClassifyRequest{Images: images, Policy: &PolicyRequest{Delta: &delta}})
	if status != http.StatusOK {
		t.Fatalf("classify: HTTP %d: %s", status, body)
	}
	var resp V2ClassifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != n {
		t.Fatalf("classify returned %d results for %d images", len(resp.Results), n)
	}
	nodes := make([]int, n)
	for i, r := range resp.Results {
		nodes[i] = r.Node
	}
	return nodes
}

// TestServeRoutedGraphV2 is the serving smoke test for routed models: the
// model listing exposes the branch topology, classify responses attribute
// each image to the node that resolved it, and /statsz aggregates the
// exit distribution per branch.
func TestServeRoutedGraphV2(t *testing.T) {
	ts, srv, data := newRoutedServer(t, 71)

	// Branch metadata on the model listing.
	resp, err := http.Get(ts.URL + "/v2/models/" + DefaultModelName)
	if err != nil {
		t.Fatal(err)
	}
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(info.Branches) != 2 {
		t.Fatalf("model listing reports %d branches, want 2: %+v", len(info.Branches), info.Branches)
	}
	byName := map[string][]int{}
	for _, b := range info.Branches {
		byName[b.Name] = b.Labels
	}
	if fmt.Sprint(byName["lo"]) != "[0 1]" || fmt.Sprint(byName["hi"]) != "[2]" {
		t.Fatalf("branch labels drifted: %v", byName)
	}

	// Under the routing δ some traffic must resolve off-trunk, and the
	// node attribution must be a valid node index.
	seen := map[int]int{}
	for off := 0; off < 120; off += 24 {
		for _, node := range v2ClassifyNodes(t, ts, data, 24, off) {
			if node < 0 || node > 2 {
				t.Fatalf("result attributed to node %d outside the graph", node)
			}
			seen[node]++
		}
	}
	if seen[1]+seen[2] == 0 {
		t.Fatalf("no traffic routed off-trunk under δ=%v: %v", routingDelta, seen)
	}

	// /statsz aggregates per branch; counts must cover all served images.
	stats := srv.Stats()
	if len(stats.Branches) != 3 {
		t.Fatalf("statsz reports %d branch rows, want 3 (trunk+2)", len(stats.Branches))
	}
	var total int64
	for _, b := range stats.Branches {
		total += b.Count
	}
	if total != 120 {
		t.Fatalf("branch counts sum to %d, want 120", total)
	}
	for _, b := range stats.Branches {
		if b.Count > 0 && b.MeanOps <= 0 {
			t.Fatalf("branch %q served %d images with non-positive mean ops", b.Name, b.Count)
		}
	}
}

// TestBranchHotSwapUnderLoad is the routed acceptance test: sustained /v2
// classify load against a two-branch tree while the "lo" branch is
// repeatedly replaced via PUT /v2/models/{model}/branches/{branch}. Zero
// requests may fail or be dropped, traffic must actually traverse the
// branches while they are being swapped, and each swap must bump the
// served version. Run under -race in CI.
func TestBranchHotSwapUnderLoad(t *testing.T) {
	ts, _, data := newRoutedServer(t, 72)

	// Two replacement "lo" cascades with the same topology (shape and
	// 2-class width preserved, weights different), saved as model files
	// for the PUT path to load.
	dir := t.TempDir()
	paths := make([]string, 2)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("lo-%d.cdln", i))
		f, err := os.Create(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := modelio.SaveCDLN(f, branchCDLN(900+int64(i), 2)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	const clients = 6
	const perClient = 30
	const swaps = 12

	var served, branchServed atomic.Int64
	errCh := make(chan error, clients+1)
	var wg sync.WaitGroup

	// Swapper: alternate the two "lo" replacements as fast as the
	// registry drains retired pools.
	lastVersion := int64(0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < swaps; k++ {
			status, body := putJSON(t, ts.URL+"/v2/models/"+DefaultModelName+"/branches/lo",
				V2PutBranchRequest{Path: paths[k%2]})
			if status != http.StatusOK {
				errCh <- fmt.Errorf("swap %d: HTTP %d: %s", k, status, body)
				return
			}
			var resp V2PutBranchResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				errCh <- fmt.Errorf("swap %d: %v", k, err)
				return
			}
			if int64(resp.Version) <= lastVersion {
				errCh <- fmt.Errorf("swap %d: version %d did not advance past %d", k, resp.Version, lastVersion)
				return
			}
			lastVersion = int64(resp.Version)
		}
		errCh <- nil
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				images := [][]float64{
					data[(c*perClient+k)%len(data)].X.Flatten().Data,
					data[(c+k)%len(data)].X.Flatten().Data,
				}
				delta := routingDelta
				status, body := postJSON(t, ts.URL+"/v2/models/"+DefaultModelName+"/classify",
					V2ClassifyRequest{Images: images, Policy: &PolicyRequest{Delta: &delta}})
				if status != http.StatusOK {
					errCh <- fmt.Errorf("client %d request %d: HTTP %d: %s", c, k, status, body)
					return
				}
				var resp V2ClassifyResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					errCh <- fmt.Errorf("client %d request %d: %v", c, k, err)
					return
				}
				for _, res := range resp.Results {
					if res.Node != 0 {
						branchServed.Add(1)
					}
				}
				served.Add(int64(len(resp.Results)))
			}
			errCh <- nil
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	if served.Load() != clients*perClient*2 {
		t.Fatalf("served %d of %d images", served.Load(), clients*perClient*2)
	}
	if branchServed.Load() == 0 {
		t.Fatal("no traffic traversed a branch during the swap storm")
	}

	// After the last swap the entry serves the final replacement: swap
	// once more to a known file and check the version keeps advancing and
	// the graph still answers.
	status, body := putJSON(t, ts.URL+"/v2/models/"+DefaultModelName+"/branches/lo",
		V2PutBranchRequest{Path: paths[0]})
	if status != http.StatusOK {
		t.Fatalf("final swap: HTTP %d: %s", status, body)
	}
	v2ClassifyNodes(t, ts, data, 8, 0)
}

// TestBranchPutRejectsBadSwaps pins the failure modes of the branch-swap
// endpoint: unknown branch names, topology-breaking replacements (wrong
// class width) and linear models must all 4xx without disturbing the
// serving version.
func TestBranchPutRejectsBadSwaps(t *testing.T) {
	ts, _, _ := newRoutedServer(t, 73)
	dir := t.TempDir()

	save := func(name string, c *core.CDLN) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := modelio.SaveCDLN(f, c); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := save("good.cdln", branchCDLN(950, 2))
	wide := save("wide.cdln", branchCDLN(951, 3)) // 3 classes for a 2-label branch

	for name, tc := range map[string]struct {
		branch, path string
	}{
		"unknown branch": {"mid", good},
		"wrong width":    {"lo", wide},
		"missing file":   {"lo", filepath.Join(dir, "absent.cdln")},
	} {
		status, body := putJSON(t, ts.URL+"/v2/models/"+DefaultModelName+"/branches/"+tc.branch,
			V2PutBranchRequest{Path: tc.path})
		if status < 400 || status >= 500 {
			t.Errorf("%s: HTTP %d (want 4xx): %s", name, status, body)
		}
	}

	// The rejected swaps must not have bumped the version or broken serving.
	resp, err := http.Get(ts.URL + "/v2/models/" + DefaultModelName)
	if err != nil {
		t.Fatal(err)
	}
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Version != 1 {
		t.Fatalf("failed swaps bumped the version to %d", info.Version)
	}
}
