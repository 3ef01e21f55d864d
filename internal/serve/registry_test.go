package serve

// registry_test.go covers the multi-model redesign: registry versioning,
// the v2 surface (policy shaping, detail levels, model metadata, PUT
// hot-swap), context-aware cancellation, and the acceptance-critical
// hot-swap-under-load property — swapping a model version while traffic
// flows drops zero requests (run under -race in CI).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdl/internal/core"
	"cdl/internal/modelio"
	"cdl/internal/obs"
	"cdl/internal/tensor"
	"cdl/internal/train"
)

// saveModel writes a CDLN to a temp modelio file and returns its path.
func saveModel(t testing.TB, dir, name string, cdln *core.CDLN) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := modelio.SaveCDLN(f, cdln); err != nil {
		t.Fatal(err)
	}
	return path
}

func postJSON(t testing.TB, url string, v any) (int, []byte) {
	t.Helper()
	return postPadded(t, url, v, 0, false)
}

// postPadded posts v followed by pad spaces; chunked hides the body's length
// from the client, so no Content-Length is declared.
func postPadded(t testing.TB, url string, v any, pad int, chunked bool) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, url, "application/json", append(body, bytes.Repeat([]byte(" "), pad)...), chunked)
}

// postBody posts body as it is under contentType.
func postBody(t testing.TB, url, contentType string, body []byte, chunked bool) (int, []byte) {
	t.Helper()
	var rd io.Reader = bytes.NewReader(body)
	if chunked {
		rd = struct{ io.Reader }{rd}
	}
	resp, err := http.Post(url, contentType, rd)
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

func putJSON(t testing.TB, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
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

// TestRegistryVersioning pins the swap semantics: re-registering a name
// bumps the version, the entry serves the new weights, and the retired
// pool is fully drained by the time the swap call returns.
func TestRegistryVersioning(t *testing.T) {
	cdlnA, data := testCDLN(t, 51)
	cdlnB, _ := testCDLN(t, 52)
	reg := NewRegistry(Config{Workers: 2})
	defer reg.Close()

	m1, err := reg.Register("m", cdlnA)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Version() != 1 {
		t.Fatalf("first version %d, want 1", m1.Version())
	}
	if got, _ := reg.Get(""); got != m1 {
		t.Fatal("first entry is not the default")
	}
	m2, err := reg.Register("m", cdlnB)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version() != 2 {
		t.Fatalf("swapped version %d, want 2", m2.Version())
	}
	if got, _ := reg.Get("m"); got != m2 {
		t.Fatal("Get returned the retired version after swap")
	}
	// The retired pool must reject new work (drained and closed).
	var wg sync.WaitGroup
	rec := core.ExitRecord{}
	pol := core.DefaultExitPolicy()
	err = m1.pool.submit(context.Background(), []*job{{x: data[0].X, pol: &pol, rec: &rec, wg: &wg}})
	if err != ErrClosed {
		t.Fatalf("retired pool submit: %v, want ErrClosed", err)
	}
	// The new version serves records matching its own weights.
	want, err := core.NewSession(cdlnB)
	if err != nil {
		t.Fatal(err)
	}
	got := m2Classify(t, m2, data[0].X.Flatten().Data)
	ref := want.Classify(data[0].X)
	if got.Label != ref.Label || got.ExitIndex != ref.StageIndex {
		t.Fatalf("swapped model classified %+v, want %+v", got, ref)
	}

	if _, err := reg.Register("bad/name", cdlnA); err == nil {
		t.Fatal("Register accepted a name with a slash")
	}
}

// TestHotSwapStartsStatszFromZero: /statsz is per version. A swap binds
// the successor to a fresh lifetime horizon, and what the retired version
// still emits — its in-flight tail, a refusal, an admission — never
// reaches the successor's counters.
func TestHotSwapStartsStatszFromZero(t *testing.T) {
	cdln, data := testCDLN(t, 53)
	srv, ts := startServer(t, cdln, Config{Workers: 2})
	req := V2ClassifyRequest{}
	for _, s := range data[:6] {
		req.Images = append(req.Images, s.X.Flatten().Data)
	}
	if status, body := postClassify(t, ts.URL, req); status != http.StatusOK {
		t.Fatalf("classify: HTTP %d: %s", status, body)
	}
	if st := srv.Stats(); st.Images != 6 || st.Requests != 1 || st.TotalLatency.Count != 6 {
		t.Fatalf("before the swap: %d images, %d requests, %d latencies, want 6/1/6", st.Images, st.Requests, st.TotalLatency.Count)
	}
	old, err := srv.Registry().Get("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Register(DefaultModelName, cdln); err != nil {
		t.Fatal(err)
	}
	old.emit([]*job{{rec: &core.ExitRecord{StageIndex: 0}}}, 1)
	old.refuse(nil, obs.FlightShed, causeQueueFull, 2)
	old.plane.Admitted(old.version, false)
	st := srv.Stats()
	if st.Images != 0 || st.Requests != 0 || st.Rejected != 0 || st.TotalLatency.Count != 0 ||
		st.QueueLatency.Count != 0 || st.MeanOps != 0 || st.TotalEnergyPJ != 0 {
		t.Fatalf("after the swap: %+v, want every count zero", st)
	}
	for _, e := range st.Exits {
		if e.Count != 0 {
			t.Errorf("after the swap: exit %s counts %d", e.Name, e.Count)
		}
	}
	if ost := old.Stats(); ost.Images != 0 || ost.Requests != 0 {
		t.Errorf("retired version reads %d images, %d requests: its horizon ended with the swap", ost.Images, ost.Requests)
	}
}

// m2Classify pushes one image through a Model's pool directly.
func m2Classify(t testing.TB, m *Model, img []float64) V2Result {
	t.Helper()
	pol := core.DefaultExitPolicy()
	var rec core.ExitRecord
	var wg sync.WaitGroup
	j := &job{x: tensor.FromSlice(img, m.cdln.Arch.Net.InShape...), pol: &pol, rec: &rec, wg: &wg}
	if err := m.pool.submit(context.Background(), []*job{j}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return renderResults(nil, m, []core.ExitRecord{rec}, DetailCost)[0]
}

// TestV2Endpoints covers the v2 metadata and dispatch surface end to end:
// list, get, named classify/resume, 404s, and PUT hot-swap.
func TestV2Endpoints(t *testing.T) {
	cdlnA, data := testCDLN(t, 53)
	cdlnB, _ := testCDLN(t, 54)
	dir := t.TempDir()
	pathB := saveModel(t, dir, "b.cdln", cdlnB)

	srv, err := New(cdlnA, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// List: one default entry.
	resp, err := http.Get(ts.URL + "/v2/models")
	if err != nil {
		t.Fatal(err)
	}
	var list V2ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Default != DefaultModelName || len(list.Models) != 1 {
		t.Fatalf("list %+v", list)
	}
	info := list.Models[0]
	if !info.Default || info.Version != 1 || info.Stages != len(cdlnA.Stages) ||
		len(info.ExitOps) != cdlnA.NumExits() || info.BaselineOps <= 0 {
		t.Fatalf("model info %+v", info)
	}

	// PUT a second entry from disk, then classify on it by name.
	status, body := putJSON(t, ts.URL+"/v2/models/blue", V2PutModelRequest{Path: pathB})
	if status != http.StatusOK {
		t.Fatalf("PUT: HTTP %d: %s", status, body)
	}
	var put V2PutModelResponse
	if err := json.Unmarshal(body, &put); err != nil {
		t.Fatal(err)
	}
	if put.Model != "blue" || put.Version != 1 {
		t.Fatalf("PUT response %+v", put)
	}

	img := data[0].X.Flatten().Data
	status, body = postJSON(t, ts.URL+"/v2/models/blue/classify", V2ClassifyRequest{Image: img})
	if status != http.StatusOK {
		t.Fatalf("v2 classify: HTTP %d: %s", status, body)
	}
	var out V2ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Model != "blue" || out.Version != 1 || out.Count != 1 {
		t.Fatalf("v2 response identity %+v", out)
	}
	wantB, err := core.NewSession(cdlnB)
	if err != nil {
		t.Fatal(err)
	}
	ref := wantB.Classify(data[0].X)
	if out.Results[0].Label != ref.Label || out.Results[0].Confidence != ref.Confidence {
		t.Fatalf("named dispatch served wrong model: %+v != %+v", out.Results[0], ref)
	}

	// Unknown model → 404 on every named route.
	for _, req := range []struct {
		method, url string
	}{
		{"POST", ts.URL + "/v2/models/ghost/classify"},
		{"POST", ts.URL + "/v2/models/ghost/resume"},
		{"GET", ts.URL + "/v2/models/ghost"},
	} {
		var status int
		if req.method == "POST" {
			status, _ = postJSON(t, req.url, V2ClassifyRequest{Image: img})
		} else {
			r, err := http.Get(req.url)
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			status = r.StatusCode
		}
		if status != http.StatusNotFound {
			t.Errorf("%s %s: HTTP %d, want 404", req.method, req.url, status)
		}
	}

	// PUT with a bad path must not disturb the serving entry.
	if status, _ := putJSON(t, ts.URL+"/v2/models/blue", V2PutModelRequest{Path: filepath.Join(dir, "missing.cdln")}); status != http.StatusBadRequest {
		t.Fatalf("PUT missing file: HTTP %d, want 400", status)
	}
	if status, _ = postJSON(t, ts.URL+"/v2/models/blue/classify", V2ClassifyRequest{Image: img}); status != http.StatusOK {
		t.Fatalf("entry unusable after failed PUT: HTTP %d", status)
	}
	// Torn/garbage file likewise.
	torn := filepath.Join(dir, "torn.cdln")
	if err := os.WriteFile(torn, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if status, _ := putJSON(t, ts.URL+"/v2/models/blue", V2PutModelRequest{Path: torn}); status != http.StatusBadRequest {
		t.Fatalf("PUT torn file: HTTP %d, want 400", status)
	}
}

// TestV2PolicyShaping exercises the structured ExitPolicy end to end:
// depth caps (direct and via ops budget), per-stage deltas, and the
// detail levels.
func TestV2PolicyShaping(t *testing.T) {
	cdln, data := testCDLN(t, 55)
	if len(cdln.Stages) < 2 {
		t.Skip("fixture needs ≥2 stages")
	}
	srv, err := New(cdln, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	images := make([][]float64, 20)
	for i := range images {
		images[i] = data[i].X.Flatten().Data
	}
	url := ts.URL + "/v2/models/" + DefaultModelName + "/classify"
	post := func(t *testing.T, req V2ClassifyRequest) V2ClassifyResponse {
		t.Helper()
		status, body := postJSON(t, url, req)
		if status != http.StatusOK {
			t.Fatalf("HTTP %d: %s", status, body)
		}
		var out V2ClassifyResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	t.Run("max_exit forces shallow exits", func(t *testing.T) {
		zero := 0
		one := 1.0
		out := post(t, V2ClassifyRequest{Images: images,
			Policy: &PolicyRequest{Delta: &one, MaxExit: &zero}})
		for i, r := range out.Results {
			if r.ExitIndex != 0 {
				t.Fatalf("sample %d exited at %d under max_exit=0", i, r.ExitIndex)
			}
		}
		// Forced-exit labels must equal the stage classifier's own verdict.
		sess, err := core.NewSession(cdln)
		if err != nil {
			t.Fatal(err)
		}
		recs := sess.ClassifyBatchPolicy(tensors(data[:20]), core.ExitPolicy{Delta: 1, MaxExit: 0})
		for i, r := range out.Results {
			if r.Label != recs[i].Label || r.Confidence != recs[i].Confidence {
				t.Fatalf("sample %d: HTTP %+v != core %+v", i, r, recs[i])
			}
		}
	})

	t.Run("ops_budget maps to depth cap", func(t *testing.T) {
		exitOps := cdln.ExitOps()
		budget := exitOps[1] // afford stage 1, not FC
		one := 1.0
		out := post(t, V2ClassifyRequest{Images: images,
			Policy: &PolicyRequest{Delta: &one, OpsBudget: &budget}})
		for i, r := range out.Results {
			if r.ExitIndex > 1 {
				t.Fatalf("sample %d exited at %d beyond the ops budget", i, r.ExitIndex)
			}
			if r.Ops > budget {
				t.Fatalf("sample %d spent %v ops over budget %v", i, r.Ops, budget)
			}
		}
		// A budget below the cheapest exit is unsatisfiable.
		tiny := exitOps[0] / 2
		status, _ := postJSON(t, url, V2ClassifyRequest{Images: images,
			Policy: &PolicyRequest{OpsBudget: &tiny}})
		if status != http.StatusBadRequest {
			t.Fatalf("unsatisfiable budget: HTTP %d, want 400", status)
		}
	})

	t.Run("stage_deltas override per stage", func(t *testing.T) {
		// Stage 0 threshold 1 (never exits), stage 1 keeps trained: no O1
		// exits may appear.
		sd := make([]float64, len(cdln.Stages))
		sd[0] = 1
		for i := 1; i < len(sd); i++ {
			sd[i] = -1
		}
		out := post(t, V2ClassifyRequest{Images: images, Policy: &PolicyRequest{StageDeltas: sd}})
		for i, r := range out.Results {
			if r.ExitIndex == 0 {
				t.Fatalf("sample %d exited at stage 0 despite δ₀=1", i)
			}
		}
		// Wrong length → 400.
		status, _ := postJSON(t, url, V2ClassifyRequest{Images: images,
			Policy: &PolicyRequest{StageDeltas: []float64{0.5}}})
		if len(cdln.Stages) != 1 && status != http.StatusBadRequest {
			t.Fatalf("wrong stage_deltas length: HTTP %d, want 400", status)
		}
	})

	t.Run("detail levels", func(t *testing.T) {
		one := 1.0
		label := post(t, V2ClassifyRequest{Images: images[:4], Policy: &PolicyRequest{Detail: DetailLabel}})
		for i, r := range label.Results {
			if r.Ops != 0 || r.EnergyPJ != 0 || r.StageConfidences != nil {
				t.Fatalf("label detail leaked cost fields: sample %d %+v", i, r)
			}
		}
		cost := post(t, V2ClassifyRequest{Images: images[:4]})
		for i, r := range cost.Results {
			if r.Ops <= 0 || r.EnergyPJ <= 0 {
				t.Fatalf("cost detail missing cost fields: sample %d %+v", i, r)
			}
			if r.StageConfidences != nil {
				t.Fatalf("cost detail leaked trace: sample %d", i)
			}
		}
		trace := post(t, V2ClassifyRequest{Images: images[:4],
			Policy: &PolicyRequest{Delta: &one, Detail: DetailTrace}})
		for i, r := range trace.Results {
			// δ=1 forces FC: the trace must cover every stage plus FC.
			if len(r.StageConfidences) != cdln.NumExits() {
				t.Fatalf("sample %d trace length %d, want %d", i, len(r.StageConfidences), cdln.NumExits())
			}
			if last := r.StageConfidences[len(r.StageConfidences)-1]; last != r.Confidence {
				t.Fatalf("sample %d trace tail %v != confidence %v", i, last, r.Confidence)
			}
		}
		status, _ := postJSON(t, url, V2ClassifyRequest{Images: images[:1],
			Policy: &PolicyRequest{Detail: "everything"}})
		if status != http.StatusBadRequest {
			t.Fatalf("unknown detail: HTTP %d, want 400", status)
		}
	})

	// The retired /v1 routes took δ as a bare "delta": the cascade with
	// its trained thresholds replaced by δ, which a delta-only policy is.
	t.Run("delta-only policy matches v1", func(t *testing.T) {
		d := 0.8
		out := post(t, V2ClassifyRequest{Images: images, Policy: &PolicyRequest{Delta: &d}})
		oracle := cdln.Clone()
		oracle.Delta, oracle.StageDeltas = d, nil
		for i, got := range out.Results {
			want := oracle.Classify(data[i].X)
			if got.Label != want.Label || got.Exit != want.StageName || got.Confidence != want.Confidence || got.Ops != want.Ops {
				t.Fatalf("sample %d: HTTP %+v != the cascade at δ=%v %+v", i, got, d, want)
			}
		}
	})
}

// tensors collects samples' input tensors.
func tensors(data []train.Sample) []*tensor.T {
	out := make([]*tensor.T, len(data))
	for i, s := range data {
		out[i] = s.X
	}
	return out
}

// TestV2Cancellation covers the context plumbing: a request whose context
// is already dead is rejected without touching a replica, an expired
// deadline maps to 504, and a worker drops queued jobs whose context died
// while they waited.
func TestV2Cancellation(t *testing.T) {
	cdln, data := testCDLN(t, 56)
	srv, err := New(cdln, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	img := data[0].X.Flatten().Data

	do := func(ctx context.Context, body any) int {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost,
			"/v2/models/"+DefaultModelName+"/classify", bytes.NewReader(b)).WithContext(ctx)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		return w.Code
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if code := do(cancelled, V2ClassifyRequest{Image: img}); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-cancelled context: HTTP %d, want 503", code)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if code := do(expired, V2ClassifyRequest{Image: img}); code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: HTTP %d, want 504", code)
	}
	if st := srv.Stats(); st.Cancelled != 2 {
		t.Fatalf("cancelled counter %d, want 2", st.Cancelled)
	}
	if code := do(context.Background(), V2ClassifyRequest{Image: img, TimeoutMS: -1}); code != http.StatusBadRequest {
		t.Fatal("negative timeout accepted")
	}
}

// TestWorkerDropsDeadJobs pins the worker-side drop: jobs whose context
// dies while queued are released un-classified (cancelled flag, zero
// record) and cost the replica nothing.
func TestWorkerDropsDeadJobs(t *testing.T) {
	cdln, data := testCDLN(t, 57)
	sess, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	var observed atomic.Int64
	done := func(group []*job, _ int) {
		for _, j := range group {
			if !j.cancelled {
				observed.Add(1)
			}
		}
	}
	p := newPool(nil, 16, 8, done) // no workers yet: jobs sit in the queue
	ctx, cancel := context.WithCancel(context.Background())
	pol := core.DefaultExitPolicy()
	var wg sync.WaitGroup
	recs := make([]core.ExitRecord, 4)
	jobs := make([]*job, 4)
	for i := range jobs {
		jobs[i] = &job{ctx: ctx, x: data[i].X, pol: &pol, rec: &recs[i], wg: &wg}
	}
	if err := p.submit(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	cancel() // die in the queue
	p.wg.Add(1)
	go p.worker(&sessionWalker{Session: sess}, done)
	wg.Wait()
	for i, j := range jobs {
		if !j.cancelled {
			t.Fatalf("job %d not marked cancelled", i)
		}
		if recs[i].StageName != "" {
			t.Fatalf("job %d was classified after cancellation: %+v", i, recs[i])
		}
	}
	if observed.Load() != 0 {
		t.Fatalf("metrics observed %d cancelled jobs", observed.Load())
	}
	p.close()
}

// TestRegistryHotSwapUnderLoad is the acceptance test for atomic hot-swap:
// sustained classify load (several clients) while the default
// model is repeatedly PUT-swapped between two versions. Zero requests may
// fail or be dropped, and after the last swap the server must serve the
// final version's exact records. Run under -race in CI.
func TestRegistryHotSwapUnderLoad(t *testing.T) {
	cdlnA, data := testCDLN(t, 58)
	cdlnB, _ := testCDLN(t, 59)
	dir := t.TempDir()
	paths := []string{
		saveModel(t, dir, "a.cdln", cdlnA),
		saveModel(t, dir, "b.cdln", cdlnB),
	}

	srv, err := New(cdlnA, Config{Workers: 4, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	const clients = 6
	const perClient = 30
	const swaps = 12

	var failures atomic.Int64
	var served atomic.Int64
	errCh := make(chan error, clients+1)
	var wg sync.WaitGroup

	// Swapper: alternate versions as fast as the drain allows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < swaps; k++ {
			status, body := putJSON(t, ts.URL+"/v2/models/"+DefaultModelName,
				V2PutModelRequest{Path: paths[k%2]})
			if status != http.StatusOK {
				errCh <- fmt.Errorf("swap %d: HTTP %d: %s", k, status, body)
				return
			}
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
				status, body := postClassify(t, ts.URL, V2ClassifyRequest{Images: images})
				if status != http.StatusOK {
					failures.Add(1)
					errCh <- fmt.Errorf("client %d request %d: HTTP %d: %s", c, k, status, body)
					return
				}
				served.Add(1)
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
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed during hot swap", failures.Load())
	}
	if served.Load() != clients*perClient {
		t.Fatalf("served %d of %d requests", served.Load(), clients*perClient)
	}

	// The last swap installed paths[(swaps-1)%2]; the server must now
	// produce that model's exact records.
	final := []*core.CDLN{cdlnA, cdlnB}[(swaps-1)%2]
	sess, err := core.NewSession(final)
	if err != nil {
		t.Fatal(err)
	}
	var list V2ModelsResponse
	resp, err := http.Get(ts.URL + "/v2/models")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := list.Models[0].Version; v != swaps+1 {
		t.Fatalf("final version %d, want %d (initial + %d swaps)", v, swaps+1, swaps)
	}
	for i := 0; i < 10; i++ {
		status, body := postClassify(t, ts.URL, V2ClassifyRequest{Image: data[i].X.Flatten().Data})
		if status != http.StatusOK {
			t.Fatalf("post-swap classify: HTTP %d", status)
		}
		var out V2ClassifyResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		ref := sess.Classify(data[i].X)
		got := out.Results[0]
		if got.Label != ref.Label || got.Confidence != ref.Confidence || got.Ops != ref.Ops {
			t.Fatalf("post-swap sample %d: %+v != final model %+v", i, got, ref)
		}
	}
}
