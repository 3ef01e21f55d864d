package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/fixed"
	"cdl/internal/mnist"
	"cdl/internal/modelio"
	"cdl/internal/tensor"
)

// pixelRequest is one request of TestPixelsGoBackAfterTheLastReader: the
// body a client sends, the statuses it may answer, and, for a 200, the
// oracle's record of each image it carries.
type pixelRequest struct {
	body   V2ClassifyRequest
	allow  map[int]bool
	expect []core.ExitRecord
}

// pixelWorkload builds each client's requests from images of its own (the
// fixture's samples under client-seeded noise) and classifies every image
// the server is to answer with CDLN.Classify, serially, before any traffic
// starts. Every fifth request is refused (an image one pixel short, one
// pixel long, or "image" beside "images"), and every fifth carries a 1 ms
// deadline, which the saturated pool may answer 504 or 503 instead of 200.
func pixelWorkload(cdln *core.CDLN, samples [][]float64, clients, perClient int) [][]pixelRequest {
	inShape := cdln.Arch.Net.InShape
	ok := map[int]bool{http.StatusOK: true, http.StatusServiceUnavailable: true}
	late := map[int]bool{http.StatusOK: true, http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true}
	refused := map[int]bool{http.StatusBadRequest: true}
	out := make([][]pixelRequest, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(int64(c) + 1))
		image := func() []float64 {
			img := make([]float64, len(samples[0]))
			for i, v := range samples[rng.Intn(len(samples))] {
				img[i] = v + 0.05*rng.NormFloat64()
			}
			return img
		}
		for k := 0; k < perClient; k++ {
			var q pixelRequest
			n := 1 + (c+k)%3
			for i := 0; i < n; i++ {
				q.body.Images = append(q.body.Images, image())
			}
			switch k % 5 {
			case 3:
				q.allow = refused
				switch img := q.body.Images[0]; k / 5 % 3 {
				case 0:
					q.body.Images[0] = img[:len(img)-1]
				case 1:
					q.body.Images[0] = append(img, 0.5)
				default:
					q.body.Image = image()
				}
				out[c] = append(out[c], q)
				continue
			case 4:
				q.body.TimeoutMS, q.allow = 1, late
			default:
				q.allow = ok
			}
			for _, img := range q.body.Images {
				q.expect = append(q.expect, cdln.Classify(tensor.FromSlice(img, inShape...)))
			}
			if n == 1 && k%2 == 0 {
				q.body.Image, q.body.Images = q.body.Images[0], nil
			}
			out[c] = append(out[c], q)
		}
	}
	return out
}

// send posts one request of pixelWorkload and checks its answer: a status
// the request allows and, on a 200, exactly the oracle's records, their
// stage confidences too when the request asks for detail "trace".
func (q *pixelRequest) send(url string) (int, error) {
	body, err := json.Marshal(q.body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if !q.allow[resp.StatusCode] {
		return resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var out V2ClassifyResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return resp.StatusCode, err
	}
	if len(out.Results) != len(q.expect) {
		return resp.StatusCode, fmt.Errorf("%d results for %d images", len(out.Results), len(q.expect))
	}
	for i, got := range out.Results {
		want := q.expect[i]
		if got.Label != want.Label || got.ExitIndex != want.StageIndex || got.Confidence != want.Confidence || got.Ops != want.Ops ||
			q.body.Policy != nil && q.body.Policy.Detail == DetailTrace && !slices.Equal(got.StageConfidences, want.Trace) {
			return resp.StatusCode, fmt.Errorf("image %d answered %+v, its own pixels classify as %+v", i, got, want)
		}
	}
	return resp.StatusCode, nil
}

// TestPixelsGoBackAfterTheLastReader pins when a request's pixels return
// to the pool with its arena: after dispatch has returned, never while a
// worker may still read them. Pixels given back early are parsed into by
// the next request while their own jobs wait in the queue, and they
// classify someone else's image. Several clients send MNIST_3C-sized images of their
// own through a pool of one worker kept saturated (503s), with 1 ms
// deadlines (504s), 4xx refusals and hot-swaps of the entry to the same
// weights (retried dispatches) mixed in; every 200 must be exactly
// CDLN.Classify of the images its client sent. Run under -race in CI.
func TestPixelsGoBackAfterTheLastReader(t *testing.T) {
	cdln, samples := lifetimeFixture(t)
	const clients, perClient, swaps = 6, 20, 4
	work := pixelWorkload(cdln, samples, clients, perClient)
	_, ts := startServer(t, cdln, Config{Workers: 1, MaxBatch: 4, QueueDepth: 6})
	sends := make([][]func(string) (int, error), len(work))
	for c := range work {
		for k := range work[c] {
			sends[c] = append(sends[c], work[c][k].send)
		}
	}
	hammer(t, ts.URL, classifyPath, swaps, sends)
}

// TestRequestArenaGoesBackAfterTheResponse pins when a request's arena —
// its pixels, frame activations, jobs, records and rendered results —
// returns to the pool: once its response is written, never while a worker
// or the handler may still read it. One server takes both kinds of
// traffic: each client alternates the JSON classify requests of
// TestPixelsGoBackAfterTheLastReader, every fifth of them at detail
// "trace", with the resume frames of TestActivationsGoBackAfterTheLastReader,
// through a saturated pool of one worker (503s), 1 ms deadlines (504s),
// 4xx refusals and hot-swaps of the entry to the same weights (retried
// dispatches). Every 200 must be exactly the oracle's answer for the inputs
// its client sent, stage confidences included, so no body carries another
// request's rows. Run under -race in CI.
func TestRequestArenaGoesBackAfterTheResponse(t *testing.T) {
	cdln, samples := lifetimeFixture(t)
	const clients, perClient, swaps = 6, 20, 4
	pixels := pixelWorkload(cdln, samples, clients, perClient)
	frames := activationWorkload(t, cdln, samples, clients, perClient)
	sess, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	traced := core.ExitPolicy{Delta: -1, MaxExit: -1, Trace: true}
	_, ts := startServer(t, cdln, Config{Workers: 1, MaxBatch: 4, QueueDepth: 6})
	sends := make([][]func(string) (int, error), clients)
	for c := range sends {
		for k := range pixels[c] {
			q := &pixels[c][k]
			if k%5 == 1 {
				q.body.Policy = &PolicyRequest{Detail: DetailTrace}
				images := q.body.Images
				if q.body.Image != nil {
					images = [][]float64{q.body.Image}
				}
				xs := make([]*tensor.T, len(images))
				for i, img := range images {
					xs[i] = tensor.FromSlice(img, cdln.Arch.Net.InShape...)
				}
				q.expect = sess.ClassifyBatchPolicy(xs, traced)
			}
			f := &frames[c][k]
			sends[c] = append(sends[c], q.send, func(base string) (int, error) {
				return f.send(strings.TrimSuffix(base, classifyPath) + resumePath)
			})
		}
	}
	hammer(t, ts.URL, classifyPath, swaps, sends)
}

// activationRequest is one request of TestActivationsGoBackAfterTheLastReader:
// the resume frame a client sends, the statuses it may answer, and, for a
// 200, the record each of its activations resumes to.
type activationRequest struct {
	frame  []byte
	allow  map[int]bool
	expect []core.ExitRecord
}

// activationWorkload builds each client's resume frames from the split-1
// activations of images of its own (the fixture's samples under
// client-seeded noise, every image deferred by a δ no confidence reaches)
// and resumes each with ResumeBatchPolicyAt under the trained thresholds,
// serially, before any traffic starts. Every fifth request is refused: after
// its valid payloads comes one cut short, one with a bad magic or one of
// the wrong shape, so the frame fails part way, with activations already
// decoded. Every fifth carries a 1 ms deadline, which the saturated pool
// may answer 504 or 503 instead of 200.
func activationWorkload(t *testing.T, cdln *core.CDLN, samples [][]float64, clients, perClient int) [][]activationRequest {
	const split = 1
	sess, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	inShape := cdln.Arch.Net.InShape
	ok := map[int]bool{http.StatusOK: true, http.StatusServiceUnavailable: true}
	late := map[int]bool{http.StatusOK: true, http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true}
	refused := map[int]bool{http.StatusBadRequest: true}
	encode := func(act wire.Activation) []byte {
		p, err := wire.Encode(act, wire.EncodingFloat64, fixed.Format{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	out := make([][]activationRequest, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(int64(c) + 1))
		for k := 0; k < perClient; k++ {
			n := 1 + (c+k)%3
			images := make([]*tensor.T, n)
			for i := range images {
				img := make([]float64, len(samples[0]))
				for j, v := range samples[rng.Intn(len(samples))] {
					img[j] = v + 0.05*rng.NormFloat64()
				}
				images[i] = tensor.FromSlice(img, inShape...)
			}
			var acts []*tensor.T
			var payloads [][]byte
			for _, pre := range sess.ClassifyPrefixBatchPolicy(images, split, core.ExitPolicy{Delta: 2, MaxExit: -1}) {
				acts = append(acts, pre.Activation)
				payloads = append(payloads, encode(wire.Activation{FromStage: pre.FromStage, Pos: pre.Pos, Shape: pre.Activation.Shape(), Data: pre.Activation.Data}))
			}
			var q activationRequest
			var members V2ResumeRequest
			switch k % 5 {
			case 3:
				q.allow = refused
				switch good := payloads[0]; k / 5 % 3 {
				case 0:
					payloads = append(payloads, good[:len(good)-8])
				case 1:
					payloads = append(payloads, append([]byte("XXXX"), good[4:]...))
				default:
					a := acts[0]
					payloads = append(payloads, encode(wire.Activation{FromStage: split, Pos: cdln.SplitPos(split), Shape: []int{a.Numel()}, Data: a.Data}))
				}
			case 4:
				members.TimeoutMS, q.allow = 1, late
			default:
				q.allow = ok
			}
			if k%5 != 3 {
				q.expect = sess.ResumeBatchPolicyAt(acts, 0, split, core.DefaultExitPolicy())
			}
			raw, err := json.Marshal(members)
			if err != nil {
				t.Fatal(err)
			}
			if q.frame, err = wire.AppendFrame(nil, raw, payloads); err != nil {
				t.Fatal(err)
			}
			out[c] = append(out[c], q)
		}
	}
	return out
}

// send posts one request of activationWorkload and checks its answer: a
// status the request allows and, on a 200, exactly the records its own
// activations resume to.
func (q *activationRequest) send(url string) (int, error) {
	resp, err := http.Post(url, wire.FrameContentType, bytes.NewReader(q.frame))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if !q.allow[resp.StatusCode] {
		return resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	_, payloads, err := wire.ReadFrame(raw)
	if err != nil {
		return resp.StatusCode, err
	}
	if len(payloads) != len(q.expect) {
		return resp.StatusCode, fmt.Errorf("%d records for %d activations", len(payloads), len(q.expect))
	}
	for i, p := range payloads {
		got, err := wire.DecodeRecord(p)
		if err != nil {
			return resp.StatusCode, err
		}
		want := q.expect[i]
		if got.Exit != want.StageIndex || got.Label != want.Label || got.Confidence != want.Confidence {
			return resp.StatusCode, fmt.Errorf("activation %d answered %+v, it resumes to %+v", i, got, want)
		}
	}
	return resp.StatusCode, nil
}

// TestActivationsGoBackAfterTheLastReader pins when a resume frame's
// decoded activations return to the pool with its arena: after dispatch
// has returned, never while a worker may still read them. Activations
// given back early are decoded into by the next frame while their own jobs
// wait in the queue, and they resume someone else's. The traffic is
// TestPixelsGoBackAfterTheLastReader's, in frames of split-1 activations:
// every 200 must be exactly ResumeBatchPolicyAt on the activations its
// client sent. Run under -race in CI.
func TestActivationsGoBackAfterTheLastReader(t *testing.T) {
	cdln, samples := lifetimeFixture(t)
	const clients, perClient, swaps = 6, 20, 4
	work := activationWorkload(t, cdln, samples, clients, perClient)
	_, ts := startServer(t, cdln, Config{Workers: 1, MaxBatch: 4, QueueDepth: 6})
	sends := make([][]func(string) (int, error), len(work))
	for c := range work {
		for k := range work[c] {
			sends[c] = append(sends[c], work[c][k].send)
		}
	}
	hammer(t, ts.URL, resumePath, swaps, sends)
}

// lifetimeFixture is the MNIST_3C fixture and forty test images.
func lifetimeFixture(t *testing.T) (*core.CDLN, [][]float64) {
	cdln, err := modelio.LoadFile(lifetimeModel)
	if err != nil {
		t.Fatal(err)
	}
	_, test, err := mnist.GenerateSamples(1, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([][]float64, len(test))
	for i, s := range test {
		samples[i] = s.X.Flatten().Data
	}
	return cdln, samples
}

const lifetimeModel = "../../bench/testdata/mnist3c.cdln"

// hammer posts each client's requests to base+path in order, one goroutine
// per client, while another hot-swaps the default entry to the same
// fixture swaps times (retried dispatches). Each send checks its own
// answer; hammer reports every failed check and the answers by status,
// and fails if no request was a 200.
func hammer(t *testing.T, base, path string, swaps int, work [][]func(url string) (int, error)) {
	t.Helper()
	var mu sync.Mutex
	statuses := map[int]int{}
	errs := make(chan error, len(work)+1)
	var wg sync.WaitGroup
	wg.Add(len(work) + 1)
	swap, err := json.Marshal(V2PutModelRequest{Path: lifetimeModel})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer wg.Done()
		for k := 0; k < swaps; k++ {
			req, err := http.NewRequest(http.MethodPut, base+"/v2/models/"+DefaultModelName, bytes.NewReader(swap))
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
	for c := range work {
		go func(c int) {
			defer wg.Done()
			for k, send := range work[c] {
				status, err := send(base + path)
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
	t.Logf("answers by status: %v", statuses)
	if statuses[http.StatusOK] == 0 {
		t.Error("no request was classified")
	}
}
