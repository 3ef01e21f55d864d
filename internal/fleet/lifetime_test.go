package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"cdl/internal/core"
	"cdl/internal/edgecloud"
	"cdl/internal/obs"
	"cdl/internal/serve"
)

// TestTraceGoesBackAfterTheResponse pins the lifetime of a request's trace,
// which obs.Middleware takes from a pool before the handler and gives back
// after it: no request's spans reach another's answer. Clients interleave
// requests that pin X-Trace-Id, ask for detail "trace" or ask for neither,
// some with 1 ms deadlines and every other one at δ 1 (to the FC), against
// one server whose local entry and split entry (over a Loopback) each run
// one saturated worker; a third of them go through a router in front of
// it. Every answer carries an X-Trace-Id,
// an untraced 200 carries no spans, and a traced 200 carries exactly the
// span names its own exit records imply — queue and batch once per batch
// it rode in, each stage its images reached, and on the split entry the
// edge's stages, the offload and the cloud's stages — each span inside
// the time between the request's send and its answer. Run under -race in
// CI.
func TestTraceGoesBackAfterTheResponse(t *testing.T) {
	const split, clients, perClient = 1, 6, 24
	cdln, data := testCDLN(t, 38)
	reg := serve.NewRegistry(serve.Config{Workers: 1, MaxBatch: 4, QueueDepth: 6})
	if _, err := reg.Register("local", cdln); err != nil {
		t.Fatal(err)
	}
	if _, err := edgecloud.Register(reg, "split", core.LinearGraph(cdln),
		func() (edgecloud.Transport, error) { return edgecloud.NewLoopback(cdln) }, edgecloud.DefaultConfig(split)); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewWithRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	rt, err := New(Config{Backends: []string{ts.URL}, ProbeInterval: 25 * time.Millisecond, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close() })

	// Every other request runs to the FC (δ 1), so the split entry offloads.
	deep := 1.0
	var mu sync.Mutex
	statuses := map[string]int{}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				entry, base := "local", ts.URL
				switch (c + k) % 3 {
				case 1:
					entry = "split"
				case 2:
					base = front.URL
					if k%2 == 1 {
						entry = "split"
					}
				}
				req := serve.V2ClassifyRequest{Images: sampleImages(data, 7*c+k, 1+(c+k)%3)}
				var pol serve.PolicyRequest
				if k%2 == 1 {
					pol.Delta = &deep
				}
				pin := ""
				switch k % 3 {
				case 0:
					pin = "life-" + strconv.Itoa(c) + "-" + strconv.Itoa(k)
				case 1:
					pol.Detail = serve.DetailTrace
				}
				if pol.Delta != nil || pol.Detail != "" {
					req.Policy = &pol
				}
				if k%4 == 3 {
					req.TimeoutMS = 1
				}
				status, err := sendTraced(base+"/v2/models/"+entry+"/classify", pin, req, len(cdln.Stages), entry == "split", split)
				if err != nil {
					errs <- fmt.Errorf("client %d request %d (%s via %s): %v", c, k, entry, base, err)
					return
				}
				mu.Lock()
				statuses[entry+" "+strconv.Itoa(status)]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("answers by entry and status: %v", statuses)
	if statuses["local 200"] == 0 || statuses["split 200"] == 0 {
		t.Error("an entry classified nothing")
	}
}

// sendTraced posts req (under X-Trace-Id pin, when set) and checks the
// answer's trace as TestTraceGoesBackAfterTheResponse states.
func sendTraced(url, pin string, req serve.V2ClassifyRequest, stages int, isSplit bool, split int) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if pin != "" {
		hreq.Header.Set(obs.TraceHeader, pin)
	}
	sent := time.Now()
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	answered := time.Now()
	if err != nil {
		return 0, err
	}
	if id := resp.Header.Get(obs.TraceHeader); !obs.ValidID(id) || pin != "" && id != pin {
		return resp.StatusCode, fmt.Errorf("X-Trace-Id %q (pinned %q)", id, pin)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return resp.StatusCode, nil
	default:
		return resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw)
	}
	var out serve.V2ClassifyResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return resp.StatusCode, err
	}
	traced := pin != "" || req.Policy != nil && req.Policy.Detail == serve.DetailTrace
	switch {
	case !traced && (out.TraceID != "" || out.Spans != nil):
		return resp.StatusCode, fmt.Errorf("untraced request answered trace %q with %d spans", out.TraceID, len(out.Spans))
	case !traced:
		return resp.StatusCode, nil
	case out.TraceID == "" || pin != "" && out.TraceID != pin:
		return resp.StatusCode, fmt.Errorf("trace_id %q (pinned %q)", out.TraceID, pin)
	}
	count := map[string]int{}
	for _, sp := range out.Spans {
		count[sp.Name]++
		end := sp.StartUnixNS + int64(sp.DurationMS*float64(time.Millisecond))
		if sp.StartUnixNS < sent.UnixNano() || end > answered.UnixNano() {
			return resp.StatusCode, fmt.Errorf("span %+v outside the request's [%d, %d]", sp, sent.UnixNano(), answered.UnixNano())
		}
	}
	var names []string
	for name, n := range count {
		names = append(names, name)
		if n > count["batch"] {
			return resp.StatusCode, fmt.Errorf("%d %q spans in %d batches: %+v", n, name, count["batch"], out.Spans)
		}
	}
	slices.Sort(names)
	if want := spanNames(out.Results, stages, isSplit, split); !slices.Equal(names, want) || count["queue"] != count["batch"] || count["batch"] > len(out.Results) {
		return resp.StatusCode, fmt.Errorf("spans %v of %d images, their records want one run of %v: %+v", count, len(out.Results), want, out.Spans)
	}
	return resp.StatusCode, nil
}

// spanNames is the sorted set of span names a request whose images exited
// as results implies: queue and batch, each trunk stage its deepest exit
// passed and the FC when one exited there; on a split entry the stages
// before the split are the edge's, and an offload brings the hop and the
// cloud's stages.
func spanNames(results []serve.V2Result, stages int, isSplit bool, split int) []string {
	deepest := 0
	for _, r := range results {
		deepest = max(deepest, r.ExitIndex)
	}
	names := []string{"queue", "batch"}
	tier := func(stage int) string {
		switch {
		case !isSplit:
			return ""
		case stage < split:
			return "edge:"
		default:
			return "cloud:"
		}
	}
	for i := 0; i <= min(deepest, stages-1); i++ {
		names = append(names, tier(i)+"stage:trunk#"+strconv.Itoa(i))
	}
	if deepest == stages {
		names = append(names, tier(stages)+"fc:trunk")
	}
	if isSplit && deepest >= split {
		names = append(names, "edge:offload")
	}
	slices.Sort(names)
	return names
}
