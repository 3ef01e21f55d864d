// Command serveload is a closed-loop load client for cdlserve and
// cdlrouter: -c clients post -n generated MNIST images, -batch per request,
// round robin to /v2/models/{m}/classify over the -model names. It prints
// throughput, latency, accuracy, mean normalized OPS and each model's exit
// distribution (a routed model's "even/O1" exits show its branch split),
// and fails on any answer but a 200.
//
//	go run ./examples/serveload -addr http://localhost:8080 -n 2000 -c 8 -batch 16 -delta 0.5 -model fast,accurate
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"cdl/internal/mnist"
	"cdl/internal/serve"
	"cdl/internal/train"
)

type result struct {
	Label         int     `json:"label"`
	Exit          string  `json:"exit"`
	NormalizedOps float64 `json:"normalized_ops"`
}

// summary is one run as the client saw it; Exits is model → exit → images.
type summary struct {
	Correct    int
	SumNormOps float64
	Latencies  []time.Duration // one per request, sorted
	Elapsed    time.Duration
	Exits      map[string]map[string]int
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "server base URL")
	n := flag.Int("n", 2000, "total images to send")
	clients := flag.Int("c", 8, "concurrent clients")
	batch := flag.Int("batch", 16, "images per request")
	delta := flag.Float64("delta", -1, "per-request δ override (-1 = server default)")
	model := flag.String("model", serve.DefaultModelName, "comma-separated model names to round-robin over")
	seed := flag.Int64("seed", 1, "dataset seed")
	flag.Parse()
	models := strings.Split(*model, ",")
	s, err := run(*addr, *n, *clients, *batch, *delta, *seed, models)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(1)
	}
	q := func(p int) time.Duration { return s.Latencies[(len(s.Latencies)-1)*p/100].Round(time.Microsecond) }
	fmt.Printf("sent %d images in %d requests (%d clients, batch %d) in %v: %.0f images/s\n", *n,
		len(s.Latencies), *clients, *batch, s.Elapsed.Round(time.Millisecond), float64(*n)/s.Elapsed.Seconds())
	fmt.Printf("request latency: p50 %v  p95 %v  p99 %v\naccuracy vs generated labels: %.4f\nmean normalized OPS: %.3f\n",
		q(50), q(95), q(99), float64(s.Correct)/float64(*n), s.SumNormOps/float64(*n))
	for _, m := range models {
		total, pct := 0, map[string]string{}
		for _, c := range s.Exits[m] {
			total += c
		}
		for e, c := range s.Exits[m] {
			pct[e] = fmt.Sprintf("%.1f%%", 100*float64(c)/float64(total))
		}
		fmt.Printf("exit distribution %s: %v\n", m, pct)
	}
}

// run posts request r, images [r·batch, (r+1)·batch) of seed's test set, to
// models[r mod len(models)] and tallies the answers in image order.
func run(addr string, n, clients, batch int, delta float64, seed int64, models []string) (*summary, error) {
	if n < 1 || clients < 1 || batch < 1 || len(models) == 0 || slices.Contains(models, "") {
		return nil, fmt.Errorf("n, c and batch must be positive and every model named")
	}
	_, test, err := mnist.GenerateSamples(1, n, seed)
	if err != nil {
		return nil, err
	}
	reqs := (n + batch - 1) / batch
	outs, errs, lats := make([][]result, reqs), make([]error, reqs), make([]time.Duration, reqs)
	var wg sync.WaitGroup
	inflight, start := make(chan struct{}, clients), time.Now()
	for r := range reqs {
		inflight <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-inflight; wg.Done() }()
			t0 := time.Now()
			outs[r], errs[r] = post(addr, models[r%len(models)], test[r*batch:min((r+1)*batch, n)], delta)
			lats[r] = time.Since(t0)
		}()
	}
	wg.Wait()
	if err := cmp.Or(errs...); err != nil { // the first failure, in request order
		return nil, err
	}
	s := &summary{Latencies: lats, Elapsed: time.Since(start), Exits: map[string]map[string]int{}}
	slices.Sort(lats)
	for _, m := range models {
		s.Exits[m] = map[string]int{}
	}
	for i, res := range slices.Concat(outs...) {
		if res.Label == test[i].Label {
			s.Correct++
		}
		s.SumNormOps += res.NormalizedOps
		s.Exits[models[i/batch%len(models)]][res.Exit]++
	}
	return s, nil
}

// post classifies one batch and returns one result per image.
func post(addr, model string, batch []train.Sample, delta float64) ([]result, error) {
	images := make([][]float64, len(batch))
	for i, s := range batch {
		images[i] = s.X.Data
	}
	req, url := map[string]any{"images": images}, addr+"/v2/models/"+model+"/classify"
	if delta >= 0 {
		req["policy"] = map[string]float64{"delta": delta}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Timeout: 30 * time.Second}).Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct{ Results []result }
	payload, err := io.ReadAll(resp.Body)
	if err == nil && (resp.StatusCode != http.StatusOK || json.Unmarshal(payload, &out) != nil || len(out.Results) != len(batch)) {
		err = fmt.Errorf("%s: HTTP %d for %d images: %.300s", url, resp.StatusCode, len(batch), bytes.TrimSpace(payload))
	}
	return out.Results, err
}
