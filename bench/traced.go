package main

// traced.go is the traced run (--trace 1): one set-up, a short untraced
// open-loop phase for the load generator's own diagnostics, then the first
// replayRequests requests replayed one at a time with X-Trace-Id set so the
// servers echo their spans, then the same inputs pushed through each layer
// directly (layers.go). It prints every per-layer metric and writes the
// span tree; it is never the source of an end-to-end number.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"cdl/internal/core"
	"cdl/internal/edgecloud"
	"cdl/internal/obs"
	"cdl/internal/serve"
)

// onPath reports whether the layer behind a per-layer metric is on w's
// path. Metrics of layers that are not read 0 on that workload.
func onPath(w workload, name string) bool {
	layer, _, _ := strings.Cut(name, ".")
	deep := w.Fixture == "mnist3c" // has O2 and a third segment
	switch name {
	case "nn.forward_us_per_image.seg2", "linclass.scores_us_per_image.O2", "core.stage_us_per_image.1", "core.exit_frac.O2":
		return deep
	case "core.prefix_us_per_image", "serve.resume_us_per_req":
		return w.Surface == surfaceEdge
	}
	switch layer {
	case "nn", "linclass", "core", "energy", "modelio":
		return true
	case "serve", "obs", "control", "loadgen":
		return !w.offline()
	case "fleet":
		return w.Surface == surfaceRouted
	case "wire", "edgecloud":
		return w.Surface == surfaceEdge
	}
	return false
}

// runTraced performs the traced run of w within about `seconds` seconds.
func runTraced(w workload, seed int64, seconds float64) (*outcome, error) {
	e, err := newEnv(w, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	obs.SetProfiling(true)
	defer obs.SetProfiling(false)

	o := &outcome{metrics: map[string]float64{}}
	rec := &recorder{}
	total := time.Duration(seconds * float64(time.Second))
	budget := total / 80 // one direct layer measurement
	if !w.offline() {
		if err := e.tracedServing(o, rec, seed, total/4, budget); err != nil {
			return nil, err
		}
	}
	e.layersNN(o.metrics, budget)
	if err := e.layersCore(o.metrics, rec, budget); err != nil {
		return nil, err
	}
	if err := e.layersSmall(o.metrics, budget); err != nil {
		return nil, err
	}
	o.attempted += len(e.xs)
	if n := int(o.metrics["core.batch_vs_oracle_mismatch"]); n > 0 {
		o.fail(n, fmt.Errorf("batched walk disagrees with the oracle on %d images", n))
	}

	for _, d := range perLayer {
		_, measured := o.metrics[d.Name]
		switch on := onPath(w, d.Name); {
		case on && !measured:
			return nil, fmt.Errorf("%s: layer metric %s is on the path but was not measured", w.Name, d.Name)
		case !on && measured:
			return nil, fmt.Errorf("%s: layer metric %s was measured but is declared off the path", w.Name, d.Name)
		case !on:
			o.metrics[d.Name] = 0
		}
	}
	path, err := rec.write(w, seed)
	if err != nil {
		return nil, err
	}
	o.notef("trace: %d spans in %s", len(rec.spans), path)
	self := rec.selfTimes()
	for _, name := range []string{"request", "serve.handler", "core.classify_batch"} {
		if st, ok := self[name]; ok {
			o.notef("self time of %s: %.1f of %.1f us per span over %d spans", name, st.SelfUS/float64(st.Count), st.TotalUS/float64(st.Count), st.Count)
		}
	}
	return o, nil
}

// tracedServing is the serving half of the traced run.
func (e *env) tracedServing(o *outcome, rec *recorder, seed int64, openDur, budget time.Duration) error {
	m := o.metrics

	// The load generator's own view, untraced, at the workload's fixed rate.
	open := e.openPhase(o, seed, openDur)
	lat := column(open.samples, sampleLat)
	late := column(open.samples, sampleLate)
	m["loadgen.lat_p90_ms"] = quantile(lat, 0.90)
	m["loadgen.lat_p99_ms"] = quantile(lat, 0.99)
	m["loadgen.svc_p50_ms"] = median(column(open.samples, sampleSvc))
	m["loadgen.late_p50_ms"] = median(late)
	m["loadgen.late_max_ms"] = quantile(late, 1)
	m["loadgen.sent"] = float64(len(open.samples))
	m["loadgen.ok"] = float64(len(open.samples) - open.failed)
	m["loadgen.failed"] = float64(open.failed)
	e.serverStats(m)

	// One request at a time on one connection: untraced, then traced.
	n := e.replayCount()
	untraced := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		_, err := e.do(i, "")
		untraced[i] = us(time.Since(t0))
		o.attempted++
		if err != nil {
			o.fail(1, err)
		}
	}
	traced := make([]float64, n)
	var queueUS []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := e.do(i, obs.GenerateID())
		t1 := time.Now()
		traced[i] = us(t1.Sub(t0))
		o.attempted++
		if err != nil {
			o.fail(1, err)
			continue
		}
		rec.adopt(rec.add(0, i, "request", t0, t1), resp.Spans)
		for _, sp := range resp.Spans {
			if sp.Name == "queue" || sp.Name == "cloud:queue" {
				queueUS = append(queueUS, sp.DurationMS*1e3)
			}
		}
	}
	m["loadgen.trace_overhead_frac"] = (median(traced) - median(untraced)) / median(untraced)
	// Replayed alone, a request finds the queue empty, so its echoed
	// queue span is the micro-batch window it waited out.
	m["serve.window_wait_us_p50"] = median(queueUS)

	// The same requests through the front handler without the network.
	handler, path := e.frontHandler()
	var handlerUS float64
	for i := 0; i < n; i++ {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(e.reqs[i].body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(obs.TraceHeader, obs.GenerateID())
		w := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(w, req)
		t1 := time.Now()
		handlerUS += us(t1.Sub(t0))
		o.attempted++
		var resp response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
			o.fail(1, fmt.Errorf("handler replay %d: HTTP %d: %v", i, w.Code, err))
			continue
		}
		if err := e.verify(resp.Results, e.reqs[i].lo, e.reqs[i].hi); err != nil {
			o.fail(1, err)
		}
		rec.adopt(rec.add(0, i, "serve.handler", t0, t1), resp.Spans)
	}
	handlerUS /= float64(n)
	m["serve.handler_us_per_req"] = handlerUS
	m["serve.net_us_per_req"] = median(traced) - handlerUS
	if err := e.layersIngress(m, rec); err != nil {
		return err
	}
	// The budget: what the handler's own time (its span minus the echoed
	// queue, batch and offload spans) is made of, and what is left over.
	self := rec.selfTimes()["serve.handler"]
	selfUS := self.SelfUS / float64(self.Count)
	known := m["serve.decode_us_per_req"] + m["serve.normalize_us_per_req"] + m["serve.encode_us_per_req"]
	m["serve.handler_unattributed_frac"] = (selfUS - known) / handlerUS
	o.notef("handler budget: %.1f us = %.1f us in echoed spans + %.1f decode + %.1f normalize + %.1f encode + %.1f unattributed (%.1f%%)",
		handlerUS, handlerUS-selfUS, m["serve.decode_us_per_req"], m["serve.normalize_us_per_req"], m["serve.encode_us_per_req"],
		selfUS-known, 100*m["serve.handler_unattributed_frac"])

	e.layersSinks(m, budget)
	switch e.w.Surface {
	case surfaceRouted:
		e.tracedRouter(o, n)
	case surfaceEdge:
		if err := e.layersWire(m, budget); err != nil {
			return err
		}
		if err := e.tracedEdge(o, n); err != nil {
			return err
		}
	}
	return nil
}

// frontHandler is the handler of the tier that decodes the images: the
// server itself, a backend behind the router, or the edge front.
func (e *env) frontHandler() (http.Handler, string) {
	if e.edge != nil {
		return e.edge.Handler(), "/v1/classify"
	}
	return e.cloud.Handler(), "/v2/models/" + modelName + "/classify"
}

// serverStats reads the counters the servers already keep, after the
// open-loop phase: queue wait and service time per image, shed and invalid
// counts, and the batch an image rode in (from the flight recorder ring).
func (e *env) serverStats(m map[string]float64) {
	servers := e.backends
	if len(servers) == 0 {
		servers = []*serve.Server{e.cloud}
	}
	st := e.cloud.Stats()
	m["serve.queue_wait_ms_p50"] = st.QueueLatency.P50MS
	m["serve.service_ms_p50"] = st.ServiceLatency.P50MS
	var rejected, invalid, cancelled int64
	batch, records := 0, 0
	for _, s := range servers {
		st := s.Stats()
		rejected += st.Rejected
		invalid += st.Invalid
		cancelled += st.Cancelled
		for _, fr := range s.Registry().Flights().Recorder(modelName).Query(obs.FlightQuery{Limit: 256}) {
			batch += fr.BatchSize
			records++
		}
	}
	m["serve.rejected"] = float64(rejected)
	m["serve.invalid"] = float64(invalid)
	m["serve.cancelled"] = float64(cancelled)
	m["serve.batch_size_mean"] = 0
	if records > 0 {
		m["serve.batch_size_mean"] = float64(batch) / float64(records)
	}
	m["serve.first_req_ms"] = e.firstMS
}

// tracedRouter measures the router hop by alternating the same request
// between a backend and the router on one connection each, then reads the
// router's own counters.
func (e *env) tracedRouter(o *outcome, n int) {
	direct := e.backURLs[0] + "/v2/models/" + modelName + "/classify"
	hop := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		_, err := e.target.post(direct, e.reqs[i].body, "")
		t1 := time.Now()
		_, err2 := e.do(i, "")
		t2 := time.Now()
		o.attempted += 2
		if err != nil || err2 != nil {
			o.fail(1, fmt.Errorf("paired request %d: direct %v, routed %v", i, err, err2))
			continue
		}
		hop = append(hop, ms(t2.Sub(t1))-ms(t1.Sub(t0)))
	}
	m := o.metrics
	m["fleet.hop_ms_p50"] = median(hop)
	st := e.router.Stats()
	var attempts, most int64
	for _, b := range st.Backends {
		attempts += b.Requests
		if b.Requests > most {
			most = b.Requests
		}
	}
	var requests, sheds int64
	for _, mod := range st.Models {
		requests += mod.Requests
		sheds += mod.Sheds
	}
	m["fleet.attempts_per_req"] = float64(attempts) / float64(requests)
	m["fleet.backend_share_max"] = float64(most) / float64(attempts)
	m["fleet.shed"] = float64(sheds)
}

// tracedEdge measures the edge-to-cloud hop three ways: the /resume
// endpoint alone with pre-encoded payloads, the transport's round trip,
// and a whole Edge over HTTP against the same Edge over an in-process
// loopback; then reads the edge front's counters.
func (e *env) tracedEdge(o *outcome, n int) error {
	m := o.metrics
	cloudURL := e.backURLs[0]
	sess, err := core.NewSession(e.model)
	if err != nil {
		return err
	}
	httpT := edgecloud.NewHTTPModelTransport(cloudURL, modelName)
	loop, err := edgecloud.NewLoopback(e.model)
	if err != nil {
		return err
	}
	cfg := edgecloud.DefaultConfig(edgeSplit)
	overHTTP, err := edgecloud.New(e.model, httpT, cfg)
	if err != nil {
		return err
	}
	overLoop, err := edgecloud.New(e.model, loop, cfg)
	if err != nil {
		return err
	}
	var resumeUS float64
	var rtt, hop []float64
	resumes := 0
	for i := 0; i < n; i++ {
		rq := e.reqs[i]
		payloads, idx, err := e.offloads(sess, rq)
		if err != nil {
			return err
		}
		if len(payloads) > 0 {
			b64 := make([]string, len(payloads))
			for k, p := range payloads {
				b64[k] = base64.StdEncoding.EncodeToString(p)
			}
			d := e.w.Delta
			body, err := json.Marshal(serve.V2ResumeRequest{Payloads: b64, Policy: &serve.PolicyRequest{Delta: &d}})
			if err != nil {
				return err
			}
			t0 := time.Now()
			raw, err := e.target.post(cloudURL+"/v2/models/"+modelName+"/resume", body, "")
			resumeUS += us(time.Since(t0))
			resumes++
			o.attempted++
			var resp response
			if err == nil {
				err = json.Unmarshal(raw, &resp)
			}
			if err == nil && len(resp.Results) != len(idx) {
				err = fmt.Errorf("%d results for %d payloads", len(resp.Results), len(idx))
			}
			for k := 0; err == nil && k < len(idx); k++ {
				err = e.verify(resp.Results[k:k+1], idx[k], idx[k]+1)
			}
			if err != nil {
				o.fail(1, fmt.Errorf("resume %d: %w", i, err))
			}
			t0 = time.Now()
			if _, err := httpT.ResumeBatch(payloads, e.w.Delta); err != nil {
				o.fail(1, err)
			}
			rtt = append(rtt, ms(time.Since(t0)))
		}
		t0 := time.Now()
		viaHTTP, err1 := overHTTP.ClassifyBatchPolicy(e.xs[rq.lo:rq.hi], e.pol)
		t1 := time.Now()
		viaLoop, err2 := overLoop.ClassifyBatchPolicy(e.xs[rq.lo:rq.hi], e.pol)
		t2 := time.Now()
		o.attempted += 2
		if err1 != nil || err2 != nil {
			o.fail(1, fmt.Errorf("edge pair %d: http %v, loopback %v", i, err1, err2))
			continue
		}
		for k := range viaHTTP {
			if want := e.oracle[rq.lo+k]; !viaHTTP[k].Record.Equal(want) || !viaLoop[k].Record.Equal(want) {
				o.fail(1, fmt.Errorf("edge pair image %d: http %+v, loopback %+v, oracle %+v", rq.lo+k, viaHTTP[k].Record, viaLoop[k].Record, want))
			}
		}
		hop = append(hop, ms(t1.Sub(t0))-ms(t2.Sub(t1)))
	}
	if resumes == 0 {
		return fmt.Errorf("none of the first %d requests offloads an input", n)
	}
	m["serve.resume_us_per_req"] = resumeUS / float64(resumes)
	m["edgecloud.offload_rtt_ms_p50"] = median(rtt)
	m["edgecloud.hop_ms_p50"] = median(hop)
	st := e.edge.Stats()
	m["edgecloud.offload_frac"] = st.Tier.OffloadFraction
	m["edgecloud.payloads_per_req"] = float64(st.Offloads) / float64(st.Requests)
	m["edgecloud.cloud_errors"] = float64(st.CloudErrors)
	m["edgecloud.rejected"] = float64(st.Rejected)
	return nil
}
