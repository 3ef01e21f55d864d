package main

// spec.go is the benchmark's declaration: the six workloads, the fixed
// conditions they run under, and every metric name the program may print.
// BENCHMARK.json at the repository root is generated from it
// (`go run . -manifest`) and pinned to it by TestManifestMatchesSpec.

import (
	"encoding/json"
	"fmt"
)

// surface is what a workload's traffic enters through.
type surface int

const (
	surfaceSession surface = iota // in-process core.Session
	surfaceServe                  // a direct serve.Server
	surfaceRouted                 // fleet.Router over two serve.Server backends
	surfaceEdge                   // edgecloud.Server offloading to a cloud serve.Server
)

// modelName is the registry entry every serving workload classifies on.
const modelName = "m3c"

// testImages is the size of the generated test split.
const testImages = 1500

// replayRequests is how many of a workload's first requests (images, for an
// offline workload) warm it up during set-up and are replayed, with spans
// recorded, by the traced run.
const replayRequests = 256

// The tests shrink these two to stay inside tier-1's time budget.
var (
	// splitImages is the number of test images a run generates.
	splitImages = testImages
	// setupRepeats is how many times a run sets up from scratch; setup_s
	// is the median, so one slow page-in does not read as a regression.
	setupRepeats = 3
)

// offlineBatch is the batch the offline workloads classify per call.
const offlineBatch = 32

// workload fixes one set of inputs and the surface they run through.
type workload struct {
	Name string
	Why  string
	// Fixture is the checked-in model: "mnist2c" (Arch6) or "mnist3c" (Arch8).
	Fixture string
	Surface surface
	// Delta overrides the trained thresholds when ≥ 0.
	Delta float64
	// ImagesPerReq is the images in one request (one call for offline).
	ImagesPerReq int
	// Rate is the fixed open-loop arrival rate in requests/s. It is a
	// constant of the benchmark and is never tuned to the machine.
	Rate float64
}

func (w workload) offline() bool { return w.Surface == surfaceSession }

var workloads = []workload{
	{
		Name: "offline-mix", Fixture: "mnist3c", Surface: surfaceSession, Delta: -1, ImagesPerReq: offlineBatch,
		Why: "Paper's evaluation: MNIST_3C, trained delta, batch 32 then batch-of-1; ~93% exit at O1, so stage-0 conv, O1 and compaction do the work; serve/fleet/edgecloud do none.",
	},
	{
		Name: "offline-deep", Fixture: "mnist2c", Surface: surfaceSession, Delta: 1, ImagesPerReq: offlineBatch,
		Why: "MNIST_2C at delta=1: every input runs to FC, no exits, no compaction, heavy C2/FC GEMM; a kernel win shows most here, an early-exit trick that taxes full depth shows as a loss.",
	},
	{
		Name: "serve-single", Fixture: "mnist3c", Surface: surfaceServe, Delta: -1, ImagesPerReq: 1, Rate: 400,
		Why: "POST /v2 classify, 1 image (10 KB JSON), direct server, open loop 400 req/s: accept, queue, batch window, telemetry sinks and encode dominate; bypasses decode volume and GEMM.",
	},
	{
		Name: "serve-batch16", Fixture: "mnist3c", Surface: surfaceServe, Delta: -1, ImagesPerReq: 16, Rate: 120,
		Why: "Same endpoint, 16 images (157 KB JSON), open loop 120 req/s: JSON float decode and NormalizeImages dominate; a small-request win that costs large bodies shows here.",
	},
	{
		Name: "routed-single", Fixture: "mnist3c", Surface: surfaceRouted, Delta: -1, ImagesPerReq: 1, Rate: 400,
		Why: "serve-single traffic through fleet.Router (hedging off) over 2 backends, open loop 400 req/s: routed minus direct is the router budget (pick, forward, copy, probes).",
	},
	{
		Name: "edge-split", Fixture: "mnist3c", Surface: surfaceEdge, Delta: 0.95, ImagesPerReq: 8, Rate: 100,
		Why: "edgecloud.Server split at stage 1, f64 wire, 8 images, delta 0.95 so ~97% of requests offload, open loop 100 req/s: only user of prefix walk, wire codec, /resume and tiered energy.",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDecl declares one metric. Bound is set for end-to-end metrics only:
// the share of the parent's median by which the metric may worsen.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one driver run measures.
const runSeconds = 12

// endToEnd are the metrics a user of the system sees; every workload
// prints all of them (see README.md for what each means per workload).
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"images_per_s", "img/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.20},
	{"alloc_kb_per_image", "KiB/img", "lower", 0.05},
	{"accuracy", "fraction", "higher", 0.03},
	{"norm_ops", "fraction", "lower", 0.04},
	{"pj_per_image", "pJ", "lower", 0.06},
}

// perLayer are the single-layer metrics of the traced run, named
// <package>.<what>. A layer that is not on a workload's path reads 0 there.
var perLayer = []metricDecl{
	{"nn.forward_us_per_image.seg0", "us", "lower", 0},
	{"nn.forward_us_per_image.seg1", "us", "lower", 0},
	{"nn.forward_us_per_image.seg2", "us", "lower", 0},
	{"nn.forward_single_us", "us", "lower", 0},
	{"nn.im2col_us_per_image", "us", "lower", 0},
	{"nn.gemm_us_per_image", "us", "lower", 0},
	{"nn.gemm_gflops", "GFLOP/s", "higher", 0},
	{"nn.gemm_flop_per_image", "count", "lower", 0},
	{"nn.walk_im2col_us_per_image", "us", "lower", 0},
	{"nn.walk_gemm_us_per_image", "us", "lower", 0},
	{"linclass.walk_us_per_image", "us", "lower", 0},
	{"linclass.scores_us_per_image.O1", "us", "lower", 0},
	{"linclass.scores_us_per_image.O2", "us", "lower", 0},
	{"core.classify_batch_us_per_image", "us", "lower", 0},
	{"core.stage_us_per_image.0", "us", "lower", 0},
	{"core.stage_us_per_image.1", "us", "lower", 0},
	{"core.stage_us_per_image.final", "us", "lower", 0},
	{"core.self_us_per_image", "us", "lower", 0},
	{"core.allocs_per_batch", "count", "lower", 0},
	{"core.bytes_per_batch", "B", "lower", 0},
	{"core.exit_frac.O1", "fraction", "higher", 0},
	{"core.exit_frac.O2", "fraction", "higher", 0},
	{"core.exit_frac.FC", "fraction", "lower", 0},
	{"core.batch_vs_oracle_mismatch", "count", "lower", 0},
	{"core.prefix_us_per_image", "us", "lower", 0},
	{"core.new_session_ms", "ms", "lower", 0},
	{"energy.add_ns_per_record", "ns", "lower", 0},
	{"modelio.load_ms.2c", "ms", "lower", 0},
	{"modelio.load_ms.3c", "ms", "lower", 0},
	{"serve.decode_us_per_req", "us", "lower", 0},
	{"serve.normalize_us_per_req", "us", "lower", 0},
	{"serve.req_kb", "KiB", "lower", 0},
	{"serve.encode_us_per_req", "us", "lower", 0},
	{"serve.resp_kb", "KiB", "lower", 0},
	{"serve.handler_us_per_req", "us", "lower", 0},
	{"serve.handler_unattributed_frac", "fraction", "lower", 0},
	{"serve.net_us_per_req", "us", "lower", 0},
	{"serve.queue_wait_ms_p50", "ms", "lower", 0},
	{"serve.service_ms_p50", "ms", "lower", 0},
	{"serve.batch_size_mean", "count", "higher", 0},
	{"serve.window_wait_us_p50", "us", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.invalid", "count", "lower", 0},
	{"serve.cancelled", "count", "lower", 0},
	{"serve.first_req_ms", "ms", "lower", 0},
	{"serve.resume_us_per_req", "us", "lower", 0},
	{"obs.trace_record_ns", "ns", "lower", 0},
	{"obs.flight_record_ns", "ns", "lower", 0},
	{"control.window_observe_ns_per_batch", "ns", "lower", 0},
	{"fleet.hop_ms_p50", "ms", "lower", 0},
	{"fleet.attempts_per_req", "count", "lower", 0},
	{"fleet.backend_share_max", "fraction", "lower", 0},
	{"fleet.shed", "count", "lower", 0},
	{"wire.encode_us", "us", "lower", 0},
	{"wire.decode_us", "us", "lower", 0},
	{"wire.bytes_per_payload", "B", "lower", 0},
	{"edgecloud.offload_frac", "fraction", "lower", 0},
	{"edgecloud.payloads_per_req", "count", "lower", 0},
	{"edgecloud.offload_rtt_ms_p50", "ms", "lower", 0},
	{"edgecloud.hop_ms_p50", "ms", "lower", 0},
	{"edgecloud.cloud_errors", "count", "lower", 0},
	{"edgecloud.rejected", "count", "lower", 0},
	{"loadgen.lat_p90_ms", "ms", "lower", 0},
	{"loadgen.lat_p99_ms", "ms", "lower", 0},
	{"loadgen.svc_p50_ms", "ms", "lower", 0},
	{"loadgen.late_p50_ms", "ms", "lower", 0},
	{"loadgen.late_max_ms", "ms", "lower", 0},
	{"loadgen.sent", "count", "higher", 0},
	{"loadgen.ok", "count", "higher", 0},
	{"loadgen.failed", "count", "lower", 0},
	{"loadgen.trace_overhead_frac", "fraction", "lower", 0},
}

// declsFor returns the metrics a run of the given kind must print.
func declsFor(traced bool) []metricDecl {
	if traced {
		return perLayer
	}
	return endToEnd
}

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wl         `json:"workloads"`
		EndToEnd   []metricDecl `json:"end_to_end"`
		PerLayer   []metricDecl `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
