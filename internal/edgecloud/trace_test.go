package edgecloud

// trace_test.go pins the cross-tier tracing contract: one request entering
// a routed edge front under one trace ID must come back with a single
// merged span tree — the edge's prefix walk ("edge:stage:…",
// "edge:route:…"), the wire hop ("edge:offload") and the cloud's pool and
// cascade spans ("cloud:queue", "cloud:batch", "cloud:stage:…") — whether
// the cloud is a real serve.Server over HTTP or an in-process loopback.

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/fixed"
	"cdl/internal/linclass"
	"cdl/internal/nn"
	"cdl/internal/obs"
	"cdl/internal/opcount"
	"cdl/internal/serve"
	"cdl/internal/train"
)

// branchCDLN builds an untrained branch cascade over the trunk's tap-3
// shape [2,5,5] (testCDLN's P1 output) — routing mechanics, not accuracy.
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
		Name: "edge-branch", Net: net,
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

// routedEdgeGraph mirrors serve's routed fixture: the trained trunk with a
// stage-0 route sending class 0 to "lo" and class 2 to "hi". The threshold
// rule plus a δ near 1 suppresses trunk exits so the router actually
// fires.
func routedEdgeGraph(t testing.TB, seed int64) (*core.Graph, []train.Sample) {
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

// checkSpans applies the span-completeness contract and returns the name
// set: every span named, closed and ordered by start.
func checkSpans(t *testing.T, spans []obs.Span) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	for i, sp := range spans {
		if sp.Name == "" || sp.StartUnixNS == 0 {
			t.Errorf("span %d incomplete: %+v", i, sp)
		}
		if sp.DurationMS < 0 {
			t.Errorf("span %d not closed: %+v", i, sp)
		}
		if i > 0 && sp.StartUnixNS < spans[i-1].StartUnixNS {
			t.Errorf("span %d out of order", i)
		}
		names[sp.Name] = true
	}
	return names
}

// TestCrossTierSpanTree is the acceptance test for distributed tracing:
// routed graph, real HTTP between the tiers, a pinned 32-hex trace ID.
// Every response must carry the pinned ID with a complete ordered tree,
// and across the batch the tree must surface the edge stage, the route
// decision, the wire hop and the cloud's queue/batch/stage spans.
func TestCrossTierSpanTree(t *testing.T) {
	g, data := routedEdgeGraph(t, 81)

	reg := serve.NewRegistry(serve.Config{Workers: 2})
	if _, err := reg.RegisterGraph(serve.DefaultModelName, g); err != nil {
		t.Fatal(err)
	}
	cloud, err := serve.NewWithRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	cloudTS := httptest.NewServer(cloud.Handler())
	t.Cleanup(func() { cloudTS.Close(); cloud.Close() })

	edgeSrv := splitServer(t, g,
		func() (Transport, error) { return NewHTTPModelTransport(cloudTS.URL, serve.DefaultModelName), nil },
		Config{SplitStage: 1, Delta: -1}, 1)
	t.Cleanup(edgeSrv.Close)
	edgeTS := httptest.NewServer(edgeSrv.Handler())
	t.Cleanup(edgeTS.Close)

	const routingDelta = 0.999
	seen := make(map[string]bool)
	offloaded := false
	for i := 0; i < 12; i++ {
		id := strings.Repeat("0", 30) + strconv.Itoa(10+i) // 32 hex chars
		d := routingDelta
		body, _ := json.Marshal(serve.ClassifyRequest{
			Images: [][]float64{data[i].X.Flatten().Data},
			Delta:  &d,
		})
		hreq, err := http.NewRequest(http.MethodPost, edgeTS.URL+"/v1/classify", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set(obs.TraceHeader, id)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		var out serve.ClassifyResponse
		derr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if derr != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("image %d: HTTP %d, %v", i, resp.StatusCode, derr)
		}
		if resp.Header.Get(obs.TraceHeader) != id {
			t.Fatalf("image %d: header echo %q, want %q", i, resp.Header.Get(obs.TraceHeader), id)
		}
		if out.TraceID != id {
			t.Fatalf("image %d: body trace_id %q, want %q", i, out.TraceID, id)
		}
		names := checkSpans(t, out.Spans)
		if !names["edge:stage:trunk#0"] {
			t.Errorf("image %d: no edge prefix stage span: %v", i, names)
		}
		hasCloud := false
		for n := range names {
			seen[n] = true
			if strings.HasPrefix(n, "cloud:") {
				hasCloud = true
			}
		}
		if hasCloud {
			offloaded = true
			// A cloud span in the merged tree proves the pinned ID crossed
			// the HTTP hop: the cloud only ships spans for propagated IDs.
			if !names["edge:offload"] {
				t.Errorf("image %d: cloud spans without a wire-hop span: %v", i, names)
			}
			if !names["cloud:queue"] || !names["cloud:batch"] {
				t.Errorf("image %d: cloud pool spans missing: %v", i, names)
			}
		}
	}
	if !offloaded {
		t.Fatal("no request offloaded; split fixture degenerate")
	}
	routeSeen := false
	for n := range seen {
		if strings.HasPrefix(n, "edge:route:trunk->") {
			routeSeen = true
		}
	}
	if !routeSeen {
		t.Error("no route-decision span across 12 routed requests")
	}
	cloudStage := false
	for n := range seen {
		if strings.HasPrefix(n, "cloud:stage:") || strings.HasPrefix(n, "cloud:fc:") || strings.HasPrefix(n, "cloud:forced:") {
			cloudStage = true
		}
	}
	if !cloudStage {
		t.Error("no cloud cascade stage span across offloaded requests")
	}
}

// TestLoopbackTraceSpans covers the headerless in-process cloud: an Edge
// with an attached trace must merge the loopback's cascade spans under the
// "cloud:" prefix and record the hop; untraced it returns no spans.
func TestLoopbackTraceSpans(t *testing.T) {
	cdln, data := testCDLN(t, 82)
	lb, err := NewLoopback(cdln)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := New(cdln, lb, Config{SplitStage: 1, Delta: -1})
	if err != nil {
		t.Fatal(err)
	}
	// δ≈1 forces the offload so the trace always crosses the "hop".
	tr := obs.NewTrace("loopback-trace", true)
	edge.AttachTrace(tr)
	defer edge.AttachTrace(nil)
	if _, err := classifyOne(edge, data[0].X, 0.9999); err != nil {
		t.Fatal(err)
	}
	names := checkSpans(t, tr.Spans())
	for _, want := range []string{"edge:stage:trunk#0", "edge:offload"} {
		if !names[want] {
			t.Fatalf("missing %q in %v", want, names)
		}
	}
	cloudSpan := false
	for n := range names {
		if strings.HasPrefix(n, "cloud:") {
			cloudSpan = true
		}
	}
	if !cloudSpan {
		t.Fatalf("no cloud spans merged from the loopback: %v", names)
	}

	// Untraced, the loopback observes nothing; a cap above a payload's
	// resume depth is refused as the cloud route refuses it, not panicked on.
	sess, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	pre := sess.ClassifyPrefixBatchPolicy(tensorsOf(data[:1]), 1, core.DeltaPolicy(0.9999))[0]
	payload, err := wire.Encode(wire.Activation{FromStage: 1, Pos: pre.Pos, Shape: pre.Activation.Shape(), Data: pre.Activation.Data},
		wire.EncodingFloat64, fixed.Q2x13)
	if err != nil {
		t.Fatal(err)
	}
	if recs, spans, err := lb.Resume([][]byte{payload}, core.DeltaPolicy(0.9999), ""); err != nil || len(recs) != 1 || spans != nil {
		t.Errorf("untraced resume: %d records, spans %v, %v; want 1 record and no spans", len(recs), spans, err)
	}
	if _, _, err := lb.Resume([][]byte{payload}, core.DepthCapped(0), ""); err == nil || !strings.Contains(err.Error(), "resume depth 1") {
		t.Errorf("cap 0 on a stage-1 payload: %v, want a refusal naming resume depth 1", err)
	}
}

// TestOffloadShipsNoTraceBytes pins the hop's bytes: a trace ID crosses the
// split beside the payloads, never inside them. With a generated ID and with
// a client-pinned one, over HTTP and over the loopback, every offloaded
// Result is charged exactly wire.EncodedSizeAt of its handoff (node, rank,
// numel), and the cloud's spans still merge under "cloud:".
func TestOffloadShipsNoTraceBytes(t *testing.T) {
	g, data := routedEdgeGraph(t, 83)
	reg := serve.NewRegistry(serve.Config{Workers: 2})
	if _, err := reg.RegisterGraph(serve.DefaultModelName, g); err != nil {
		t.Fatal(err)
	}
	cloud, err := serve.NewWithRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	cloudTS := httptest.NewServer(cloud.Handler())
	t.Cleanup(func() { cloudTS.Close(); cloud.Close() })
	loop, err := NewGraphLoopback(g)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{SplitStage: 1, Delta: -1}
	pol := core.DeltaPolicy(0.999) // suppresses trunk exits, so inputs route
	xs := tensorsOf(data[:24])
	// Each input's handoff, walked by a session of the test's own.
	sess, err := core.NewGraphSession(g)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(xs)) // 0: the input exits on the edge
	offloads, routed := 0, 0
	for i, pre := range sess.ClassifyPrefixBatchPolicy(xs, cfg.SplitStage, pol) {
		if pre.Exited {
			continue
		}
		want[i] = wire.EncodedSizeAt(pre.Node, len(pre.Activation.Shape()), len(pre.Activation.Data), wire.EncodingFloat64)
		offloads++
		if pre.Node != 0 {
			routed++
		}
	}
	if offloads == 0 || routed == 0 {
		t.Fatalf("%d offloads, %d of them routed; the fixture must offload to a branch", offloads, routed)
	}

	for _, tp := range []struct {
		name      string
		transport Transport
	}{{"http", NewHTTPModelTransport(cloudTS.URL, serve.DefaultModelName)}, {"loopback", loop}} {
		for _, tr := range []*obs.Trace{obs.NewTrace(obs.GenerateID(), false), obs.NewTrace("client-pinned-7", true)} {
			edge, err := NewGraph(g, tp.transport, cfg)
			if err != nil {
				t.Fatal(err)
			}
			edge.AttachTrace(tr)
			results, err := edge.ClassifyBatchPolicy(xs, pol)
			if err != nil {
				t.Fatalf("%s, trace %q: %v", tp.name, tr.ID(), err)
			}
			for i, res := range results {
				if res.Offloaded != (want[i] > 0) || res.WireBytes != want[i] {
					t.Errorf("%s, trace %q: input %d offloaded=%v with %d wire bytes, want %d",
						tp.name, tr.ID(), i, res.Offloaded, res.WireBytes, want[i])
				}
			}
			names := checkSpans(t, tr.Spans())
			cloudSpans := 0
			for n := range names {
				if strings.HasPrefix(n, "cloud:") {
					cloudSpans++
				}
			}
			if !names["edge:offload"] || cloudSpans == 0 {
				t.Errorf("%s, trace %q: cloud spans did not merge: %v", tp.name, tr.ID(), names)
			}
		}
	}
}
