package edgecloud

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/hop"
	"cdl/internal/obs"
	"cdl/internal/serve"
	"cdl/internal/tensor"
)

// HTTPTransport offloads to a cdlserve backend's POST
// /v2/models/{Model}/resume: each edge names the cascade its prefix belongs
// to, so one multi-model cloud tier can back heterogeneous edge splits. It
// is stateless apart from the shared cloud client, so any number of Edges
// may hold the same transport.
type HTTPTransport struct {
	// BaseURL is the cloud server's base, e.g. "http://cloud:8080".
	BaseURL string
	// Model names the cloud registry entry to resume on (cdlserve names a
	// bare -model path serve.DefaultModelName); it must be set. The named
	// model must be the same cascade the edge runs its prefix on — the
	// cloud validates every activation's stage/shape against it and
	// rejects mismatches.
	Model string
}

// cloud is the client every HTTPTransport offloads through, reading
// answers of up to 8 MiB.
var cloud = hop.NewClient(8 << 20)

// NewHTTPModelTransport returns a transport that resumes on the named
// model of the cloud registry at baseURL.
func NewHTTPModelTransport(baseURL, model string) *HTTPTransport {
	return &HTTPTransport{BaseURL: baseURL, Model: model}
}

// ResumeBatch is Resume under the bare-δ policy core.DeltaPolicy(delta),
// untraced.
func (h *HTTPTransport) ResumeBatch(payloads [][]byte, delta float64) ([]core.ExitRecord, error) {
	recs, _, err := h.Resume(payloads, core.DeltaPolicy(delta), "")
	return recs, err
}

// Resume implements Transport over the serve resume routes: all payloads
// travel in one wire frame (wire.AppendFrame), so a hard batch costs one
// round trip instead of one per image, under members that are the route's
// own wire struct with pol as its "policy" (serve.PolicyRequestOf). The
// trace ID rides the X-Trace-Id request header, its only channel across
// the split (the cloud adopts it and opts the response into span detail).
// The cloud answers with a frame of wire records (exit, label, confidence)
// under serve.FrameAnswer members: its spans, and under pol.Trace each
// record's stage confidences.
func (h *HTTPTransport) Resume(payloads [][]byte, pol core.ExitPolicy, traceID string) ([]core.ExitRecord, []obs.Span, error) {
	if h.Model == "" {
		// An empty name would post to /v2/models//resume, which the
		// cloud's mux redirects to GET /v2/models/resume.
		return nil, nil, fmt.Errorf("edgecloud: HTTPTransport.Model is empty; name the cloud model to resume on")
	}
	m, err := json.Marshal(serve.V2ResumeRequest{Policy: serve.PolicyRequestOf(pol)})
	if err != nil {
		return nil, nil, err
	}
	frame := hop.NewBody()
	defer frame.Release()
	buf, err := wire.AppendFrame(frame.Bytes()[:0], m, payloads)
	if err != nil {
		return nil, nil, err
	}
	frame.Set(buf)
	resp, err := cloud.Do(context.Background(), &hop.Request{
		Method: http.MethodPost, Base: h.BaseURL, Path: "/v2/models/" + h.Model + "/resume",
		ContentType: wire.FrameContentType, TraceID: traceID, Body: frame.Bytes(),
		Timeout: 30 * time.Second, // a cloud that stops answering must not hang an edge worker
	})
	if err != nil {
		return nil, nil, err
	}
	// The answer is pooled too; nothing decoded aliases it.
	defer resp.Body.Release()
	if resp.Status != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(resp.Body.Bytes(), &e) == nil && e.Error != "" {
			return nil, nil, fmt.Errorf("cloud HTTP %d: %s", resp.Status, e.Error)
		}
		return nil, nil, fmt.Errorf("cloud HTTP %d", resp.Status)
	}
	return decodeAnswer(resp.Body.Bytes(), len(payloads))
}

// decodeAnswer reads an answer frame of want records: each completes only
// StageIndex, Label and Confidence (the Edge derives the rest from its own
// graph), plus its Trace when the members carry stage confidences; the
// members' spans are the cloud's.
func decodeAnswer(b []byte, want int) ([]core.ExitRecord, []obs.Span, error) {
	members, records, err := wire.ReadFrame(b)
	if err != nil {
		return nil, nil, fmt.Errorf("cloud answer: %w", err)
	}
	if len(records) != want {
		return nil, nil, fmt.Errorf("cloud returned %d results for %d payloads", len(records), want)
	}
	var ans serve.FrameAnswer
	if len(members) > 0 {
		if err := json.Unmarshal(members, &ans); err != nil {
			return nil, nil, fmt.Errorf("cloud answer members: %w", err)
		}
	}
	recs := make([]core.ExitRecord, len(records))
	for i, p := range records {
		r, err := wire.DecodeRecord(p)
		if err != nil {
			return nil, nil, fmt.Errorf("cloud answer: record %d: %w", i, err)
		}
		recs[i] = core.ExitRecord{StageIndex: r.Exit, Label: r.Label, Confidence: r.Confidence}
		if i < len(ans.StageConfidences) { // Edge.complete counts them
			recs[i].Trace = ans.StageConfidences[i]
		}
	}
	return recs, ans.Spans, nil
}

// Loopback is an in-process cloud tier: it decodes offloads and resumes
// them on its own warm session. It exists for tests, demos and the
// degenerate single-node deployment, and exercises the same wire
// round-trip a real backend would. Single-goroutine, like the Edge that
// owns it.
type Loopback struct {
	graph *core.Graph
	sess  *core.Session
}

// NewLoopback builds an in-process cloud over a private replica of the
// model.
func NewLoopback(model *core.CDLN) (*Loopback, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return NewGraphLoopback(core.LinearGraph(model))
}

// NewGraphLoopback is NewLoopback for a routing graph: branch handoffs
// resume at the named node exactly as a real graph-serving backend would.
func NewGraphLoopback(g *core.Graph) (*Loopback, error) {
	sess, err := core.NewGraphSession(g)
	if err != nil {
		return nil, err
	}
	return &Loopback{graph: sess.Graph(), sess: sess}, nil
}

// Resume implements Transport: payloads decode, validate with the same
// core.Graph.ValidateResume a real backend applies (so the loopback
// accepts exactly what a cloud resume route would), and resume under pol
// on the private session grouped by handoff point — one walk per distinct
// (node, stage), in first-appearance order. With a traceID a stage
// observer returns the same span vocabulary a real backend would (minus
// queue/batch spans — there is no pool here).
func (l *Loopback) Resume(payloads [][]byte, pol core.ExitPolicy, traceID string) ([]core.ExitRecord, []obs.Span, error) {
	type group struct {
		node, from int
		acts       []*tensor.T
		rows       []int // payload index of each activation
	}
	var groups []group
	for i, p := range payloads {
		act, err := wire.Decode(p)
		if err != nil {
			return nil, nil, err
		}
		if err := l.graph.ValidateResume(act.Node, act.FromStage, act.Pos, act.Shape); err != nil {
			return nil, nil, err
		}
		if depth := l.graph.EntryDepth(act.Node) + act.FromStage; pol.MaxExit >= 0 && depth > pol.MaxExit {
			return nil, nil, fmt.Errorf("resume depth %d beyond the policy's max exit %d", depth, pol.MaxExit)
		}
		gi := slices.IndexFunc(groups, func(g group) bool { return g.node == act.Node && g.from == act.FromStage })
		if gi < 0 {
			groups = append(groups, group{node: act.Node, from: act.FromStage})
			gi = len(groups) - 1
		}
		groups[gi].acts = append(groups[gi].acts, tensor.FromSlice(act.Data, act.Shape...))
		groups[gi].rows = append(groups[gi].rows, i)
	}
	var tr *obs.Trace
	if traceID != "" {
		tr = obs.NewTrace(traceID, true)
		traces := make([]*obs.Trace, len(payloads))
		for i := range traces {
			traces[i] = tr
		}
		tap := serve.NewStageTap(l.graph, "")
		tap.Watch(l.sess, traces)
		defer tap.Watch(l.sess, nil)
	}
	recs := make([]core.ExitRecord, len(payloads))
	for _, g := range groups {
		for k, rec := range l.sess.ResumeBatchPolicyAt(g.acts, g.node, g.from, pol) {
			recs[g.rows[k]] = rec
		}
	}
	return recs, tr.Spans(), nil
}
