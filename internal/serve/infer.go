// infer.go is the one inference path. The data routes,
// /v2/models/{model}/classify and /v2/models/{model}/resume, plus the edge
// front's /v1/classify (ClassifyV1), are one request: inputs (images, or
// activations resumed from an edge tier), an exit policy and a deadline.
// Each route contributes only its wire struct and the shim that maps it
// onto inferRequest; everything after the shim runs once, in handleInfer.
package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/hop"
	"cdl/internal/obs"
)

// inferRequest is the request behind every data route.
type inferRequest struct {
	// The inputs, as the wire's single-or-batch pair (setting both stays a
	// 400); handleInfer's resume argument says which family the route reads.
	images   ClassifyRequest
	payload  string
	payloads []string
	// frame, non-nil for a wire.FrameContentType body, holds its payloads
	// in place of payload/payloads, already decoded.
	frame *frameBody
	// policy nil inherits the entry's serve policy (the SLO controller's
	// current rung, or the trained behaviour).
	policy    *PolicyRequest
	timeoutMS int
	// v1 answers a ClassifyResponse (the edge front's /v1/classify).
	v1 bool
}

// wireRequest is a route's wire struct; infer is its decode shim.
type wireRequest interface{ infer() inferRequest }

func (q *V2ClassifyRequest) infer() inferRequest {
	return inferRequest{images: ClassifyRequest{Image: q.Image, Images: q.Images}, policy: q.Policy, timeoutMS: q.TimeoutMS}
}

// infer maps the bare δ onto a policy that names only it: explicit, so it
// bypasses the controller, as on every route.
func (q *ClassifyRequest) infer() inferRequest {
	r := inferRequest{images: *q, v1: true}
	if q.Delta != nil {
		r.policy = &PolicyRequest{Delta: q.Delta}
	}
	return r
}

func (q *V2ResumeRequest) infer() inferRequest {
	return inferRequest{payload: q.Payload, payloads: q.Payloads, policy: q.Policy, timeoutMS: q.TimeoutMS}
}

// frameAct is one payload of a resume frame through wire.DecodeAppend: its
// refusal is reported by inputs, at the payload's index like the JSON route's.
type frameAct struct {
	act wire.Activation
	err error
}

// frameBody is the resume routes' second body shape, a wire frame: members
// is the route's own wire struct, strict-decoded from the frame's JSON
// object so policy, timeout and unknown-field refusal keep one definition.
// count is the number of payloads the frame declares, and acts each one
// decoded. Inputs can be built twice across a hot-swap, after the pooled
// body buffer was handed on, so every payload is decoded here, out of the
// body, into the request's arena.
type frameBody struct {
	members wireRequest
	count   int
	acts    []frameAct
}

func (f *frameBody) infer() inferRequest {
	q := f.members.infer()
	q.frame = f
	return q
}

// decode reads a frame into f, its payloads into a's storage. A frame of
// more payloads than a request may carry stores nothing for them: inputs
// refuses the count, after the members, as the JSON route does.
func (f *frameBody) decode(data []byte, a *request) error {
	members, payloads, count, err := wire.ReadFrameAppend(a.views[:0], data, a.maxInputs)
	if err == nil {
		err = strictDecode(members, f.members)
	}
	if err != nil {
		return err
	}
	if q := f.members.infer(); q.payload != "" || q.payloads != nil {
		return errors.New(`a frame's members carry no "payload" or "payloads"`)
	}
	f.count, a.views = count, payloads
	size := 0
	for _, p := range payloads {
		size += len(p)
	}
	// Grown once for float64 payloads, whose values fill at most an eighth
	// of their bytes; a fixed-point frame regrows, and the values decoded
	// before that keep the array they were written to.
	slab, dims := slices.Grow(a.slab[:0], size/8), a.dims[:0]
	a.acts = slices.Grow(a.acts[:0], len(payloads))[:len(payloads)]
	clear(a.acts)
	for i, p := range payloads {
		if slab, dims, a.acts[i].act, a.acts[i].err = wire.DecodeAppend(slab, dims, p); a.acts[i].err != nil {
			break // inputs stops here too
		}
	}
	f.acts, a.slab, a.dims = a.acts, slab, dims
	return nil
}

// bodyBound is the largest body a request of maxInputs inputs, each at most
// perInput bytes on the wire, can legitimately have; the slack covers the
// policy object and JSON framing. An image is bounded at 32 bytes a pixel
// (any float64 rendering plus its separator).
func bodyBound(maxInputs, perInput int) int64 {
	return int64(maxInputs)*int64(perInput) + 16384
}

// maxPooledBody caps, in bytes, the pixel, activation and answer storage a
// pooled request arena retains: an arena that grew past it is dropped after
// its request, so one large request does not pin its size in every pool
// slot. (Request bodies are hop.Bodies, under hop's own cap of the same
// size.)
const maxPooledBody = 1 << 20

// decodeBody is the ingress check of every request body on both tiers: the
// route's method only, at most maxBody bytes, one value with no unknown
// fields. The body is read whole into a pooled hop.Body before anything is
// parsed, so the bound alone decides 413 — a declared Content-Length above
// it is refused unread, and a body that runs past it is refused however
// much of it was padding — and any other reject is 400. Nothing decoded
// may alias the body: it is back in the pool, and being overwritten by
// another request, as soon as decodeBody returns. (The decoded pixels and
// frame activations live longer, in the data request's arena a, which the
// request gives back once its response is written; see request.) The
// admin bodies pass no arena.
func decodeBody(w http.ResponseWriter, r *http.Request, method string, maxBody int64, into any, a *request) *requestError {
	if r.Method != method {
		return &requestError{http.StatusMethodNotAllowed, method + " only"}
	}
	var t0 time.Time
	prof := obs.ProfilingEnabled()
	if prof {
		t0 = time.Now()
	}
	body := hop.NewBody()
	var err error
	if r.ContentLength > maxBody {
		err = &http.MaxBytesError{Limit: maxBody}
	} else {
		err = body.Fill(http.MaxBytesReader(w, r.Body, maxBody), r.ContentLength)
	}
	if err == nil {
		_, err = decodeJSON(body.Bytes(), into, a)
	}
	body.Release()
	if prof {
		obs.ProfAdd(obs.PhaseDecode, time.Since(t0))
	}
	if err != nil {
		rerr := badRequest("bad request body: %v", err)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			rerr.status = http.StatusRequestEntityTooLarge
		}
		return rerr
	}
	return nil
}

// decodeJSON decodes one request body into a route's wire struct. An image
// route's body goes to the single-pass scanner first, which parses the
// pixel arrays and returns the few other members for the strict decode;
// scanned reports that it took the body. Whatever the scanner declines,
// and every body of the other routes, takes strictDecode whole (a resume
// frame's members do, in frameBody.decode): that is the only path for those
// inputs and the oracle FuzzDecodeBody holds the scanner to, chosen by the
// bytes and never by a caller. The arena a sizes and holds what an image
// route or a frame decodes; only the admin bodies come without one.
func decodeJSON(data []byte, into any, a *request) (scanned bool, err error) {
	switch q := into.(type) {
	case *ClassifyRequest:
		scanned = scanInto(data, q, &q.Image, &q.Images, classifyOthers, a)
	case *V2ClassifyRequest:
		scanned = scanInto(data, q, &q.Image, &q.Images, v2ClassifyOthers, a)
	case *frameBody:
		return false, q.decode(data, a)
	}
	if scanned {
		return true, nil
	}
	return false, strictDecode(data, into)
}

// scanInto fills the wire struct *q from the scanner's reading of data:
// the other members through the strict decode, then the pixels. It leaves
// *q zero when the scanner, or the strict decode of those members, declines.
func scanInto[T any](data []byte, q *T, image *[]float64, images *[][]float64, others []string, a *request) bool {
	s := bodyScan{data: data, arena: a}
	one, many, rest, ok := s.imageBody(others, a.width, a.maxInputs)
	if ok && rest != nil && strictDecode(rest, q) != nil {
		*q, ok = *new(T), false
	}
	if ok {
		*image, *images = one, many
	}
	return ok
}

// strictDecode is encoding/json on the first value in data, unknown fields
// refused.
func strictDecode(data []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// oneOrMany resolves a wire struct's single/batch pair (noun / noun+"s")
// against the per-request cap.
func oneOrMany[T any](one T, hasOne bool, many []T, noun string, max int) ([]T, error) {
	switch {
	case hasOne && many != nil:
		return nil, fmt.Errorf(`set "%s" or "%ss", not both`, noun, noun)
	case hasOne:
		many = []T{one}
	}
	return many, checkCount(len(many), noun, max)
}

// checkCount holds a request's n inputs to [1, max].
func checkCount(n int, noun string, max int) error {
	switch {
	case n == 0:
		return fmt.Errorf(`missing "%s" or "%ss"`, noun, noun)
	case n > max:
		return fmt.Errorf("%d %ss exceed the per-request cap %d", n, noun, max)
	}
	return nil
}

// inputs validates the request's inputs against one model version and
// prepares each as a job of the arena a holding only its tensor and where
// on the routing graph it enters: (0, 0) for a raw image, the decoded
// resume point for an edge-offloaded activation.
func (q *inferRequest) inputs(m *Model, resume bool, a *request) ([]*job, error) {
	if !resume {
		inShape := m.cdln.Arch.Net.InShape
		images, err := q.images.NormalizeImages(m.inWidth, a.maxInputs, inShape)
		if err != nil {
			return nil, err
		}
		jobs := a.newJobs(len(images))
		for i, img := range images {
			jobs[i].x.Point(img, inShape...)
		}
		return jobs, nil
	}
	var payloads []string
	var n int
	var err error
	if q.frame != nil {
		n, err = q.frame.count, checkCount(q.frame.count, "payload", a.maxInputs)
	} else {
		payloads, err = oneOrMany(q.payload, q.payload != "", q.payloads, "payload", a.maxInputs)
		n = len(payloads)
	}
	if err != nil {
		return nil, err
	}
	jobs := a.newJobs(n)
	for i, j := range jobs {
		var act wire.Activation
		if q.frame != nil {
			act, err = q.frame.acts[i].act, q.frame.acts[i].err
		} else {
			raw, berr := base64.StdEncoding.DecodeString(payloads[i])
			if berr != nil {
				return nil, fmt.Errorf("payload %d: bad base64 payload: %v", i, berr)
			}
			act, err = wire.Decode(raw)
		}
		if err == nil {
			err = m.graph.ValidateResume(act.Node, act.FromStage, act.Pos, act.Shape)
		}
		if err == nil {
			err = finite(act.Data)
		}
		if err != nil {
			return nil, fmt.Errorf("payload %d: %v", i, err)
		}
		j.x.Point(act.Data, act.Shape...)
		j.node, j.fromStage = act.Node, act.FromStage
	}
	return jobs, nil
}

// finite refuses a NaN or an infinity in an activation, as NormalizeImages
// does in a pixel: it would switch off the exit rule of every later stage
// and come out as a confidence JSON cannot carry (a 200 with no body).
func finite(data []float64) error {
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("activation value %d is %v; activations must be finite", i, v)
		}
	}
	return nil
}

// applyPolicy sets the request's shared policy, and who chose it (source),
// on its prepared inputs. A policy depth cap shallower than an input's
// resume depth (entry depth of its node plus its resume stage; 0 for a raw
// image, which no cap excludes) is unsatisfiable — those stages already ran
// on the edge tier: an explicit policy is rejected, while an inherited one
// (the SLO controller's current rung — the client never asked for a cap) is
// relaxed to the deepest resume depth in the request, so controller
// actuation can never 400 offloaded traffic.
func applyPolicy(m *Model, jobs []*job, pol *core.ExitPolicy, source string) *requestError {
	maxFrom := 0
	for _, j := range jobs {
		if depth := m.graph.EntryDepth(j.node) + j.fromStage; depth > maxFrom {
			maxFrom = depth
		}
	}
	maxExit := m.graph.MaxDepth()
	if pol.MaxExit >= 0 {
		maxExit = pol.MaxExit
	}
	if maxFrom > maxExit {
		if source == control.SourceExplicit {
			return badRequest("resume depth %d beyond the policy's max exit %d", maxFrom, maxExit)
		}
		relaxed := *pol
		relaxed.MaxExit = maxFrom
		pol = &relaxed
	}
	for _, j := range jobs {
		j.pol, j.src = pol, source
	}
	return nil
}

// renderResults renders records at the requested detail level into dst's
// storage.
func renderResults(dst []V2Result, m *Model, records []core.ExitRecord, detail string) []V2Result {
	out := slices.Grow(dst[:0], len(records))[:len(records)]
	baseOps := m.metrics.baselineOps
	for i, rec := range records {
		res := V2Result{
			Label:      rec.Label,
			Exit:       rec.StageName,
			ExitIndex:  rec.StageIndex,
			Node:       rec.Node,
			Confidence: rec.Confidence,
		}
		if detail != DetailLabel {
			res.Ops = rec.Ops
			res.EnergyPJ = m.metrics.acc.ExitEnergy(rec.StageIndex)
			if baseOps > 0 {
				res.NormalizedOps = rec.Ops / baseOps
			}
		}
		if detail == DetailTrace {
			res.StageConfidences = rec.Trace
		}
		out[i] = res
	}
	return out
}

// handleInfer is the one data handler, mounted on both routes. resume
// says which input family the route reads (images or wire activations);
// newBody allocates the route's wire struct.
func (s *Server) handleInfer(resume bool, newBody func() wireRequest) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("model")
		m0, ok := s.lookup(w, name)
		if !ok {
			return
		}
		// Everything the request decodes, queues and renders lives in its
		// arena, given back once the response is written, whatever the
		// status: see request for why nothing reads it after that.
		a := takeRequest(m0.inWidth, s.maxImages)
		defer a.release()
		perInput := m0.inWidth * 32
		body := newBody()
		// A frame request gets a frame answer.
		frame := resume && r.Header.Get("Content-Type") == wire.FrameContentType
		switch {
		case frame:
			// The model's widest lossless wire activation, length-prefixed.
			perInput = m0.maxResumeWire + 4
			a.frame.members = body
			body = &a.frame
		case resume:
			// The same, base64-inflated in a JSON string.
			perInput = base64.StdEncoding.EncodedLen(m0.maxResumeWire) + 4
		}
		rerr := decodeBody(w, r, http.MethodPost, bodyBound(s.maxImages, perInput), body, a)
		var req inferRequest
		var ctx context.Context
		var cancel context.CancelFunc
		if rerr == nil {
			req = body.infer()
			ctx, cancel, rerr = requestContext(r, req.timeoutMS)
		}
		if rerr != nil {
			m0.refuse(obs.TraceOf(w), obs.FlightError, control.CauseInvalid, 0)
			WriteError(w, rerr.status, rerr.msg)
			return
		}
		defer cancel()

		detail := DetailCost
		build := func(m *Model) ([]*job, *requestError) {
			if resume && m.split != nil {
				return nil, badRequest("model %q is a split entry: its tail runs on another tier, so it resumes nothing", m.name)
			}
			jobs, err := req.inputs(m, resume, a)
			if err != nil {
				return nil, badRequest("%v", err)
			}
			// No explicit policy: inherit the entry's current serve policy
			// (identity unless an SLO controller is actuating). A present
			// "policy" object, even an empty one, is explicit: it pins the
			// trained behaviour and the controller never overrides it.
			pol, source := m.servePolicy()
			if req.policy != nil {
				explicit, d, err := req.policy.resolve(m)
				if err != nil {
					return nil, badRequest("policy: %v", err)
				}
				pol, source, detail = &explicit, control.SourceExplicit, d
			}
			return jobs, applyPolicy(m, jobs, pol, source)
		}
		m, records, ok := s.dispatch(w, ctx, name, resume, a, build)
		if !ok {
			return
		}
		traceID, spans := finishTrace(obs.TraceOf(w), detail)
		switch {
		case frame:
			writeFrame(w, &a.answer, records, spans, detail)
			return
		case req.v1:
			a.v1 = writeV1(w, a.v1, m, records, traceID, spans)
			return
		}
		a.results = renderResults(a.results, m, records, detail)
		resp := V2ClassifyResponse{
			Model: m.name, Version: m.version,
			Results: a.results, Count: len(records),
			TraceID: traceID, Spans: spans,
		}
		if dl, ok := ctx.Deadline(); ok && detail == DetailTrace {
			resp.DeadlineUnixMS = dl.UnixMilli()
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// writeV1 answers the edge front's /v1/classify at detail "cost", its
// results rendered into dst's storage, which it returns.
func writeV1(w http.ResponseWriter, dst []ClassifyResult, m *Model, records []core.ExitRecord, traceID string, spans []obs.Span) []ClassifyResult {
	resp := ClassifyResponse{Results: slices.Grow(dst[:0], len(records))[:len(records)], Count: len(records), TraceID: traceID, Spans: spans}
	for i, rec := range records {
		resp.Results[i] = ClassifyResult{
			Label: rec.Label, Exit: rec.StageName, ExitIndex: rec.StageIndex, Node: rec.Node,
			Confidence: rec.Confidence, Ops: rec.Ops, EnergyPJ: m.metrics.acc.ExitEnergy(rec.StageIndex),
		}
		if base := m.metrics.baselineOps; base > 0 {
			resp.Results[i].NormalizedOps = rec.Ops / base
		}
	}
	WriteJSON(w, http.StatusOK, resp)
	return resp.Results
}

// answerFrame is the scratch a frame answer is rendered in: the records,
// their views as frame payloads, and the frame.
type answerFrame struct {
	records  []byte
	payloads [][]byte
	frame    []byte
}

// FrameAnswer is a frame answer's members: the span list when finishTrace
// returned one, and at detail "trace" each record's per-stage confidences
// in record order. An answer with neither carries no members.
type FrameAnswer struct {
	Spans            []obs.Span  `json:"spans,omitempty"`
	StageConfidences [][]float64 `json:"stage_confidences,omitempty"`
}

// writeFrame answers a frame request in the scratch a: one wire record per
// result, in input order, under the FrameAnswer members. A result a record
// cannot carry answers 500, as a JSON encode failure does.
func writeFrame(w http.ResponseWriter, a *answerFrame, records []core.ExitRecord, spans []obs.Span, detail string) {
	var members []byte
	var err error
	if len(spans) > 0 || detail == DetailTrace {
		ans := FrameAnswer{Spans: spans}
		if detail == DetailTrace {
			ans.StageConfidences = make([][]float64, len(records))
			for i, rec := range records {
				ans.StageConfidences[i] = rec.Trace
			}
		}
		members, err = json.Marshal(ans)
	}
	// Grown once, so every payload view stays on the one array.
	a.records, a.payloads = slices.Grow(a.records[:0], wire.RecordSize*len(records)), a.payloads[:0]
	for _, rec := range records {
		if err != nil {
			break
		}
		at := len(a.records)
		a.records, err = wire.AppendRecord(a.records, wire.Record{Exit: rec.StageIndex, Label: rec.Label, Confidence: rec.Confidence})
		a.payloads = append(a.payloads, a.records[at:])
	}
	if err == nil {
		a.frame, err = wire.AppendFrame(a.frame[:0], members, a.payloads)
	}
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "encode: "+err.Error())
	} else {
		w.Header().Set("Content-Type", wire.FrameContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(a.frame)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(a.frame)
	}
}
