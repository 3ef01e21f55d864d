package main

// layers.go pushes the workload's inputs straight through each layer's
// public functions, one layer at a time, so a layer's cost is known apart
// from everything around it. Every function here times calls from outside;
// nothing in the program under test is changed to be measured.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/energy"
	"cdl/internal/fixed"
	"cdl/internal/modelio"
	"cdl/internal/nn"
	"cdl/internal/obs"
	"cdl/internal/serve"
	"cdl/internal/tensor"
)

// timeIt returns the time of one call of fn in nanoseconds: the median
// over chunks of calls timed for about budget, so a garbage collection or
// a descheduling inside one chunk does not move the reading. A chunk is as
// many calls as take 200 us, so the clock reads do not weigh on cheap calls.
func timeIt(budget time.Duration, fn func()) float64 {
	chunk := 1
	for ; chunk < 1<<20; chunk *= 2 {
		t0 := time.Now()
		for i := 0; i < chunk; i++ {
			fn()
		}
		if time.Since(t0) >= 200*time.Microsecond {
			break
		}
	}
	var per []float64
	for start := time.Now(); len(per) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		for i := 0; i < chunk; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(chunk))
	}
	return median(per)
}

// stack copies samples into one batched activation [B, ...sample shape].
func stack(xs []*tensor.T) *tensor.T {
	out := tensor.New(append([]int{len(xs)}, xs[0].Shape()...)...)
	n := xs[0].Numel()
	for i, x := range xs {
		copy(out.Data[i*n:(i+1)*n], x.Data)
	}
	return out
}

// segments returns the layer ranges between cascade taps: input to O1's
// tap, tap to tap, last tap to the FC output.
func segments(c *core.CDLN) [][2]int {
	var segs [][2]int
	from := 0
	for _, st := range c.Stages {
		segs = append(segs, [2]int{from, st.Tap})
		from = st.Tap
	}
	return append(segs, [2]int{from, len(c.Arch.Net.Layers)})
}

// layersNN measures the nn and linclass packages on a batch of
// offlineBatch images run to full depth.
func (e *env) layersNN(m map[string]float64, budget time.Duration) {
	net := e.model.Arch.Net
	head := e.head()
	batch := stack(head[:offlineBatch])
	per := func(ns float64) float64 { return ns / 1e3 / offlineBatch }

	in := batch
	for i, seg := range segments(e.model) {
		x := in
		m[fmt.Sprintf("nn.forward_us_per_image.seg%d", i)] = per(timeIt(budget, func() {
			in = net.ForwardBatchRange(x, seg[0], seg[1])
		}))
		if i < len(e.model.Stages) {
			lc := e.model.Stages[i].LC
			feat := in.Reshape(offlineBatch, lc.In)
			scores := tensor.New(offlineBatch, lc.Out)
			m["linclass.scores_us_per_image."+e.model.Stages[i].Name] = per(timeIt(budget, func() {
				lc.ScoresBatchInto(feat, scores)
			}))
		}
	}

	var im2col, gemm float64 // ns per batch
	flop := 0.0
	for i, l := range net.Layers {
		conv, ok := l.(*nn.Conv2D)
		if !ok {
			continue
		}
		act := net.ForwardBatchRange(batch, 0, i)
		k := conv.KernelSize()
		var cols *tensor.T
		im2col += timeIt(budget, func() { cols = nn.Im2Col(act, k) })
		a := conv.Weight().W.Reshape(conv.OutChannels(), conv.InChannels()*k*k)
		c := tensor.New(conv.OutChannels(), cols.Dim(1))
		gemm += timeIt(budget, func() { nn.GemmGrouped(a, cols, c, k*k) })
		flop += 2 * float64(a.Dim(0)) * float64(a.Dim(1)) * float64(cols.Dim(1))
	}
	m["nn.im2col_us_per_image"] = per(im2col)
	m["nn.gemm_us_per_image"] = per(gemm)
	m["nn.gemm_flop_per_image"] = flop / offlineBatch
	m["nn.gemm_gflops"] = flop / gemm

	i := 0
	m["nn.forward_single_us"] = timeIt(budget, func() {
		net.Forward(head[i%len(head)])
		i++
	}) / 1e3
}

// layersCore measures core.Session on the workload's policy: the traced
// batched walk (spans from SetStageObserver, busy time from the obs
// profile), its allocations, and the exit mix over the whole split.
func (e *env) layersCore(m map[string]float64, rec *recorder, budget time.Duration) error {
	t0 := time.Now()
	const sessions = 20
	var sess *core.Session
	for i := 0; i < sessions; i++ {
		var err error
		if sess, err = core.NewSession(e.model); err != nil {
			return err
		}
	}
	m["core.new_session_ms"] = ms(time.Since(t0)) / sessions

	// Whole split once: exit mix, and the batched walk against the oracle.
	exits := make([]int, e.model.NumExits())
	mismatch := 0
	for lo := 0; lo < len(e.xs); lo += offlineBatch {
		hi := lo + offlineBatch
		if hi > len(e.xs) {
			hi = len(e.xs)
		}
		for k, r := range sess.ClassifyBatchPolicy(e.xs[lo:hi], e.pol) {
			exits[r.StageIndex]++
			if !r.Equal(e.oracle[lo+k]) {
				mismatch++
			}
		}
	}
	for i, n := range exits {
		m["core.exit_frac."+e.model.ExitName(i)] = float64(n) / float64(len(e.xs))
	}
	m["core.batch_vs_oracle_mismatch"] = float64(mismatch)

	// The traced walk: the first replayRequests images in batches, spans
	// recorded on the first repetition only.
	head := e.head()
	stageNS := make([]int64, e.model.NumExits())
	var parent, req int
	record := true
	sess.SetStageObserver(func(ev core.StageEvent) {
		if ev.Kind == core.StageRoute {
			return
		}
		stageNS[ev.Stage] += int64(ev.End.Sub(ev.Start))
		if record {
			rec.add(parent, req, fmt.Sprintf("core.stage:%s", e.model.ExitName(ev.Stage)), ev.Start, ev.End)
		}
	})
	obs.ProfReset()
	var walk time.Duration
	images := 0
	start := time.Now()
	for reps := 0; reps < 1 || time.Since(start) < 4*budget; reps++ {
		for lo := 0; lo < len(head); lo += offlineBatch {
			b0 := time.Now()
			if record {
				// The parent span must exist before the observer files
				// children under it; its end is patched after the call.
				req = lo / offlineBatch
				parent = rec.add(0, req, "core.classify_batch", b0, b0)
			}
			sess.ClassifyBatchPolicy(head[lo:lo+offlineBatch], e.pol)
			b1 := time.Now()
			if record {
				rec.spans[parent-1].EndNS = b1.UnixNano()
			}
			walk += b1.Sub(b0)
			images += offlineBatch
		}
		record = false
	}
	sess.SetStageObserver(nil)
	n := float64(images)
	m["core.classify_batch_us_per_image"] = us(walk) / n
	self := us(walk) / n
	last := e.model.NumExits() - 1
	for i, ns := range stageNS {
		name := fmt.Sprintf("core.stage_us_per_image.%d", i)
		if i == last {
			name = "core.stage_us_per_image.final"
		}
		m[name] = float64(ns) / 1e3 / n
		self -= float64(ns) / 1e3 / n
	}
	m["core.self_us_per_image"] = self
	for _, ph := range obs.ProfSnapshot() {
		v := ph.TotalMS * 1e3 / n
		switch ph.Name {
		case "im2col":
			m["nn.walk_im2col_us_per_image"] = v
		case "gemm":
			m["nn.walk_gemm_us_per_image"] = v
		case "classifier":
			m["linclass.walk_us_per_image"] = v
		}
	}

	const runs = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < runs; r++ {
		sess.ClassifyBatchPolicy(head[:offlineBatch], e.pol)
	}
	runtime.ReadMemStats(&m1)
	m["core.allocs_per_batch"] = float64(m1.Mallocs-m0.Mallocs) / runs
	m["core.bytes_per_batch"] = float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	return nil
}

// layersSmall measures the cheap per-record and per-load layers.
func (e *env) layersSmall(m map[string]float64, budget time.Duration) error {
	acc, err := energy.NewEvaluator().NewAccumulator(e.model)
	if err != nil {
		return err
	}
	m["energy.add_ns_per_record"] = timeIt(budget, func() {
		for _, r := range e.oracle {
			_ = acc.Add(r) // oracle records come from this model
		}
	}) / float64(len(e.oracle))
	for _, short := range []string{"2c", "3c"} {
		raw, err := fixtureBytes("mnist" + short)
		if err != nil {
			return err
		}
		var lerr error
		m["modelio.load_ms."+short] = timeIt(budget, func() {
			if _, err := modelio.LoadCDLN(bytes.NewReader(raw)); err != nil {
				lerr = err
			}
		}) / 1e6
		if lerr != nil {
			return lerr
		}
	}
	return nil
}

// layersSinks measures the telemetry sinks a micro-batch feeds: a trace
// span, a flight record and the controller's window (a batch of one on
// serve-single, so these are per-request costs there).
func (e *env) layersSinks(m map[string]float64, budget time.Duration) {
	const spansPerTrace = 16 // about what one classify request records
	now := time.Now()
	m["obs.trace_record_ns"] = timeIt(budget, func() {
		tr := obs.NewTrace("bench", false)
		for i := 0; i < spansPerTrace; i++ {
			tr.Record("stage:trunk#0", now, now, "batch=32")
		}
	}) / spansPerTrace
	flight := obs.NewFlightRecorder(obs.FlightConfig{})
	m["obs.flight_record_ns"] = timeIt(budget, func() {
		flight.Record(obs.FlightRecord{Model: modelName, Version: 1, PolicySource: "default",
			NodePath: "trunk", TotalMS: 1, BatchSize: 1, Outcome: obs.FlightOK})
	})
	window := control.NewWindow(e.model.NumExits(), control.WindowConfig{})
	batch := make([]control.Obs, offlineBatch)
	for i := range batch {
		batch[i] = control.Obs{LatencyMS: 1, ExitIndex: e.oracle[i].StageIndex, EnergyPJ: e.exitPJ[e.oracle[i].StageIndex]}
	}
	m["control.window_observe_ns_per_batch"] = timeIt(budget, func() { window.ObserveBatch(batch) })
}

// layersIngress measures the request decode, validation and response
// encode the serving front does for each of the first replayRequests
// requests, recording one span per call.
func (e *env) layersIngress(m map[string]float64, rec *recorder) error {
	n := e.replayCount()
	inShape := e.model.Arch.Net.InShape
	width := e.xs[0].Numel()
	var decode, normalize, encode time.Duration
	reqBytes, respBytes := 0, 0
	for i := 0; i < n; i++ {
		rq := e.reqs[i]
		var creq serve.ClassifyRequest
		t0 := time.Now()
		var err error
		if e.w.Surface == surfaceEdge {
			err = json.Unmarshal(rq.body, &creq)
		} else {
			var v2 serve.V2ClassifyRequest
			err = json.Unmarshal(rq.body, &v2)
			creq = serve.ClassifyRequest{Image: v2.Image, Images: v2.Images}
		}
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := creq.NormalizeImages(width, 256, inShape); err != nil {
			return err
		}
		t2 := time.Now()
		resp := e.responseFor(rq)
		w := httptest.NewRecorder()
		t3 := time.Now()
		serve.WriteJSON(w, 200, resp)
		t4 := time.Now()
		rec.add(0, i, "serve.decode", t0, t1)
		rec.add(0, i, "serve.normalize", t1, t2)
		rec.add(0, i, "serve.encode", t3, t4)
		decode += t1.Sub(t0)
		normalize += t2.Sub(t1)
		encode += t4.Sub(t3)
		reqBytes += len(rq.body)
		respBytes += w.Body.Len()
	}
	f := float64(n)
	m["serve.decode_us_per_req"] = us(decode) / f
	m["serve.normalize_us_per_req"] = us(normalize) / f
	m["serve.encode_us_per_req"] = us(encode) / f
	m["serve.req_kb"] = float64(reqBytes) / 1024 / f
	m["serve.resp_kb"] = float64(respBytes) / 1024 / f
	return nil
}

// responseFor builds the response the front door writes for rq, from the
// oracle records, in the surface's own response type.
func (e *env) responseFor(rq request) any {
	if e.w.Surface == surfaceEdge {
		out := serve.ClassifyResponse{Results: make([]serve.ClassifyResult, rq.hi-rq.lo), Count: rq.hi - rq.lo}
		for k := range out.Results {
			r := e.oracle[rq.lo+k]
			out.Results[k] = serve.ClassifyResult{Label: r.Label, Exit: r.StageName, ExitIndex: r.StageIndex,
				Confidence: r.Confidence, Ops: r.Ops, NormalizedOps: r.Ops / e.baseOps, EnergyPJ: e.exitPJ[r.StageIndex]}
		}
		return out
	}
	out := serve.V2ClassifyResponse{Model: modelName, Version: 1, Results: make([]serve.V2Result, rq.hi-rq.lo), Count: rq.hi - rq.lo}
	for k := range out.Results {
		r := e.oracle[rq.lo+k]
		out.Results[k] = serve.V2Result{Label: r.Label, Exit: r.StageName, ExitIndex: r.StageIndex,
			Confidence: r.Confidence, Ops: r.Ops, NormalizedOps: r.Ops / e.baseOps, EnergyPJ: e.exitPJ[r.StageIndex]}
	}
	return out
}

// activationOf is the wire form of a deferred prefix result.
func activationOf(pre core.PrefixResult) wire.Activation {
	return wire.Activation{Node: pre.Node, FromStage: pre.FromStage, Pos: pre.Pos,
		Shape: pre.Activation.Shape(), Data: pre.Activation.Data}
}

// offloads runs the edge prefix over request rq's images and returns the
// wire payloads of the inputs it defers, with their image indices.
func (e *env) offloads(sess *core.Session, rq request) (payloads [][]byte, idx []int, err error) {
	for k, pre := range sess.ClassifyPrefixBatchPolicy(e.xs[rq.lo:rq.hi], edgeSplit, e.pol) {
		if pre.Exited {
			continue
		}
		p, err := wire.Encode(activationOf(pre), wire.EncodingFloat64, fixed.Format{})
		if err != nil {
			return nil, nil, err
		}
		payloads = append(payloads, p)
		idx = append(idx, rq.lo+k)
	}
	return payloads, idx, nil
}

// layersWire measures the prefix walk and the wire codec on the P1
// activation the edge tier ships (3x13x13 for MNIST_3C).
func (e *env) layersWire(m map[string]float64, budget time.Duration) error {
	sess, err := core.NewSession(e.model)
	if err != nil {
		return err
	}
	head := e.head()
	k := e.w.ImagesPerReq
	i := 0
	m["core.prefix_us_per_image"] = timeIt(4*budget, func() {
		lo := (i * k) % len(head)
		sess.ClassifyPrefixBatchPolicy(head[lo:lo+k], edgeSplit, e.pol)
		i++
	}) / 1e3 / float64(k)

	var pre *core.PrefixResult
	for _, p := range sess.ClassifyPrefixBatchPolicy(head, edgeSplit, e.pol) {
		if !p.Exited {
			p := p
			pre = &p
			break
		}
	}
	if pre == nil {
		return fmt.Errorf("no input among the first %d defers at split %d", len(head), edgeSplit)
	}
	act := activationOf(*pre)
	var payload []byte
	var cerr error
	m["wire.encode_us"] = timeIt(budget, func() {
		if payload, err = wire.Encode(act, wire.EncodingFloat64, fixed.Format{}); err != nil {
			cerr = err
		}
	}) / 1e3
	m["wire.decode_us"] = timeIt(budget, func() {
		if _, err := wire.Decode(payload); err != nil {
			cerr = err
		}
	}) / 1e3
	m["wire.bytes_per_payload"] = float64(len(payload))
	return cerr
}
