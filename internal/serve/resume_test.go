package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/fixed"
)

func postResume(t testing.TB, url string, req V2ResumeRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+resumePath, "application/json", bytes.NewReader(body))
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

// TestResumeMatchesMonolithic is the cross-tier identity check over real
// HTTP: for every split stage (and both trained and overridden δ), inputs
// that the edge prefix defers must come back from the resume route with
// records bit-identical to the monolithic result. δ=0.9 forces a deep-exit
// mix even when the trained thresholds exit everything at O1.
func TestResumeMatchesMonolithic(t *testing.T) {
	cdln, data := testCDLN(t, 41)
	_, ts := startServer(t, cdln, Config{Workers: 2})

	mono, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []float64{-1, 0.9} {
		for split := 0; split <= len(cdln.Stages); split++ {
			edge, err := core.NewSession(cdln)
			if err != nil {
				t.Fatal(err)
			}
			var payloads []string
			var want []core.ExitRecord
			for i, s := range data[:80] {
				ref := mono.ClassifyDelta(s.X, delta)
				pre := prefixOne(edge, s.X, split, delta)
				if pre.Exited {
					if pre.Record.Label != ref.Label || pre.Record.StageIndex != ref.StageIndex ||
						pre.Record.Confidence != ref.Confidence {
						t.Fatalf("split %d sample %d: edge exit %+v != monolithic %+v", split, i, pre.Record, ref)
					}
					continue
				}
				b, err := wire.Encode(wire.Activation{
					FromStage: split,
					Pos:       pre.Pos,
					Shape:     pre.Activation.Shape(),
					Data:      pre.Activation.Data,
				}, wire.EncodingFloat64, fixed.Format{})
				if err != nil {
					t.Fatal(err)
				}
				payloads = append(payloads, base64.StdEncoding.EncodeToString(b))
				want = append(want, ref)
			}
			if len(payloads) == 0 {
				if split == 0 || delta == 0.9 {
					t.Fatalf("split %d δ=%v: no offloads; fixture degenerate", split, delta)
				}
				continue
			}
			req := V2ResumeRequest{Payloads: payloads}
			if delta >= 0 {
				d := delta
				req.Policy = &PolicyRequest{Delta: &d}
			}
			status, body := postResume(t, ts.URL, req)
			if status != http.StatusOK {
				t.Fatalf("split %d: HTTP %d: %s", split, status, body)
			}
			var out V2ClassifyResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Count != len(payloads) {
				t.Fatalf("split %d: count %d, want %d", split, out.Count, len(payloads))
			}
			for k, got := range out.Results {
				w := want[k]
				if got.Label != w.Label || got.Exit != w.StageName ||
					got.ExitIndex != w.StageIndex ||
					got.Confidence != w.Confidence || got.Ops != w.Ops {
					t.Fatalf("split %d δ=%v payload %d: resume %+v != monolithic %+v", split, delta, k, got, w)
				}
			}
		}
	}
}

// TestResumeBadRequests covers the defensive 4xx paths of the resume route.
func TestResumeBadRequests(t *testing.T) {
	cdln, data := testCDLN(t, 42)
	srv, ts := startServer(t, cdln, Config{Workers: 1, QueueDepth: 2})

	edge, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	// Build one offloaded activation to mutate (δ=1 so the prefix never
	// exits locally, whatever the trained thresholds do on this fixture).
	var good string
	for _, s := range data {
		pre := prefixOne(edge, s.X, 1, 1)
		if pre.Exited {
			continue
		}
		b, err := wire.Encode(wire.Activation{
			FromStage: 1, Pos: pre.Pos, Shape: pre.Activation.Shape(), Data: pre.Activation.Data,
		}, wire.EncodingFloat64, fixed.Format{})
		if err != nil {
			t.Fatal(err)
		}
		good = base64.StdEncoding.EncodeToString(b)
		break
	}
	if good == "" {
		t.Fatal("no offloaded input in fixture")
	}

	reencode := func(mutate func(*wire.Activation)) string {
		raw, _ := base64.StdEncoding.DecodeString(good)
		act, err := wire.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		mutate(&act)
		b, err := wire.Encode(act, wire.EncodingFloat64, fixed.Format{})
		if err != nil {
			t.Fatal(err)
		}
		return base64.StdEncoding.EncodeToString(b)
	}
	bad := 1.5
	cases := []struct {
		name string
		req  V2ResumeRequest
		want int
		// pad spaces follow the value; chunked declares no Content-Length.
		pad     int
		chunked bool
		// jsonOnly rows have no frame twin: a frame has one payload list and
		// no base64 to get wrong.
		jsonOnly bool
	}{
		{name: "empty", req: V2ResumeRequest{}, want: http.StatusBadRequest},
		{name: "both forms", req: V2ResumeRequest{Payload: good, Payloads: []string{good}}, want: http.StatusBadRequest, jsonOnly: true},
		{name: "bad base64", req: V2ResumeRequest{Payload: "!!!not-base64!!!"}, want: http.StatusBadRequest, jsonOnly: true},
		{name: "not wire", req: V2ResumeRequest{Payload: base64.StdEncoding.EncodeToString([]byte("junk-bytes"))}, want: http.StatusBadRequest},
		{name: "stage too deep", req: V2ResumeRequest{Payload: reencode(func(a *wire.Activation) { a.FromStage = 9 })}, want: http.StatusBadRequest},
		{name: "wrong pos", req: V2ResumeRequest{Payload: reencode(func(a *wire.Activation) { a.Pos = 1 })}, want: http.StatusBadRequest},
		{name: "wrong shape", req: V2ResumeRequest{Payload: reencode(func(a *wire.Activation) {
			a.Shape = []int{len(a.Data)}
		})}, want: http.StatusBadRequest},
		{name: "not finite", req: V2ResumeRequest{Payload: reencode(func(a *wire.Activation) { a.Data[3] = math.NaN() })}, want: http.StatusBadRequest},
		{name: "out-of-range delta", req: V2ResumeRequest{Payload: good, Policy: &PolicyRequest{Delta: &bad}}, want: http.StatusBadRequest},
		{name: "too many payloads", req: V2ResumeRequest{Payloads: []string{good, good, good}}, want: http.StatusBadRequest},
		// Far past the 2-payload bound of the widest activation this model
		// can receive: the byte limit decides before base64 is even looked at.
		{name: "body over the bound", req: V2ResumeRequest{Payload: strings.Repeat("A", 64<<10)}, want: http.StatusRequestEntityTooLarge},
		// The bound decides on length alone: a good request is refused once
		// padding carries it over, by its declared Content-Length before a
		// byte is read, or without one (chunked) when the bytes run past.
		{name: "declared length over the bound", req: V2ResumeRequest{Payload: good}, want: http.StatusRequestEntityTooLarge, pad: 64 << 10},
		{name: "chunked body over the bound", req: V2ResumeRequest{Payload: good}, want: http.StatusRequestEntityTooLarge, pad: 64 << 10, chunked: true},
	}
	// One verdict and one bump of the invalid counter per row; then again
	// as the frame of the same payloads, which is refused in the same words.
	for _, tc := range cases {
		before := srv.Stats().Invalid
		status, body := postPadded(t, ts.URL+resumePath, tc.req, tc.pad, tc.chunked)
		if status != tc.want {
			t.Errorf("%s: HTTP %d (%s), want %d", tc.name, status, body, tc.want)
		}
		if got := srv.Stats().Invalid; got != before+1 {
			t.Errorf("%s: invalid counter %d -> %d, want +1", tc.name, before, got)
		}
		if tc.jsonOnly || tc.pad != 0 { // the frame's own bound: TestResumeFrameBound
			continue
		}
		fstatus, fbody := postFrame(t, ts.URL+resumePath, frameOf(t, tc.req), false)
		if fstatus != status || !bytes.Equal(fbody, body) {
			t.Errorf("%s as a frame: HTTP %d (%s), as JSON HTTP %d (%s)", tc.name, fstatus, fbody, status, body)
		}
		if got := srv.Stats().Invalid; got != before+2 {
			t.Errorf("%s as a frame: invalid counter %d -> %d, want +2", tc.name, before, got)
		}
	}

	// What only a frame can get wrong. Each is a 400, read off the frame
	// before any payload is looked at.
	raw, _ := base64.StdEncoding.DecodeString(good)
	frame := func(members string, payloads ...[]byte) []byte {
		b, err := wire.AppendFrame(nil, []byte(members), payloads)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	whole := frame("{}", raw)
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"bad magic", `wire: frame: bad magic "CDLA"`, raw},
		{"unknown version", "wire: frame: version 513", append([]byte("CDLF\x01\x02"), whole[6:]...)},
		{"truncated preamble", "shorter than the 12-byte preamble", whole[:11]},
		{"truncated members", "wire: frame: truncated members", whole[:13]},
		{"truncated payload", "wire: frame: payload 0: truncated", whole[:len(whole)-1]},
		{"trailing bytes", "wire: frame: 1 trailing bytes", append(bytes.Clone(whole), '\n')},
		{"count over the frame's payloads", "wire: frame: payload 1: truncated length", append([]byte("CDLF\x01\x00\x02"), whole[7:]...)},
		{"no members", "bad request body: EOF", frame("", raw)},
		{"payload in the members", `a frame's members carry no "payload" or "payloads"`, frame(`{"payload":"`+good+`"}`, raw)},
		{"payloads in the members", `a frame's members carry no "payload" or "payloads"`, frame(`{"payloads":["` + good + `"]}`)},
		{"unknown member", `unknown field "frogs"`, frame(`{"frogs":1}`, raw)},
		{"the JSON body under the frame's content type", "wire: frame: bad magic", []byte(`{"payload":"` + good + `"}`)},
	} {
		before := srv.Stats().Invalid
		status, body := postFrame(t, ts.URL+resumePath, tc.body, false)
		var refusal struct{ Error string }
		_ = json.Unmarshal(body, &refusal)
		if status != http.StatusBadRequest || !strings.Contains(refusal.Error, tc.want) {
			t.Errorf("frame, %s: HTTP %d (%s), want 400 with %q", tc.name, status, body, tc.want)
		}
		if got := srv.Stats().Invalid; got != before+1 {
			t.Errorf("frame, %s: invalid counter %d -> %d, want +1", tc.name, before, got)
		}
	}
	// The members are the route's own wire struct: the retired /v1 form's
	// bare "delta" is an unknown field here.
	if status, body := postFrame(t, ts.URL+resumePath, frame(`{"delta":0.9}`, raw), false); status != http.StatusBadRequest || !strings.Contains(string(body), "unknown field") {
		t.Errorf("bare delta in the members: HTTP %d (%s), want 400 unknown field", status, body)
	}
	// And a frame under any other content type is a JSON body.
	resp, err := http.Post(ts.URL+resumePath, "application/octet-stream", bytes.NewReader(whole))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("a frame posted as octet-stream: HTTP %d, want 400 from the JSON decoder", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + resumePath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET resume: HTTP %d, want 405", resp.StatusCode)
	}
	if st := srv.Stats(); st.Invalid == 0 {
		t.Error("invalid-request counter not incremented")
	}

	// A valid resume is counted in both requests and resume_requests.
	if status, body := postResume(t, ts.URL, V2ResumeRequest{Payload: good}); status != http.StatusOK {
		t.Fatalf("good payload: HTTP %d (%s)", status, body)
	}
	if status, body := postFrame(t, ts.URL+resumePath, whole, false); status != http.StatusOK {
		t.Fatalf("good frame: HTTP %d (%s)", status, body)
	}
	st := srv.Stats()
	if st.ResumeRequests != 2 {
		t.Errorf("resume_requests %d, want 2", st.ResumeRequests)
	}
	if st.Requests != 2 {
		t.Errorf("requests %d, want 2", st.Requests)
	}
}

// TestParseDeltaRejectsNonFinite pins the satellite fix: NaN and ±Inf δ
// overrides must be rejected before they reach the exit rule (NaN compares
// false against every score and would silently disable early exit). JSON
// itself cannot carry NaN, so the guard is exercised directly — it protects
// any future non-JSON transport and programmatic callers.
func TestParseDeltaRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.1} {
		v := bad
		if _, err := ParseDeltaOverride(&v); err == nil {
			t.Errorf("delta %v accepted", bad)
		}
	}
	if d, err := ParseDeltaOverride(nil); err != nil || d != -1 {
		t.Errorf("nil delta: (%v, %v), want (-1, nil)", d, err)
	}
	half := 0.5
	if d, err := ParseDeltaOverride(&half); err != nil || d != 0.5 {
		t.Errorf("0.5 delta: (%v, %v), want (0.5, nil)", d, err)
	}
}

// TestClassifyRejectsOutOfRangeDelta exercises the same guard end-to-end
// over HTTP for the values JSON can express.
func TestClassifyRejectsOutOfRangeDelta(t *testing.T) {
	cdln, data := testCDLN(t, 43)
	srv, ts := startServer(t, cdln, Config{Workers: 1})
	for _, bad := range []float64{-0.1, 1.1} {
		v := bad
		status, body := postClassify(t, ts.URL, V2ClassifyRequest{Image: data[0].X.Flatten().Data, Policy: &PolicyRequest{Delta: &v}})
		if status != http.StatusBadRequest {
			t.Errorf("delta %v: HTTP %d (%s), want 400", bad, status, body)
		}
	}
	if st := srv.Stats(); st.Invalid != 2 {
		t.Errorf("invalid counter %d, want 2", st.Invalid)
	}
}
