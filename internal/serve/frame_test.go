package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/fixed"
	"cdl/internal/tensor"
)

// postFrame posts body under the frame's content type; chunked declares no
// Content-Length.
func postFrame(t testing.TB, url string, body []byte, chunked bool) (int, []byte) {
	t.Helper()
	return postBody(t, url, wire.FrameContentType, body, chunked)
}

// frameOf is the frame that says what a JSON resume request says: its
// payloads out of their base64, everything else as the members.
func frameOf(t testing.TB, req any) []byte {
	t.Helper()
	var b64 []string
	switch q := req.(type) {
	case v1Resume:
		b64, q.Payloads = q.Payloads, nil
		req = q
	case V2ResumeRequest:
		b64, q.Payload, q.Payloads = oneAndMany(q.Payload, q.Payloads), "", nil
		req = q
	default:
		t.Fatalf("frameOf(%T)", req)
	}
	payloads := make([][]byte, len(b64))
	for i, p := range b64 {
		var err error
		if payloads[i], err = base64.StdEncoding.DecodeString(p); err != nil {
			t.Fatal(err)
		}
	}
	members, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendFrame(nil, members, payloads)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// goldenResume returns the resume request of the golden set.
func goldenResume(t testing.TB, cdln *core.CDLN) V2ResumeRequest {
	t.Helper()
	for _, g := range goldenRequests(t, cdln) {
		if q, ok := g.req.(V2ResumeRequest); ok {
			return q
		}
	}
	t.Fatal("the golden set has no resume request")
	return V2ResumeRequest{}
}

func oneAndMany(one string, many []string) []string {
	if one != "" {
		return append([]string{one}, many...)
	}
	return many
}

// answerRows renders what both answer shapes carry: on a 200, each
// result's exit index, label and confidence bits, decoded from a frame
// answer's wire records or from a JSON answer's results; on a refusal, the
// body itself, which is JSON either way.
func answerRows(t testing.TB, status int, body []byte, frame bool) string {
	t.Helper()
	if status != http.StatusOK {
		return string(body)
	}
	var rows []wire.Record
	if frame {
		_, payloads, err := wire.ReadFrame(body)
		if err != nil {
			t.Fatalf("answer frame: %v", err)
		}
		for i, p := range payloads {
			r, err := wire.DecodeRecord(p)
			if err != nil {
				t.Fatalf("answer record %d: %v", i, err)
			}
			rows = append(rows, r)
		}
	} else {
		var resp struct {
			Results []struct {
				ExitIndex  int     `json:"exit_index"`
				Label      int     `json:"label"`
				Confidence float64 `json:"confidence"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("JSON answer: %v", err)
		}
		for _, r := range resp.Results {
			rows = append(rows, wire.Record{Exit: r.ExitIndex, Label: r.Label, Confidence: r.Confidence})
		}
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "exit %d label %d confidence %#x\n", r.Exit, r.Label, math.Float64bits(r.Confidence))
	}
	return b.String()
}

// TestFrameMatchesJSON is the differential check on the second body shape:
// the frame of a resume request and the JSON body carrying base64 of the
// same payloads get the same status, the same result rows (the frame
// answer's records against the JSON answer's results) on a 200 and the
// same refusal bytes otherwise — the golden requests (so the
// frame's answers are pinned by the same files), a single payload, a
// shaped policy with a deadline, and a refusal at each payload index by
// wire.Decode and by ValidateResume. An untraced frame answer has no
// members.
func TestFrameMatchesJSON(t *testing.T) {
	cdln, _ := testCDLN(t, 91)
	_, ts := startServer(t, cdln, Config{Workers: 2})
	golden := goldenResume(t, cdln)
	good := golden.Payloads
	raw, _ := base64.StdEncoding.DecodeString(good[0])
	act, err := wire.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	reshaped := act
	reshaped.Shape = []int{len(act.Data)}
	misfit, err := wire.Encode(reshaped, wire.EncodingFloat64, fixed.Format{})
	if err != nil {
		t.Fatal(err)
	}
	notWire, wrongShape := base64.StdEncoding.EncodeToString(raw[:len(raw)-3]), base64.StdEncoding.EncodeToString(misfit)

	capAt, strict := 2, 0.999
	cases := []struct {
		name string
		req  V2ResumeRequest
		want int
	}{
		{"golden", golden, 200},
		{"one payload", V2ResumeRequest{Payload: good[0]}, 200},
		{"shaped policy", V2ResumeRequest{Payloads: good[:3], TimeoutMS: 60_000,
			Policy: &PolicyRequest{Delta: &strict, MaxExit: &capAt, Detail: DetailLabel}}, 200},
		{"unsatisfiable depth cap", V2ResumeRequest{Payloads: good[:2], Policy: &PolicyRequest{MaxExit: new(int)}}, 400},
		{"negative timeout", V2ResumeRequest{Payloads: good[:2], TimeoutMS: -1}, 400},
		{"wire refuses payload 2", V2ResumeRequest{Payloads: []string{good[0], good[1], notWire, wrongShape}}, 400},
		{"the model refuses payload 1", V2ResumeRequest{Payloads: []string{good[0], wrongShape, notWire}}, 400},
		{"the model refuses payload 0, wire payload 1", V2ResumeRequest{Payloads: []string{wrongShape, notWire}}, 400},
	}
	for _, tc := range cases {
		status, body := postJSON(t, ts.URL+resumePath, tc.req)
		fstatus, fbody := postFrame(t, ts.URL+resumePath, frameOf(t, tc.req), false)
		if status != tc.want {
			t.Errorf("%s: JSON HTTP %d (%s), want %d", tc.name, status, body, tc.want)
		}
		if fstatus != status || answerRows(t, fstatus, fbody, true) != answerRows(t, status, body, false) {
			t.Errorf("%s: frame HTTP %d\n%q\nJSON HTTP %d\n%s", tc.name, fstatus, fbody, status, body)
			continue
		}
		if fstatus == http.StatusOK {
			if members, _, _ := wire.ReadFrame(fbody); len(members) != 0 {
				t.Errorf("%s: untraced frame answer carries members %q", tc.name, members)
			}
		}
	}
}

// TestResumeFrameBound pins the frame's 413 on its own length: the bound is
// the request cap's payloads of the model's widest activation, each with its
// four-byte length, not the base64-inflated bound of the JSON body. A frame
// of exactly the bound is served; one byte more is refused by its declared
// length before a byte is read, or (chunked) once the bytes run past.
func TestResumeFrameBound(t *testing.T) {
	cdln, _ := testCDLN(t, 91)
	const maxImages = 3
	srv, _ := startServer(t, cdln, Config{Workers: 1, QueueDepth: maxImages})
	m, err := srv.Registry().Get("")
	if err != nil {
		t.Fatal(err)
	}
	bound := bodyBound(maxImages, m.maxResumeWire+4)
	if jsonBound := bodyBound(maxImages, base64.StdEncoding.EncodedLen(m.maxResumeWire)+4); bound >= jsonBound {
		t.Fatalf("frame bound %d is not under the JSON bound %d", bound, jsonBound)
	}
	golden := goldenResume(t, cdln)
	req := V2ResumeRequest{Payloads: golden.Payloads[:maxImages], Policy: golden.Policy}
	// Whitespace after the members object is the one place a frame can be
	// padded: the members are read as the JSON route reads its body.
	padded := func(size int64) []byte {
		frame := frameOf(t, req)
		_, payloads, _ := wire.ReadFrame(frame)
		members, _ := json.Marshal(V2ResumeRequest{Policy: req.Policy})
		members = append(members, bytes.Repeat([]byte(" "), int(size)-len(frame))...)
		frame, err := wire.AppendFrame(nil, members, payloads)
		if err != nil || int64(len(frame)) != size {
			t.Fatalf("padded frame: %d bytes, want %d (%v)", len(frame), size, err)
		}
		return frame
	}
	post := func(body io.Reader, declared int64) int {
		r := httptest.NewRequest(http.MethodPost, resumePath, body)
		r.Header.Set("Content-Type", wire.FrameContentType)
		r.ContentLength = declared
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, r)
		return w.Code
	}
	for _, tc := range []struct {
		name string
		got  int
		want int
	}{
		{"exactly the bound", post(bytes.NewReader(padded(bound)), bound), http.StatusOK},
		{"exactly the bound, chunked", post(bytes.NewReader(padded(bound)), -1), http.StatusOK},
		{"declared over the bound", post(unreadBody{t}, bound+1), http.StatusRequestEntityTooLarge},
		{"chunked over the bound", post(bytes.NewReader(padded(bound+1)), -1), http.StatusRequestEntityTooLarge},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, tc.got, tc.want)
		}
	}
	if got := srv.Stats().Invalid; got != 2 {
		t.Errorf("invalid counter %d, want 2", got)
	}
}

// TestFrameDoesNotAliasBody pins what lets a frame's inputs be built twice
// across a hot-swap: everything frameBody.decode keeps is a copy, so the
// pooled body buffer can be overwritten and reused by another request and
// the jobs built afterwards, however often, hold the tensors that were sent.
func TestFrameDoesNotAliasBody(t *testing.T) {
	cdln, _ := testCDLN(t, 91)
	srv, _ := startServer(t, cdln, Config{Workers: 1})
	m, err := srv.Registry().Get("")
	if err != nil {
		t.Fatal(err)
	}
	v2 := goldenResume(t, cdln)
	var want []*tensor.T
	for _, p := range v2.Payloads {
		raw, _ := base64.StdEncoding.DecodeString(p)
		act, err := wire.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, tensor.FromSlice(act.Data, act.Shape...))
	}

	buf := frameOf(t, v2)
	frame := &frameBody{members: new(V2ResumeRequest)}
	a := &request{width: m.inWidth, maxInputs: 64}
	if _, err := decodeJSON(buf, frame, a); err != nil {
		t.Fatal(err)
	}
	req := frame.infer()
	check := func(when string) {
		t.Helper()
		jobs, err := req.inputs(m, true, a)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range jobs {
			if !slices.Equal(j.x.Data, want[i].Data) || !slices.Equal(j.x.Shape(), want[i].Shape()) || j.fromStage != 1 {
				t.Fatalf("%s: job %d is not the activation that was sent", when, i)
			}
		}
	}
	check("before the buffer is reused")
	for i := range buf {
		buf[i] = 0xA5
	}
	check("after the buffer is overwritten")
	// Reused for another request's frame, as the pool would.
	other := frameOf(t, V2ResumeRequest{Payloads: []string{v2.Payloads[len(v2.Payloads)-1]}})
	copy(buf, other)
	if _, err := decodeJSON(buf[:len(other)], &frameBody{members: new(V2ResumeRequest)}, &request{width: m.inWidth, maxInputs: 64}); err != nil {
		t.Fatal(err)
	}
	check("after the buffer carried another request")
}

// TestFrameJSONConcurrent mixes both body shapes on one server (one body
// pool, one answer pool, one worker pool): every response is the one its
// request gets alone — the same bytes for a JSON request, the same records
// for a frame. CI runs it under -race.
func TestFrameJSONConcurrent(t *testing.T) {
	cdln, _ := testCDLN(t, 91)
	_, ts := startServer(t, cdln, Config{Workers: 2})
	golden := goldenResume(t, cdln)
	// Request k resumes payload k alone, so a swapped buffer shows as a
	// different record.
	n := len(golden.Payloads)
	reqs, want := make([]V2ResumeRequest, n), make([][]byte, n)
	for k := range reqs {
		reqs[k] = V2ResumeRequest{Payload: golden.Payloads[k], Policy: golden.Policy}
		status, body := postResume(t, ts.URL, reqs[k])
		if status != http.StatusOK {
			t.Fatalf("payload %d: HTTP %d (%s)", k, status, body)
		}
		want[k] = body
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (g + i) % n
				var status int
				var body []byte
				frame := (g+i)%2 == 0
				if frame {
					status, body = postFrame(t, ts.URL+resumePath, frameOf(t, reqs[k]), i%3 == 0)
				} else {
					status, body = postResume(t, ts.URL, reqs[k])
				}
				if status != http.StatusOK || (frame && answerRows(t, status, body, true) != answerRows(t, status, want[k], false)) ||
					(!frame && !bytes.Equal(body, want[k])) {
					errs <- fmt.Errorf("goroutine %d request %d (payload %d, frame %v): HTTP %d %q, want %s", g, i, k, frame, status, body, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzResumeFrame is the differential check as a fuzz target, handler to
// handler with no sockets: for any members and any payloads, the frame and
// the JSON body carrying base64 of the same payloads under the same members
// get the same status, the same result rows on 200 (exit index, label and
// confidence bits: the frame answer's records against the JSON results)
// and the same refusal otherwise — the payload
// index and wire's or ValidateResume's words included. Members the route's
// wire struct refuses have no JSON twin; their frame must be a 400.
func FuzzResumeFrame(f *testing.F) {
	cdln, _ := testCDLN(f, 91)
	srv, _ := startServer(f, cdln, Config{Workers: 2, QueueDepth: 3})
	_, good, _ := wire.ReadFrame(frameOf(f, goldenResume(f, cdln)))
	act, err := wire.Decode(good[0])
	if err != nil {
		f.Fatal(err)
	}
	act.Shape = []int{len(act.Data)}
	misfit, err := wire.Encode(act, wire.EncodingFloat64, fixed.Format{})
	if err != nil {
		f.Fatal(err)
	}
	for _, members := range []string{
		`{}`, `{"delta":0.9}`, `{"policy":{"delta":0.9}}`, `{"policy":{"max_exit":0}}`, `{"delta":1.5}`,
		`{"policy":{"detail":"label"},"timeout_ms":60000}`, `{"frogs":1}`, `{"payload":"QQ=="}`, `{"delta":0.9} x`, ``,
	} {
		f.Add([]byte(members), good[0], good[1], uint8(2))
		f.Add([]byte(members), good[2], []byte(nil), uint8(1))
	}
	f.Add([]byte(`{}`), good[0], good[1], uint8(4)) // over the cap of 3
	f.Add([]byte(`{}`), good[0], good[1], uint8(0))
	f.Add([]byte(`{}`), misfit, good[1][:40], uint8(2))
	f.Add([]byte(`{}`), good[0], good[1][:40], uint8(3))

	post := func(t *testing.T, path, contentType string, body []byte) (int, string) {
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		r.Header.Set("Content-Type", contentType)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, r)
		return w.Code, answerRows(t, w.Code, w.Body.Bytes(), contentType == wire.FrameContentType)
	}
	// A deadline or a full queue is the clock's verdict, not the body's; and
	// the two bodies have different lengths under different bounds.
	incomparable := map[int]bool{http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true, http.StatusRequestEntityTooLarge: true}
	f.Fuzz(func(t *testing.T, members, p0, p1 []byte, n uint8) {
		payloads := make([][]byte, n%5)
		b64 := make([]string, len(payloads))
		for i := range payloads {
			payloads[i] = [][]byte{p0, p1}[i%2]
			b64[i] = base64.StdEncoding.EncodeToString(payloads[i])
		}
		frame, err := wire.AppendFrame(nil, members, payloads)
		if err != nil {
			t.Fatal(err)
		}
		status, got := post(t, resumePath, wire.FrameContentType, frame)
		var twin V2ResumeRequest
		err = strictDecode(members, &twin)
		if err != nil || twin.Payload != "" || twin.Payloads != nil {
			if status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge {
				t.Fatalf("HTTP %d %s for members %q", status, got, members)
			}
			return
		}
		twin.Payloads = b64
		asJSON, err := json.Marshal(twin)
		if err != nil {
			t.Fatal(err)
		}
		jstatus, want := post(t, resumePath, "application/json", asJSON)
		if incomparable[status] || incomparable[jstatus] {
			return
		}
		if jstatus == http.StatusInternalServerError && status == http.StatusOK && strings.Contains(want, "encode: ") {
			// A NaN or infinite confidence: JSON cannot carry it, a record can.
			if !strings.Contains(got, "confidence 0x7ff") && !strings.Contains(got, "confidence 0xfff") {
				t.Fatalf("JSON %s, frame records without a NaN:\n%s", want, got)
			}
			return
		}
		if status != jstatus || got != want {
			t.Fatalf("frame HTTP %d %s\nJSON  HTTP %d %s", status, got, jstatus, want)
		}
	})
}

// TestFramePayloadCountRefusedUnstored pins the refusal of a frame that
// declares more payloads than a request may carry: 65 535 empty payloads,
// within the default server's frame bound, get the JSON route's 400 text
// byte for byte, and the reader stores nothing per payload on the way, so
// a warm server allocates under 64 KiB for the request, not a view and an
// activation slot for each of the 65 535.
func TestFramePayloadCountRefusedUnstored(t *testing.T) {
	cdln, _ := testCDLN(t, 91)
	srv, _ := startServer(t, cdln, Config{})
	frame, err := wire.AppendFrame(nil, []byte(`{}`), make([][]byte, math.MaxUint16))
	if err != nil {
		t.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, resumePath, bytes.NewReader(frame))
		r.Header.Set("Content-Type", wire.FrameContentType)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, r)
		return w
	}
	const want = `{"error":"65535 payloads exceed the per-request cap 256"}` + "\n"
	if w := post(); w.Code != http.StatusBadRequest || w.Body.String() != want {
		t.Fatalf("HTTP %d %q, want 400 %q", w.Code, w.Body, want)
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a %d-byte frame of %d payloads: %d B allocated per request", len(frame), math.MaxUint16, perRequest)
	if perRequest >= 64<<10 {
		t.Errorf("%d bytes allocated per refused frame, want < 64 KiB", perRequest)
	}
}
