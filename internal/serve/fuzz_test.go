package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"cdl/internal/edgecloud/wire"
)

// FuzzInfer feeds arbitrary bodies to the one inference handler through
// both of its routes, over real HTTP on the 12×12 fixture. Whatever
// arrives, the server must not panic (a handler panic resets the
// connection, which fails the POST), must answer with a status the surface
// documents, and must say why in the shared {"error": ...} body whenever it
// refuses. The corpus is seeded from the golden requests (the retired /v1
// bodies among them), truncations of them, trailing garbage after a valid
// value and a wrong-typed field.
//
// The resume route gets the same bytes a second time under the frame's
// content type, held to the same rules, except that a 200 answers with a
// frame of wire records: those must equal, in exit index, label and
// confidence bits, the results the JSON twin of the request gets (frames
// of the golden resume requests, whole, cut and padded, seed that side).
// FuzzResumeFrame holds well-formed frames to the JSON route's verdicts.
func FuzzInfer(f *testing.F) {
	cdln, _ := testCDLN(f, 91)
	_, ts := startServer(f, cdln, Config{Workers: 2})
	for _, g := range goldenRequests(f, cdln) {
		body, err := json.Marshal(g.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2])
		f.Add(body[:len(body)-1])
		f.Add(append(body[:len(body):len(body)], " trailing garbage"...))
		switch g.req.(type) {
		case v1Resume, V2ResumeRequest:
			frame := frameOf(f, g.req)
			f.Add(frame)
			f.Add(frame[:len(frame)/2])
			f.Add(frame[:len(frame)-1])
			f.Add(append(frame[:len(frame):len(frame)], 0))
		}
	}
	f.Add([]byte(`{"image": "not an array", "timeout_ms": "soon"}`))

	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusMethodNotAllowed: true, http.StatusRequestEntityTooLarge: true,
		http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
	}
	// post holds one response to the surface's rules and returns it.
	post := func(t *testing.T, path, contentType string, body []byte) (int, []byte) {
		resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var out struct {
			Error string `json:"error"`
		}
		if !allowed[resp.StatusCode] {
			t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
		}
		if resp.StatusCode == http.StatusOK && contentType == wire.FrameContentType {
			return resp.StatusCode, raw // answerRows decodes it
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s: HTTP %d with a non-JSON body: %v", path, resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusOK && out.Error == "" {
			t.Fatalf("%s: HTTP %d without an error message", path, resp.StatusCode)
		}
		return resp.StatusCode, raw
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		post(t, classifyPath, "application/json", body)
		post(t, resumePath, "application/json", body)
		status, answer := post(t, resumePath, wire.FrameContentType, body)
		if status != http.StatusOK {
			return
		}
		got := answerRows(t, status, answer, true)
		jstatus, janswer := post(t, resumePath, "application/json", jsonTwin(t, body))
		if jstatus == http.StatusOK && answerRows(t, jstatus, janswer, false) != got {
			t.Fatalf("frame records\n%sJSON twin's results\n%s", got, answerRows(t, jstatus, janswer, false))
		}
	})
}

// jsonTwin is the JSON body that says what an accepted resume frame says:
// its members decoded into the route's wire struct, its payloads in base64.
func jsonTwin(t testing.TB, frame []byte) []byte {
	t.Helper()
	members, payloads, err := wire.ReadFrame(frame)
	if err != nil {
		t.Fatalf("an accepted frame does not read back: %v", err)
	}
	b64 := make([]string, len(payloads))
	for i, p := range payloads {
		b64[i] = base64.StdEncoding.EncodeToString(p)
	}
	var twin V2ResumeRequest
	if err := strictDecode(members, &twin); err != nil {
		t.Fatalf("an accepted frame's members do not decode: %v", err)
	}
	twin.Payloads = b64
	body, err := json.Marshal(twin)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
