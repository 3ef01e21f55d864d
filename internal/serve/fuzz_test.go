package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// FuzzInfer feeds arbitrary bodies to the one inference handler through
// all four of its routes, over real HTTP on the 12×12 fixture. Whatever
// arrives, the server must not panic (a handler panic resets the
// connection, which fails the POST), must answer with a status the surface
// documents, and must say why in the shared {"error": ...} body whenever it
// refuses. The corpus is seeded from the golden requests, truncations of
// them, trailing garbage after a valid value and a wrong-typed field.
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
	}
	f.Add([]byte(`{"image": "not an array", "timeout_ms": "soon"}`))

	routes := []string{
		"/v1/classify", "/v1/resume",
		"/v2/models/" + DefaultModelName + "/classify", "/v2/models/" + DefaultModelName + "/resume",
	}
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusMethodNotAllowed: true, http.StatusRequestEntityTooLarge: true,
		http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range routes {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			var out struct {
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if !allowed[resp.StatusCode] {
				t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
			}
			if err != nil {
				t.Fatalf("%s: HTTP %d with a non-JSON body: %v", path, resp.StatusCode, err)
			}
			if resp.StatusCode != http.StatusOK && out.Error == "" {
				t.Fatalf("%s: HTTP %d without an error message", path, resp.StatusCode)
			}
		}
	})
}
