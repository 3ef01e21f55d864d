package serve

// golden_test.go pins the /v1 wire format byte-for-byte: the golden files
// under testdata/ were generated against the pre-registry single-model
// server, and every later redesign of the serving internals (the model
// registry, the v2 surface, policy-aware dispatch) must keep /v1/classify
// and /v1/resume responses bit-identical to them. Regenerate only on a
// deliberate, documented wire change: go test ./internal/serve -run
// TestV1GoldenCompat -update-golden

import (
	"bytes"
	"encoding/base64"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/fixed"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the /v1 golden response files")

// goldenRequests builds the deterministic request set: classify (single,
// batch, δ-override) and resume (every payload the split-1 prefix defers
// under a deep-exit δ). Everything derives from the seeded fixture, so the
// bodies are reproducible bit-for-bit.
func goldenRequests(t *testing.T, cdln *core.CDLN) []struct {
	name string
	path string
	req  any
} {
	t.Helper()
	_, data := testCDLN(t, 91) // same seed as the caller's model
	img := func(i int) []float64 { return data[i].X.Flatten().Data }

	batch := make([][]float64, 24)
	for i := range batch {
		batch[i] = img(i)
	}
	small := make([][]float64, 10)
	for i := range small {
		small[i] = img(40 + i)
	}
	delta := 0.7

	// Resume payloads: run the split-1 prefix at δ=0.9 so a healthy share
	// defers, and ship exactly those activations.
	edge, err := core.NewSession(cdln)
	if err != nil {
		t.Fatal(err)
	}
	resumeDelta := 0.9
	var payloads []string
	for i := 0; i < 40 && len(payloads) < 12; i++ {
		pre := prefixOne(edge, data[i].X, 1, resumeDelta)
		if pre.Exited {
			continue
		}
		b, err := wire.Encode(wire.Activation{
			FromStage: 1, Pos: pre.Pos, Shape: pre.Activation.Shape(), Data: pre.Activation.Data,
		}, wire.EncodingFloat64, fixed.Format{})
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, base64.StdEncoding.EncodeToString(b))
	}
	if len(payloads) == 0 {
		t.Fatal("fixture degenerate: split-1 δ=0.9 prefix deferred nothing")
	}

	return []struct {
		name string
		path string
		req  any
	}{
		{"classify_single", "/v1/classify", ClassifyRequest{Image: img(3)}},
		{"classify_batch", "/v1/classify", ClassifyRequest{Images: batch}},
		{"classify_delta", "/v1/classify", ClassifyRequest{Images: small, Delta: &delta}},
		{"resume_batch", "/v1/resume", ResumeRequest{Payloads: payloads, Delta: &resumeDelta}},
	}
}

// TestV1GoldenCompat asserts the exact response bytes of the /v1 surface
// against the checked-in goldens (HTTP 200 and body, including the JSON
// encoder's trailing newline).
func TestV1GoldenCompat(t *testing.T) {
	cdln, _ := testCDLN(t, 91)
	_, ts := startServer(t, cdln, Config{Workers: 2})

	for _, tc := range goldenRequests(t, cdln) {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			var body []byte
			switch req := tc.req.(type) {
			case ClassifyRequest:
				status, body = postClassify(t, ts.URL, req)
			case ResumeRequest:
				status, body = postResume(t, ts.URL, req)
			}
			if status != http.StatusOK {
				t.Fatalf("HTTP %d: %s", status, body)
			}
			golden := filepath.Join("testdata", "golden_v1_"+tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, body, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden on a known-good tree): %v", err)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("%s response diverged from the pre-registry golden:\ngot:  %s\nwant: %s",
					tc.path, firstDiff(body, want), want)
			}
		})
	}
}

// firstDiff renders the response with a marker at the first differing byte.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Sprintf("%s«DIFF@%d»%s", got[:i], i, got[i:])
}
