package serve

// golden_test.go pins the inference wire format byte-for-byte. The
// golden_v2_* files pin /v2 classify and resume: four were generated
// against the last tree with four separate data handlers, and
// classify_batch and classify_delta carry, value for value, the results
// the retired /v1 surface gave the same inputs. Regenerate only on a
// deliberate, documented wire change: go test ./internal/serve -run
// TestGoldenCompat -update-golden

import (
	"bytes"
	"encoding/base64"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"cdl/internal/core"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/fixed"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden response files")

// goldenVolatile matches the response fields that differ run to run (the
// generated trace id and the wall-clock span and deadline stamps); they are
// masked before comparing, so the goldens still pin their presence, order
// and every span name and detail.
var goldenVolatile = regexp.MustCompile(`"(trace_id|start_unix_ns|duration_ms|deadline_unix_ms)":("[^"]*"|[0-9.e+-]+)`)

// goldenRequest is one pinned exchange: req POSTed to path must answer 200
// with exactly the bytes of testdata/golden_v2_<golden>.json. An empty
// golden marks a body the removed /v1 routes took with its δ as a bare
// "delta" member: /v2 must refuse it as an unknown field.
type goldenRequest struct {
	name   string
	path   string
	req    any
	golden string
}

// v1Resume is the body the retired /v1/resume route took.
type v1Resume struct {
	Payloads []string `json:"payloads,omitempty"`
	Delta    *float64 `json:"delta,omitempty"`
}

// goldenRequests builds the deterministic request set: classify (single,
// batch, δ policy, shaped-policy trace, label detail) and resume (every
// payload the split-1 prefix defers under a deep-exit δ), then three
// bodies the retired /v1 routes took: the δ-less single image, which /v2
// answers byte for byte as its own, and the two that carried a bare δ.
// Everything derives from the seeded fixture, so the bodies are
// reproducible bit-for-bit.
func goldenRequests(t testing.TB, cdln *core.CDLN) []goldenRequest {
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

	// The trace row is a single image: one job runs on one worker in one
	// micro-batch, so its span list is the same at every GOMAXPROCS. A δ no
	// stage clears plus a depth cap makes the cap decide the exit.
	capAt, strict := 1, 0.999
	shaped := &PolicyRequest{Delta: &strict, MaxExit: &capAt, Detail: DetailTrace}
	return []goldenRequest{
		{"classify_single", classifyPath, V2ClassifyRequest{Image: img(3)}, "classify_single"},
		{"classify_batch", classifyPath, V2ClassifyRequest{Images: batch}, "classify_batch"},
		{"classify_delta", classifyPath, V2ClassifyRequest{Images: small, Policy: &PolicyRequest{Delta: &delta}}, "classify_delta"},
		{"classify_policy_trace", classifyPath, V2ClassifyRequest{Image: img(5), Policy: shaped, TimeoutMS: 60_000}, "classify_policy_trace"},
		{"classify_label", classifyPath, V2ClassifyRequest{Images: small, Policy: &PolicyRequest{Detail: DetailLabel}}, "classify_label"},
		{"resume_batch", resumePath, V2ResumeRequest{Payloads: payloads, Policy: &PolicyRequest{Delta: &resumeDelta}}, "resume_batch"},
		{"v1_classify_single", classifyPath, ClassifyRequest{Image: img(3)}, "classify_single"},
		{"v1_classify_delta", classifyPath, ClassifyRequest{Images: small, Delta: &delta}, ""},
		{"v1_resume_batch", resumePath, v1Resume{Payloads: payloads, Delta: &resumeDelta}, ""},
	}
}

// TestGoldenCompat asserts the exact response bytes of both inference
// routes against the checked-in goldens (HTTP 200 and body, including the
// JSON encoder's trailing newline), and that the retired /v1 bodies
// carrying a bare δ are refused.
func TestGoldenCompat(t *testing.T) {
	cdln, _ := testCDLN(t, 91)
	_, ts := startServer(t, cdln, Config{Workers: 2})

	for _, tc := range goldenRequests(t, cdln) {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJSON(t, ts.URL+tc.path, tc.req)
			if tc.golden == "" {
				if status != http.StatusBadRequest || !bytes.Contains(body, []byte(`unknown field \"delta\"`)) {
					t.Fatalf("HTTP %d: %s; want 400 naming the unknown field \"delta\"", status, body)
				}
				return
			}
			if status != http.StatusOK {
				t.Fatalf("HTTP %d: %s", status, body)
			}
			body = goldenVolatile.ReplaceAll(body, []byte(`"$1":"MASKED"`))
			golden := filepath.Join("testdata", "golden_v2_"+tc.golden+".json")
			if *updateGolden && tc.golden == tc.name {
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
				t.Fatalf("%s response diverged from the golden:\ngot:  %s\nwant: %s",
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
