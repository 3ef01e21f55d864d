package serve

// validate_test.go pins the request-validation helpers shared by the cloud
// server and the edge front — ParseDeltaOverride,
// ClassifyRequest.NormalizeImages, PolicyRequest.resolve and its inverse,
// PolicyRequestOf — with direct
// table-driven cases. They were previously covered only incidentally
// through the e2e HTTP tests; these tables make the accept/reject boundary
// explicit, including inputs JSON alone cannot produce (NaN/±Inf), which
// in-process callers can.

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cdl/internal/core"
)

func fp(v float64) *float64 { return &v }

func TestParseDeltaOverride(t *testing.T) {
	cases := []struct {
		name    string
		in      *float64
		want    float64
		wantErr bool
	}{
		{name: "nil keeps trained thresholds", in: nil, want: -1},
		{name: "zero", in: fp(0), want: 0},
		{name: "one", in: fp(1), want: 1},
		{name: "interior", in: fp(0.35), want: 0.35},
		{name: "negative", in: fp(-0.001), wantErr: true},
		{name: "above one", in: fp(1.001), wantErr: true},
		{name: "NaN", in: fp(math.NaN()), wantErr: true},
		{name: "+Inf", in: fp(math.Inf(1)), wantErr: true},
		{name: "-Inf", in: fp(math.Inf(-1)), wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseDeltaOverride(tc.in)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ParseDeltaOverride(%v) accepted, want error", *tc.in)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseDeltaOverride: %v", err)
			}
			if got != tc.want {
				t.Fatalf("ParseDeltaOverride = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestNormalizeImages(t *testing.T) {
	const inWidth, maxImages = 4, 3
	inShape := []int{1, 2, 2}
	ok := []float64{0.1, 0.2, 0.3, 0.4}
	cases := []struct {
		name    string
		req     ClassifyRequest
		wantN   int
		wantErr string
	}{
		{
			name:  "single image",
			req:   ClassifyRequest{Image: ok},
			wantN: 1,
		},
		{
			name:  "batch",
			req:   ClassifyRequest{Images: [][]float64{ok, ok, ok}},
			wantN: 3,
		},
		{
			name:    "both set",
			req:     ClassifyRequest{Image: ok, Images: [][]float64{ok}},
			wantErr: "not both",
		},
		{
			name:    "neither set",
			req:     ClassifyRequest{},
			wantErr: "missing",
		},
		{
			name:    "empty batch",
			req:     ClassifyRequest{Images: [][]float64{}},
			wantErr: "missing",
		},
		{
			name:    "over the cap",
			req:     ClassifyRequest{Images: [][]float64{ok, ok, ok, ok}},
			wantErr: "per-request cap",
		},
		{
			name:    "wrong pixel count",
			req:     ClassifyRequest{Image: []float64{1, 2, 3}},
			wantErr: "model wants 4",
		},
		{
			name:    "empty image",
			req:     ClassifyRequest{Images: [][]float64{{}}},
			wantErr: "model wants 4",
		},
		{
			name:    "NaN pixel",
			req:     ClassifyRequest{Image: []float64{0, math.NaN(), 0, 0}},
			wantErr: "must be finite",
		},
		{
			name:    "+Inf pixel",
			req:     ClassifyRequest{Images: [][]float64{ok, {0, 0, math.Inf(1), 0}}},
			wantErr: "must be finite",
		},
		{
			name:    "-Inf pixel",
			req:     ClassifyRequest{Image: []float64{math.Inf(-1), 0, 0, 0}},
			wantErr: "must be finite",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			images, err := tc.req.NormalizeImages(inWidth, maxImages, inShape)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("NormalizeImages accepted, want error containing %q", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("NormalizeImages error %q, want it to contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("NormalizeImages: %v", err)
			}
			if len(images) != tc.wantN {
				t.Fatalf("NormalizeImages returned %d images, want %d", len(images), tc.wantN)
			}
		})
	}
}

// TestPolicyRequestResolve pins the one definition of a valid per-request
// policy: δ and every per-stage δ finite and in [0,1] (a NaN would compare
// false against every score and silently disable early exit; a negative
// stage entry keeps that stage's threshold), one stage delta per stage,
// and max_exit an existing path depth.
func TestPolicyRequestResolve(t *testing.T) {
	cdln, _ := testCDLN(t, 61)
	reg := NewRegistry(Config{Workers: 1})
	t.Cleanup(reg.Close)
	m, err := reg.Register(DefaultModelName, cdln)
	if err != nil {
		t.Fatal(err)
	}
	n := len(cdln.Stages)
	stages := func(last float64) []float64 {
		sd := make([]float64, n)
		sd[0], sd[n-1] = 0.3, last
		return sd
	}
	ip := func(v int) *int { return &v }
	good := []PolicyRequest{
		{},
		{Delta: fp(0.5)},
		{MaxExit: ip(0)},
		{MaxExit: ip(n)},
		{StageDeltas: stages(-1)},
		{Delta: fp(1), MaxExit: ip(1), Detail: DetailTrace},
	}
	for i, p := range good {
		if _, _, err := p.resolve(m); err != nil {
			t.Errorf("good policy %d rejected: %v", i, err)
		}
	}
	bad := []PolicyRequest{
		{Delta: fp(math.NaN())},
		{Delta: fp(math.Inf(1))},
		{Delta: fp(1.5)},
		{MaxExit: ip(n + 1)},
		{MaxExit: ip(-1)},
		{StageDeltas: make([]float64, n+1)},
		{StageDeltas: stages(math.NaN())},
		{StageDeltas: stages(2)},
		{Detail: "verbose"},
	}
	for i, p := range bad {
		if _, _, err := p.resolve(m); err == nil {
			t.Errorf("bad policy %d accepted: %+v", i, p)
		}
	}
}

// TestPolicyRequestOfRoundTrips pins the offload's policy bytes: every
// resolved policy, written as a resume request's members by
// PolicyRequestOf (the members HTTPTransport sends) and read back as the
// cloud reads them — strict decode, then resolve — comes back Equal. A
// bare δ keeps its pre-policy bytes and the trained policy sends "{}", so
// a δ-only offload's frame does not change by a byte.
func TestPolicyRequestOfRoundTrips(t *testing.T) {
	cdln, _ := testCDLN(t, 61)
	reg := NewRegistry(Config{Workers: 1})
	t.Cleanup(reg.Close)
	m, err := reg.Register(DefaultModelName, cdln)
	if err != nil {
		t.Fatal(err)
	}
	depth := m.graph.MaxDepth()
	for _, tc := range []struct {
		name  string
		pol   core.ExitPolicy
		bytes string // "" leaves the bytes unpinned
	}{
		{"trained thresholds", core.DefaultExitPolicy(), `{}`},
		{"bare delta", core.DeltaPolicy(0.95), `{"policy":{"delta":0.95}}`},
		{"delta 0", core.DeltaPolicy(0), `{"policy":{"delta":0}}`},
		{"stage deltas with a keep entry", core.ExitPolicy{Delta: -1, MaxExit: -1, StageDeltas: []float64{-1, 0.8}}, ""},
		{"stage deltas under a delta", core.ExitPolicy{Delta: 0.9, MaxExit: -1, StageDeltas: []float64{0.5, -0.25}}, ""},
		{"max_exit at split 1", core.DepthCapped(1), `{"policy":{"max_exit":1}}`},
		{"max_exit at MaxDepth-1", core.DepthCapped(depth - 1), ""},
		{"max_exit at MaxDepth", core.DepthCapped(depth), ""},
		{"trace", core.ExitPolicy{Delta: -1, MaxExit: -1, Trace: true}, `{"policy":{"detail":"trace"}}`},
		{"everything", core.ExitPolicy{Delta: 0.7, MaxExit: 1, StageDeltas: []float64{-1, 0.3}, Trace: true}, ""},
	} {
		b, err := json.Marshal(V2ResumeRequest{Policy: PolicyRequestOf(tc.pol)})
		if err != nil {
			t.Fatal(err)
		}
		if tc.bytes != "" && string(b) != tc.bytes {
			t.Errorf("%s: members %s, want %s", tc.name, b, tc.bytes)
		}
		var req V2ResumeRequest
		if err := strictDecode(b, &req); err != nil {
			t.Fatalf("%s: %s: %v", tc.name, b, err)
		}
		got := core.DefaultExitPolicy()
		if req.Policy != nil {
			if got, _, err = req.Policy.resolve(m); err != nil {
				t.Fatalf("%s: %s: %v", tc.name, b, err)
			}
		}
		if !got.Equal(tc.pol) {
			t.Errorf("%s: %s resolves to %+v, sent %+v", tc.name, b, got, tc.pol)
		}
	}
}
