package obs

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestGenerateIDShape(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		id := GenerateID()
		if len(id) != 32 {
			t.Fatalf("GenerateID() = %q, want 32 chars", id)
		}
		for _, c := range id {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("GenerateID() = %q contains non-hex %q", id, c)
			}
		}
		if seen[id] {
			t.Fatalf("GenerateID() repeated %q within 64 draws", id)
		}
		seen[id] = true
	}
}

func TestValidID(t *testing.T) {
	for _, ok := range []string{"a", "load-3", "A.B_c-9", strings.Repeat("f", 64)} {
		if !ValidID(ok) {
			t.Errorf("ValidID(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", strings.Repeat("f", 65), "has space", "new\nline", `quo"te`, "héx"} {
		if ValidID(bad) {
			t.Errorf("ValidID(%q) = true, want false", bad)
		}
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	tr.Record("x", time.Now(), time.Now(), "")
	tr.Merge("p:", []Span{{Name: "y"}})
	if tr.ID() != "" || tr.Propagated() || tr.Spans() != nil {
		t.Error("nil trace leaked state")
	}
}

func TestSpansOrderedAndMerged(t *testing.T) {
	tr := NewTrace("t", true)
	base := time.Unix(100, 0)
	tr.Record("late", base.Add(2*time.Millisecond), base.Add(3*time.Millisecond), "")
	tr.Record("early", base, base.Add(time.Millisecond), "detail")
	tr.Merge("cloud:", []Span{{Name: "stage", StartUnixNS: base.Add(time.Millisecond).UnixNano(), DurationMS: 0.5}})
	spans := tr.Spans()
	want := []string{"early", "cloud:stage", "late"}
	if len(spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(spans), len(want))
	}
	for i, w := range want {
		if spans[i].Name != w {
			t.Errorf("span[%d] = %q, want %q", i, spans[i].Name, w)
		}
	}
	if spans[0].DurationMS != 1 || spans[0].Detail != "detail" {
		t.Errorf("span[0] = %+v, want 1ms/detail", spans[0])
	}
	// Spans returns a copy: mutating it must not affect the trace.
	spans[0].Name = "mutated"
	if tr.Spans()[0].Name != "early" {
		t.Error("Spans() aliases internal storage")
	}
}

func TestMiddlewareEchoesAndGenerates(t *testing.T) {
	var got *Trace
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = FromContext(r.Context())
		w.WriteHeader(http.StatusServiceUnavailable) // header must already be set
	}), nil)

	// Client-pinned ID: echoed, propagated, present on an error response.
	req := httptest.NewRequest("POST", "/v1/classify", nil)
	req.Header.Set(TraceHeader, "pinned-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Header().Get(TraceHeader) != "pinned-1" {
		t.Fatalf("header = %q, want pinned-1", rec.Header().Get(TraceHeader))
	}
	if got == nil || !got.Propagated() || got.ID() != "pinned-1" {
		t.Fatalf("context trace = %+v", got)
	}

	// No ID: one is generated, echoed, not marked propagated.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/classify", nil))
	if id := rec.Header().Get(TraceHeader); !ValidID(id) || len(id) != 32 {
		t.Fatalf("generated header = %q", id)
	}
	if got.Propagated() {
		t.Error("generated ID marked propagated")
	}

	// Hostile ID: replaced with a generated one, never echoed verbatim.
	req = httptest.NewRequest("POST", "/v1/classify", nil)
	req.Header.Set(TraceHeader, "bad\nvalue")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if id := rec.Header().Get(TraceHeader); strings.Contains(id, "\n") || len(id) != 32 {
		t.Fatalf("hostile ID leaked: %q", id)
	}
}

func TestMiddlewareDisabled(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	var got *Trace
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = FromContext(r.Context())
	}), nil)
	req := httptest.NewRequest("POST", "/", nil)
	req.Header.Set(TraceHeader, "still-echoed")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got != nil {
		t.Error("disabled middleware attached a trace")
	}
	if rec.Header().Get(TraceHeader) != "still-echoed" {
		t.Error("disabled middleware dropped the header echo")
	}
}

func TestSlowLogSamples(t *testing.T) {
	var buf bytes.Buffer
	l := &SlowLog{
		Threshold:   10 * time.Millisecond,
		MinInterval: time.Hour,
		Logger:      slog.New(slog.NewTextHandler(&buf, nil)),
	}
	tr := NewTrace("slow-1", true)
	tr.Record("stage:trunk#0", time.Now(), time.Now().Add(time.Millisecond), "")
	l.Observe("POST", "/v1/classify", 200, tr, 5*time.Millisecond) // under threshold
	if buf.Len() != 0 {
		t.Fatalf("fast request logged: %s", buf.String())
	}
	l.Observe("POST", "/v1/classify", 200, tr, 50*time.Millisecond)
	out := buf.String()
	if !strings.Contains(out, "slow-1") || !strings.Contains(out, "stage:trunk#0") {
		t.Fatalf("slow log missing trace data: %s", out)
	}
	buf.Reset()
	l.Observe("POST", "/v1/classify", 200, tr, 50*time.Millisecond) // rate-limited
	if buf.Len() != 0 {
		t.Fatalf("rate limit did not hold: %s", buf.String())
	}
}

func TestProfilePhases(t *testing.T) {
	ProfReset()
	SetProfiling(true)
	defer SetProfiling(false)
	defer ProfReset()
	ProfAdd(PhaseIm2Col, 2*time.Millisecond)
	ProfAdd(PhaseGEMM, 3*time.Millisecond)
	ProfAdd(PhaseGEMM, time.Millisecond)
	snap := ProfSnapshot()
	byName := make(map[string]PhaseStat)
	for _, s := range snap {
		byName[s.Name] = s
	}
	if byName["im2col"].Calls != 1 || byName["im2col"].TotalMS != 2 {
		t.Errorf("im2col = %+v", byName["im2col"])
	}
	if byName["gemm"].Calls != 2 || byName["gemm"].TotalMS != 4 {
		t.Errorf("gemm = %+v", byName["gemm"])
	}
	if byName["classifier"].Calls != 0 {
		t.Errorf("classifier = %+v", byName["classifier"])
	}
	ProfReset()
	for _, s := range ProfSnapshot() {
		if s.Calls != 0 || s.TotalMS != 0 {
			t.Errorf("reset left %+v", s)
		}
	}
}
