// Package obs is the zero-dependency observability layer threaded through
// every serving tier: request tracing (X-Trace-Id propagation and timed
// spans from admission through micro-batching, stage execution, branch
// routing and edge→cloud hops), Prometheus-text metric exposition
// (/metricsz), opt-in phase profiling (im2col vs GEMM vs classifier) and
// the pprof/expvar admin listener. Everything here is stdlib-only — the
// serving stack must not grow a metrics dependency to be observable.
//
// Tracing is always on by default and is designed to stay on in
// production: per-request cost is one ID, a handful of clock reads per
// micro-batch stage and a mutex-guarded span append. SetEnabled(false)
// turns the whole layer into header pass-through — the overhead guard
// benchmark in internal/serve pins the enabled-vs-disabled gap.
package obs

import (
	"cmp"
	"context"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header carrying the request trace ID across
// tiers (client → edge → cloud and back).
const TraceHeader = "X-Trace-Id"

// enabled is the global tracing switch: on by default, atomically
// flippable at runtime (the overhead benchmark and the admin surface
// toggle it). Disabled means Middleware neither generates IDs nor attaches
// traces, so downstream span recording short-circuits on a nil Trace.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled flips the global tracing switch.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether tracing is globally on.
func Enabled() bool { return enabled.Load() }

// Span is one timed segment of a request's life: queue wait, batch
// grouping, a cascade stage, a route decision, a wire hop. Spans are
// recorded closed (start and end known at record time), so a trace's span
// list is always a complete tree over what actually executed.
type Span struct {
	Name string `json:"name"`
	// StartUnixNS anchors the span on the recording tier's clock;
	// DurationMS is its extent. Cross-tier spans therefore carry each
	// tier's own clock — offsets between tiers are the reader's problem,
	// as in any distributed trace.
	StartUnixNS int64   `json:"start_unix_ns"`
	DurationMS  float64 `json:"duration_ms"`
	// Detail is an optional free-form annotation (batch size, byte count,
	// branch target).
	Detail string `json:"detail,omitempty"`
}

// Trace collects the spans of one request under one ID. Spans complete on
// whatever goroutine ran the work (pool workers, edge workers), so all
// mutation is mutex-guarded. A nil *Trace is a valid no-op receiver for
// Record/Merge — call sites on the hot path need no nil checks
// beyond what they'd do anyway.
type Trace struct {
	mu         sync.Mutex
	id         string
	propagated bool
	spans      []Span
	// inline backs spans up to the first four, the three or four a request
	// usually records, so they cost no allocation beyond the Trace's own.
	inline [4]Span
}

// NewTrace starts an empty trace. propagated marks an ID the client (or a
// wire payload) supplied — the signal that the caller wants trace data
// echoed back on the response body.
func NewTrace(id string, propagated bool) *Trace {
	t := &Trace{id: id, propagated: propagated}
	t.spans = t.inline[:0]
	return t
}

// GenerateID returns a fresh 32-hex-character (16-byte) trace ID.
func GenerateID() string {
	var b [32]byte
	hi, lo := rand.Uint64(), rand.Uint64()
	const hex = "0123456789abcdef"
	for i := 0; i < 16; i++ {
		b[i] = hex[(hi>>uint(60-4*i))&0xf]
		b[16+i] = hex[(lo>>uint(60-4*i))&0xf]
	}
	return string(b[:])
}

// ValidID reports whether s is acceptable as a client-supplied trace ID:
// 1–64 bytes of [a-zA-Z0-9._-]. Anything else is ignored and replaced
// with a generated ID, so hostile header values never flow into logs or
// response bodies verbatim.
func ValidID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// ID returns the trace ID.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// Propagated reports whether the ID was supplied from outside (request
// header or wire payload) — the gate for echoing trace data in response
// bodies without perturbing clients that never asked.
func (t *Trace) Propagated() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.propagated
}

// Record appends one closed span.
func (t *Trace) Record(name string, start, end time.Time, detail string) {
	if t == nil {
		return
	}
	sp := Span{
		Name:        name,
		StartUnixNS: start.UnixNano(),
		DurationMS:  float64(end.Sub(start)) / float64(time.Millisecond),
		Detail:      detail,
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Merge appends spans recorded on another tier, prefixing each name (e.g.
// "cloud:") so the merged timeline reads unambiguously.
func (t *Trace) Merge(prefix string, spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for _, sp := range spans {
		sp.Name = prefix + sp.Name
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans ordered by start time (ties
// keep record order), i.e. the request's timeline.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	slices.SortStableFunc(out, func(a, b Span) int { return cmp.Compare(a.StartUnixNS, b.StartUnixNS) })
	return out
}

// ctxKey keys the request trace in a context.
type ctxKey struct{}

// With attaches a trace to a context.
func With(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// SlowLog samples structured log lines for slow requests: any request
// slower than Threshold is logged (with its trace ID and span summary) at
// most once per MinInterval, so a latency storm costs log lines, not a log
// flood.
type SlowLog struct {
	// Threshold is the slow-request cut-off. Default 250ms.
	Threshold time.Duration
	// MinInterval floors the time between logged samples. Default 1s.
	MinInterval time.Duration
	// Logger receives the samples; nil uses slog.Default().
	Logger *slog.Logger

	lastNS atomic.Int64
}

// NewSlowLog returns a sampler with the default threshold and interval.
func NewSlowLog() *SlowLog {
	return &SlowLog{Threshold: 250 * time.Millisecond, MinInterval: time.Second}
}

// Observe considers one finished request for sampling.
func (l *SlowLog) Observe(method, path string, status int, tr *Trace, dur time.Duration) {
	if l == nil || dur < l.Threshold {
		return
	}
	now := time.Now().UnixNano()
	last := l.lastNS.Load()
	if now-last < int64(l.MinInterval) || !l.lastNS.CompareAndSwap(last, now) {
		return
	}
	lg := l.Logger
	if lg == nil {
		lg = slog.Default()
	}
	attrs := []any{
		slog.String("method", method),
		slog.String("path", path),
		slog.Int("status", status),
		slog.Float64("duration_ms", float64(dur)/float64(time.Millisecond)),
	}
	if tr != nil {
		spans := tr.Spans()
		summary := make([]string, 0, len(spans))
		for _, sp := range spans {
			summary = append(summary, sp.Name+"="+strconv.FormatFloat(sp.DurationMS, 'f', 3, 64)+"ms")
		}
		attrs = append(attrs, slog.String("trace_id", tr.ID()), slog.Any("spans", summary))
	}
	lg.Warn("slow request", attrs...)
}

// statusRecorder captures the response status for the slow-request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Middleware is the front-door tracing layer shared by the cloud server
// and the edge front: it accepts a client X-Trace-Id (or generates one),
// echoes it on the response — set before the handler runs, so every
// response path including 503/504 sheds with Retry-After carries it —
// attaches the Trace to the request context, and feeds the slow-request
// sampler. With tracing globally disabled it reduces to header
// pass-through.
func Middleware(next http.Handler, slow *SlowLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(TraceHeader)
		if !Enabled() {
			if ValidID(hdr) {
				w.Header().Set(TraceHeader, hdr)
			}
			next.ServeHTTP(w, r)
			return
		}
		id, propagated := hdr, true
		if !ValidID(id) {
			id, propagated = GenerateID(), false
		}
		tr := NewTrace(id, propagated)
		w.Header().Set(TraceHeader, id)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r.WithContext(With(r.Context(), tr)))
		if slow != nil {
			slow.Observe(r.Method, r.URL.Path, rec.status, tr, time.Since(start))
		}
	})
}
