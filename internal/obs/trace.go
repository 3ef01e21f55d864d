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
// micro-batch stage and a mutex-guarded append of an integer Event into a
// pooled Trace, whose spans are rendered only when it is read.
// SetEnabled(false) turns the whole layer into header pass-through — the
// overhead guard benchmark in internal/serve pins the enabled-vs-disabled
// gap.
package obs

import (
	"cmp"
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

// Event is a span kept as integers, named by its Namer only when the trace
// is read. A stage walk's event fills Kind, Node, Stage, Branch, First (the
// walk's first row) and Rows (its row count); other namers say which they
// read. Label is a string its recorder already holds, never one built for it.
type Event struct {
	Kind                             uint8
	Node, Stage, Branch, First, Rows int32
	Label                            string
	names                            Namer
	start, end                       int64 // monotonic ns since the trace began
}

// Namer renders the events recorded under it, from them and data that does
// not change once they are recorded.
type Namer interface {
	SpanName(ev Event) (name, detail string)
}

// Trace collects the spans of one request under one ID. Spans complete on
// whatever goroutine ran the work (pool workers, edge workers), so
// recording and reading are mutex-guarded; the ID and its propagation are
// set before the request's handler runs and never change under it. A nil
// *Trace is a valid no-op receiver — call sites on the hot path need no
// nil checks beyond what they'd do anyway.
type Trace struct {
	mu         sync.Mutex
	id         string
	propagated bool
	begun      time.Time // the events' origin, rendered on its wall clock
	events     []Event
	spans      []Span // recorded with their strings (Record, Merge)
}

// NewTrace starts an empty trace. propagated marks an ID the client (or a
// wire payload) supplied — the signal that the caller wants trace data
// echoed back on the response body.
func NewTrace(id string, propagated bool) *Trace {
	return &Trace{id: id, propagated: propagated, begun: time.Now()}
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
	return t.id
}

// Propagated reports whether the ID was supplied from outside (request
// header or wire payload) — the gate for echoing trace data in response
// bodies without perturbing clients that never asked.
func (t *Trace) Propagated() bool {
	if t == nil {
		return false
	}
	return t.propagated
}

// Add records one closed span as ev, which names renders when it is read.
func (t *Trace) Add(names Namer, ev Event, start, end time.Time) {
	if t == nil {
		return
	}
	ev.names, ev.start, ev.end = names, int64(start.Sub(t.begun)), int64(end.Sub(t.begun))
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Record appends one closed span with its strings.
func (t *Trace) Record(name string, start, end time.Time, detail string) {
	t.Merge("", []Span{{Name: name, StartUnixNS: start.UnixNano(), DurationMS: float64(end.Sub(start)) / float64(time.Millisecond), Detail: detail}})
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

// Spans renders the recorded spans ordered by start time (ties keep
// record order, events before string spans): the request's timeline.
// Every read of a trace — an echoed answer, a flight record, a slow-log
// line — goes through it, so all of them carry the same spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	events := slices.Clone(t.events)
	out := append(make([]Span, len(events), len(events)+len(t.spans)), t.spans...)
	t.mu.Unlock()
	if len(out) == 0 {
		return nil
	}
	base := t.begun.UnixNano()
	for i, ev := range events {
		name, detail := ev.names.SpanName(ev)
		out[i] = Span{Name: name, StartUnixNS: base + ev.start, DurationMS: float64(ev.end-ev.start) / float64(time.Millisecond), Detail: detail}
	}
	slices.SortStableFunc(out, func(a, b Span) int { return cmp.Compare(a.StartUnixNS, b.StartUnixNS) })
	return out
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

// traced is one request's pooled tracing state: the writer Middleware hands
// the handler, the status it wrote (for the slow log) and the trace.
type traced struct {
	http.ResponseWriter
	status int
	tr     Trace
}

func (w *traced) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// tracedPool holds the tracing state of finished requests.
var tracedPool = sync.Pool{New: func() any { return new(traced) }}

// TraceOf returns the trace of the request Middleware handed w to (nil
// with tracing off), the request's until its handler returns.
func TraceOf(w http.ResponseWriter) *Trace {
	if tw, ok := w.(*traced); ok {
		return &tw.tr
	}
	return nil
}

// Middleware is the front-door tracing layer shared by the cloud server
// and the edge front: it accepts a client X-Trace-Id (or generates one),
// echoes it on the response — set before the handler runs, so every
// response path including 503/504 sheds with Retry-After carries it —
// hands the handler a writer that carries the request's Trace (TraceOf),
// and feeds the slow-request sampler. The writer and its trace are one
// pooled object, given back after the slow-log check: nothing may record
// into or read the trace after that, and the race detector reports what
// does. With tracing globally disabled it reduces to header pass-through.
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
		w.Header().Set(TraceHeader, id)
		start := time.Now()
		tw := tracedPool.Get().(*traced)
		tw.ResponseWriter, tw.status = w, http.StatusOK
		tw.tr.id, tw.tr.propagated, tw.tr.begun = id, propagated, start
		next.ServeHTTP(tw, r)
		if slow != nil {
			slow.Observe(r.Method, r.URL.Path, tw.status, &tw.tr, time.Since(start))
		}
		clear(tw.tr.events) // their namers and labels
		clear(tw.tr.spans)
		tw.ResponseWriter, tw.tr.events, tw.tr.spans = nil, tw.tr.events[:0], tw.tr.spans[:0]
		tracedPool.Put(tw)
	})
}
