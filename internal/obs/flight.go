package obs

// flight.go is the wide-event flight recorder: a per-model ring buffer of
// canonical per-request records with tail-based retention. Every finished
// request produces one FlightRecord (policy source, exit depth, routed
// path, queue/service/total latency, batch size, energy, outcome); the
// recorder keeps the full record — span tree included — for anomalous
// requests (latency above the model's live p99, sheds, deadline hits,
// deepest exits, hedge losers) and only 1-in-N normals, so the buffer's
// memory is spent where the paper's input-dependent tail actually lives.
// /debug/flightz queries the rings; a FlightSnapshot freezes the anomalous
// evidence whenever the SLO controller steps a rung down, so every
// degradation ships with the requests that drove it.

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Canonical flight-record outcomes. The vocabulary is fixed — outcome
// strings never derive from request content.
const (
	FlightOK        = "ok"
	FlightShed      = "shed"
	FlightError     = "error"
	FlightHedgeWin  = "hedge_win"
	FlightHedgeLoss = "hedge_loss"
)

// Canonical anomaly tags: why a record was tail-retained.
const (
	AnomalyP99      = "p99_exceeded"
	AnomalyShed     = "shed"
	AnomalyDeadline = "deadline"
	AnomalyDeepExit = "deepest_exit"
	AnomalyHedge    = "hedge_loss"
	AnomalyError    = "error"
)

// flightEnabled is the recorder's global switch, independent of tracing:
// on by default, atomically flippable (the overhead benchmark pins the
// enabled-vs-disabled gap).
var flightEnabled atomic.Bool

func init() { flightEnabled.Store(true) }

// SetFlightEnabled flips the global flight-recorder switch.
func SetFlightEnabled(on bool) { flightEnabled.Store(on) }

// FlightEnabled reports whether flight recording is globally on.
func FlightEnabled() bool { return flightEnabled.Load() }

// FlightRecord is one request's wide event: everything the serving path
// knew about the request, flattened into a single queryable row.
type FlightRecord struct {
	TraceID string `json:"trace_id,omitempty"`
	Model   string `json:"model,omitempty"`
	Version int    `json:"version,omitempty"`
	// PolicySource says who chose the exit policy: "explicit" (the client
	// sent δ), "controller" (the SLO controller's current rung) or
	// "default" (the trained identity policy). Rung is meaningful only for
	// "controller".
	PolicySource string `json:"policy_source,omitempty"`
	Rung         int    `json:"rung,omitempty"`
	// ExitIndex is the exit depth the input resolved at (-1 when it never
	// exited, e.g. a shed). NodePath is the routed walk ("trunk" for a
	// linear cascade, "trunk->convB" for a branch dispatch).
	ExitIndex int     `json:"exit_index"`
	NodePath  string  `json:"node_path,omitempty"`
	QueueMS   float64 `json:"queue_ms,omitempty"`
	ServiceMS float64 `json:"service_ms,omitempty"`
	TotalMS   float64 `json:"total_ms"`
	BatchSize int     `json:"batch_size,omitempty"`
	EnergyPJ  float64 `json:"energy_pj,omitempty"`
	// Outcome is one of the Flight* constants; RejectCause refines sheds
	// ("queue_full", "closed", "churn", "deadline").
	Outcome     string `json:"outcome"`
	RejectCause string `json:"reject_cause,omitempty"`
	// Anomalies lists why this record was tail-retained (Anomaly* tags);
	// empty means it survived the 1-in-N normal sample.
	Anomalies   []string `json:"anomalies,omitempty"`
	StartUnixNS int64    `json:"start_unix_ns"`
	// Spans is the request's full span tree — always carried for
	// anomalous records, so the timeline that produced the tail is
	// reconstructable after the fact.
	Spans []Span `json:"spans,omitempty"`
}

// Anomalous reports whether the record carries any anomaly tag.
func (r *FlightRecord) Anomalous() bool { return len(r.Anomalies) > 0 }

// FlightConfig sizes a recorder.
type FlightConfig struct {
	// Capacity is the per-model ring size, half kept for refusals. Default 256.
	Capacity int
	// SampleN keeps 1-in-N normal (non-anomalous) records. 1 keeps all.
	// Default 16.
	SampleN uint64
	// SnapshotCap bounds retained rung-down snapshots. Default 8.
	SnapshotCap int
	// SnapshotRecords bounds records frozen per snapshot. Default 32.
	SnapshotRecords int
}

func (c FlightConfig) withDefaults() FlightConfig {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.SampleN == 0 {
		c.SampleN = 16
	}
	if c.SnapshotCap <= 0 {
		c.SnapshotCap = 8
	}
	if c.SnapshotRecords <= 0 {
		c.SnapshotRecords = 32
	}
	return c
}

// FlightRecorder is one model's flight ring. The normal-path cost is one
// atomic counter bump and (for the sampled-out majority) nothing else;
// retained records take a short mutex-guarded ring write. Queries copy out
// under the same mutex, so writers are never blocked on JSON encoding.
type FlightRecorder struct {
	cfg FlightConfig

	// seq drives the 1-in-N normal sample lock-free.
	seq   atomic.Uint64
	seen  atomic.Int64
	kept  atomic.Int64
	tails atomic.Int64 // anomalous records retained

	mu   sync.Mutex
	ring []FlightRecord // guarded by mu; sheds and errors in [:len/2], all else after
	next [2]int         // guarded by mu; each ring's next slot, from its start
	n    [2]int         // guarded by mu; live records in each ring

	snapMu  sync.Mutex
	snaps   []FlightSnapshot // guarded by snapMu; newest last
	snapSeq int64            // guarded by snapMu
}

// NewFlightRecorder returns an empty recorder.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	cfg = cfg.withDefaults()
	return &FlightRecorder{cfg: cfg, ring: make([]FlightRecord, max(cfg.Capacity, 2))}
}

// Record offers one finished request. Anomalous records (any anomaly tag)
// are always retained with whatever spans they carry; normal records pass
// the 1-in-N sample or vanish without touching the lock. No allocation.
func (f *FlightRecorder) Record(rec FlightRecord) {
	if f == nil || !FlightEnabled() {
		return
	}
	f.seen.Add(1)
	if len(rec.Anomalies) == 0 {
		if f.cfg.SampleN > 1 && f.seq.Add(1)%f.cfg.SampleN != 0 {
			return
		}
		f.kept.Add(1)
	} else {
		f.tails.Add(1)
	}
	f.mu.Lock()
	c, lo, size := 0, 0, len(f.ring)/2
	if rec.Outcome != FlightShed && rec.Outcome != FlightError {
		c, lo, size = 1, size, len(f.ring)-size
	}
	f.ring[lo+f.next[c]] = rec
	f.next[c] = (f.next[c] + 1) % size
	f.n[c] = min(f.n[c]+1, size)
	f.mu.Unlock()
}

// FlightQuery filters a recorder read.
type FlightQuery struct {
	Model         string  // "" = all (FlightSet level)
	Outcome       string  // "" = all
	MinTotalMS    float64 // 0 = all
	AnomalousOnly bool
	Limit         int // ≤0 = 32
}

func (q FlightQuery) limit() int {
	if q.Limit <= 0 {
		return 32
	}
	return q.Limit
}

func (q FlightQuery) match(r *FlightRecord) bool {
	if q.Outcome != "" && r.Outcome != q.Outcome {
		return false
	}
	if q.MinTotalMS > 0 && r.TotalMS < q.MinTotalMS {
		return false
	}
	if q.AnomalousOnly && !r.Anomalous() {
		return false
	}
	return true
}

// Query returns matching records, newest started first, up to the limit.
func (f *FlightRecorder) Query(q FlightQuery) []FlightRecord {
	if f == nil {
		return nil
	}
	out := make([]FlightRecord, 0, q.limit())
	f.mu.Lock()
	for c, lo := range [2]int{0, len(f.ring) / 2} {
		for i := lo; i < lo+f.n[c]; i++ {
			if r := &f.ring[i]; q.match(r) {
				out = append(out, *r)
			}
		}
	}
	f.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartUnixNS > out[j].StartUnixNS })
	return out[:min(len(out), q.limit())]
}

// FlightStats summarizes a recorder's retention counters.
type FlightStats struct {
	Seen      int64 `json:"seen"`
	Sampled   int64 `json:"sampled"`
	Anomalous int64 `json:"anomalous"`
	Buffered  int   `json:"buffered"`
}

// Stats snapshots the retention counters.
func (f *FlightRecorder) Stats() FlightStats {
	if f == nil {
		return FlightStats{}
	}
	f.mu.Lock()
	n := f.n[0] + f.n[1]
	f.mu.Unlock()
	return FlightStats{
		Seen:      f.seen.Load(),
		Sampled:   f.kept.Load(),
		Anomalous: f.tails.Load(),
		Buffered:  n,
	}
}

// FlightSnapshot freezes the flight evidence at a controller rung-down:
// the decision context plus the recorder's current records, anomalous
// first, so the requests that drove the degradation are preserved even if
// the ring churns on.
type FlightSnapshot struct {
	Seq          int64          `json:"seq"`
	Reason       string         `json:"reason"`
	Model        string         `json:"model,omitempty"`
	Rung         int            `json:"rung"`
	P99LatencyMS float64        `json:"p99_latency_ms"`
	TakenUnixNS  int64          `json:"taken_unix_ns"`
	Records      []FlightRecord `json:"records"`
}

// Snapshot captures a FlightSnapshot (anomalous records first, then
// newest normals, bounded by SnapshotRecords) and retains it in the
// snapshot ring.
func (f *FlightRecorder) Snapshot(reason, model string, rung int, p99MS float64, nowUnixNS int64) {
	if f == nil {
		return
	}
	recs := f.Query(FlightQuery{Limit: f.cfg.SnapshotRecords, AnomalousOnly: true})
	if len(recs) < f.cfg.SnapshotRecords {
		for _, r := range f.Query(FlightQuery{Limit: f.cfg.SnapshotRecords}) {
			if len(recs) >= f.cfg.SnapshotRecords {
				break
			}
			if !r.Anomalous() {
				recs = append(recs, r)
			}
		}
	}
	f.snapMu.Lock()
	f.snapSeq++
	f.snaps = append(f.snaps, FlightSnapshot{
		Seq:          f.snapSeq,
		Reason:       reason,
		Model:        model,
		Rung:         rung,
		P99LatencyMS: p99MS,
		TakenUnixNS:  nowUnixNS,
		Records:      recs,
	})
	if len(f.snaps) > f.cfg.SnapshotCap {
		f.snaps = f.snaps[len(f.snaps)-f.cfg.SnapshotCap:]
	}
	f.snapMu.Unlock()
}

// Snapshots returns the retained snapshots, newest last.
func (f *FlightRecorder) Snapshots() []FlightSnapshot {
	if f == nil {
		return nil
	}
	f.snapMu.Lock()
	out := append([]FlightSnapshot(nil), f.snaps...)
	f.snapMu.Unlock()
	return out
}

// maxFlightModels caps the per-model recorder cardinality: on the router
// tier model names come straight from URL paths, and an unbounded map
// would let a client mint rings at will. Past the cap, new names fold
// into the overflow recorder.
const maxFlightModels = 64

const overflowFlightModel = "_other"

// FlightSet is a tier's recorders keyed by model name. Recorders live at
// the set level so they survive registry hot-swaps: a new model version
// inherits its entry's ring and snapshot history.
type FlightSet struct {
	cfg  FlightConfig
	tier string

	mu   sync.RWMutex
	recs map[string]*FlightRecorder // guarded by mu
}

// NewFlightSet returns an empty set; tier names the owning serving tier
// in /debug/flightz responses ("serve", "edge", "fleet").
func NewFlightSet(tier string, cfg FlightConfig) *FlightSet {
	return &FlightSet{cfg: cfg.withDefaults(), tier: tier, recs: make(map[string]*FlightRecorder)}
}

// Recorder returns the model's recorder, creating it on first use. Past
// maxFlightModels distinct names, the overflow recorder is returned.
func (s *FlightSet) Recorder(model string) *FlightRecorder {
	s.mu.RLock()
	f := s.recs[model]
	s.mu.RUnlock()
	if f != nil {
		return f
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f = s.recs[model]; f != nil {
		return f
	}
	if len(s.recs) >= maxFlightModels {
		model = overflowFlightModel
		if f = s.recs[model]; f != nil {
			return f
		}
	}
	f = NewFlightRecorder(s.cfg)
	s.recs[model] = f
	return f
}

// FlightzResponse is the /debug/flightz JSON document.
type FlightzResponse struct {
	Tier      string                 `json:"tier"`
	Enabled   bool                   `json:"enabled"`
	Models    map[string]FlightStats `json:"models"`
	Records   []FlightRecord         `json:"records"`
	Snapshots []FlightSnapshot       `json:"snapshots,omitempty"`
}

// Query merges matching records across the set's recorders (or just the
// named model's), newest first, bounded by the query limit.
func (s *FlightSet) Query(q FlightQuery) FlightzResponse {
	resp := FlightzResponse{Tier: s.tier, Enabled: FlightEnabled(), Models: make(map[string]FlightStats)}
	s.mu.RLock()
	recs := make(map[string]*FlightRecorder, len(s.recs))
	for name, f := range s.recs {
		recs[name] = f
	}
	s.mu.RUnlock()
	for name, f := range recs {
		if q.Model != "" && name != q.Model {
			continue
		}
		resp.Models[name] = f.Stats()
		resp.Records = append(resp.Records, f.Query(q)...)
		resp.Snapshots = append(resp.Snapshots, f.Snapshots()...)
	}
	sort.SliceStable(resp.Records, func(i, j int) bool {
		return resp.Records[i].StartUnixNS > resp.Records[j].StartUnixNS
	})
	if limit := q.limit(); len(resp.Records) > limit {
		resp.Records = resp.Records[:limit]
	}
	sort.SliceStable(resp.Snapshots, func(i, j int) bool {
		return resp.Snapshots[i].TakenUnixNS < resp.Snapshots[j].TakenUnixNS
	})
	return resp
}

// Handler serves the /debug/flightz query surface: GET with optional
// model, outcome, min_ms, anomalous, and limit parameters.
func (s *FlightSet) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		q := FlightQuery{
			Model:   r.URL.Query().Get("model"),
			Outcome: r.URL.Query().Get("outcome"),
		}
		if v := r.URL.Query().Get("min_ms"); v != "" {
			if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
				q.MinTotalMS = f
			}
		}
		if v := r.URL.Query().Get("limit"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				q.Limit = n
			}
		}
		if v := r.URL.Query().Get("anomalous"); v == "1" || v == "true" {
			q.AnomalousOnly = true
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Query(q))
	})
}
