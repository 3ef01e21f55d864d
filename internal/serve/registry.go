// registry.go is the multi-model core of the serving layer: a Registry of
// named, versioned CDLN entries, each owning its own warm replica pool and
// live metrics. Models are registered in-memory or loaded from modelio
// files, and can be hot-swapped atomically while traffic flows: the new
// version's pool is fully built and warmed before publication, the swap
// itself is one map write, and the old version's pool is drained only
// after its in-flight micro-batches complete. Handlers that lose the race
// (submitted to a pool just closed by a swap) transparently retry against
// the successor version, so a swap under sustained load drops zero
// requests.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/energy"
	"cdl/internal/modelio"
	"cdl/internal/obs"
)

// DefaultModelName is the entry name used when a single-model Server is
// built without one (the /v1 alias target).
const DefaultModelName = "default"

// Model is one loaded, servable version of a named registry entry: the
// validated routing graph, its warm replica pool and its live metrics. A
// Model is immutable after construction — a reload (or branch swap)
// produces a new Model and retires this one — so handlers can use it
// without holding registry locks.
type Model struct {
	name    string
	version int
	path    string
	// graph is the full routing graph; cdln is its trunk (the linear
	// cascade for single-node graphs), kept separate because the request
	// surface's input validation and stage-delta checks are trunk-shaped.
	graph   *core.Graph
	cdln    *core.CDLN
	inWidth int
	// maxResumeWire bounds /resume bodies: the largest wire-encoded
	// activation any valid split point of this model can produce.
	maxResumeWire int
	exitOps       []float64
	pool          *pool
	metrics       *metrics
	workers       int
	// window is the sliding telemetry view the SLO controller reads
	// (latency percentiles, exit depth, pJ/image over the last few
	// seconds); it is fed per micro-batch alongside the cumulative
	// metrics.
	window *control.Window
	// controlled is the exit policy inherited by requests that carry no
	// explicit one: nil means the identity policy (trained behaviour),
	// non-nil is the attached controller's current rung. Atomic because
	// the control loop writes it while handlers read it.
	controlled atomic.Pointer[core.ExitPolicy]

	// flight is this entry's flight recorder, owned by the registry's
	// FlightSet and keyed by entry name — a hot-swap's successor version
	// inherits the same ring, so the tail evidence survives reloads.
	flight *obs.FlightRecorder
	// nodePaths pre-renders the routed walk for each graph node
	// ("trunk", "trunk->convB"), so the per-request flight record never
	// allocates a path string on the hot path.
	nodePaths []string
	// alert is the burn-rate monitor attached alongside the SLO
	// controller (nil when no SLO is attached): onBatch classifies each
	// finished image good/bad against the target it carries. Atomic for
	// the same reason as controlled.
	alert atomic.Pointer[alertSink]
	// ctrlRung mirrors the controller's current ladder position for
	// flight records (0 = trained behaviour).
	ctrlRung atomic.Int32
	// liveP99Bits/liveP99AtNS cache the telemetry window's p99 (float64
	// bits + refresh stamp): onBatch tags tail-latency anomalies against
	// it but re-snapshots the window at most every liveP99RefreshNS.
	liveP99Bits atomic.Uint64
	liveP99AtNS atomic.Int64
}

// liveP99RefreshNS is how often onBatch refreshes the cached live p99
// from the telemetry window — frequent enough to track load swings,
// rare enough that the snapshot cost never shows in the overhead guard.
const liveP99RefreshNS = int64(250 * time.Millisecond)

// newModel validates the routing graph, pre-clones cfg.Workers warm
// sessions and starts the replica pool — the per-model half of what
// serve.New did for its single model. The Model owns a private clone, so
// callers may keep mutating (or re-swapping branches of) the graph they
// passed in.
func newModel(name string, version int, path string, g *core.Graph, cfg Config) (*Model, error) {
	g = g.Clone()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	acc, err := energy.NewEvaluator().NewGraphAccumulator(g)
	if err != nil {
		return nil, err
	}
	sessions := make([]*core.Session, cfg.Workers)
	for i := range sessions {
		if sessions[i], err = core.NewGraphSession(g); err != nil {
			return nil, err
		}
	}
	m := &Model{
		name:    name,
		version: version,
		path:    path,
		graph:   g,
		cdln:    g.Trunk(),
		inWidth: inputWidth(g.Trunk()),
		exitOps: g.ExitOps(),
		metrics: newMetrics(g, acc),
		workers: cfg.Workers,
	}
	m.maxResumeWire = maxResumeWireSize(g)
	m.nodePaths = make([]string, len(m.metrics.nodeNames))
	for ni, n := range m.metrics.nodeNames {
		if ni == 0 {
			m.nodePaths[ni] = n
		} else {
			m.nodePaths[ni] = m.metrics.nodeNames[0] + "->" + n
		}
	}
	buckets := 10
	m.window = control.NewWindow(g.NumExits(), control.WindowConfig{
		Buckets:   buckets,
		BucketDur: cfg.ControlWindow / time.Duration(buckets),
	})
	m.pool = newPool(sessions, cfg.QueueDepth, cfg.MaxBatch, m.onBatch)
	return m, nil
}

// onBatch is the pool's per-micro-batch callback: it charges the
// cumulative metrics, feeds the sliding telemetry window, offers every
// job to the flight recorder (tail-retention decides what survives) and
// classifies the batch against the burn-rate monitor. One lock
// acquisition each per batch, not per image.
func (m *Model) onBatch(batch []*job) {
	m.metrics.observeBatch(batch)
	window := make([]control.Obs, 0, len(batch))
	now := time.Now()
	for _, j := range batch {
		if j.cancelled {
			continue
		}
		window = append(window, control.Obs{
			LatencyMS: float64(now.Sub(j.enqueued)) / float64(time.Millisecond),
			ExitIndex: j.rec.StageIndex,
			// ExitEnergy reads an immutable precomputed table — safe
			// without the metrics lock.
			EnergyPJ: m.metrics.acc.ExitEnergy(j.rec.StageIndex),
		})
	}
	m.window.ObserveBatch(window)
	m.observeFlight(batch, now)
}

// liveP99 returns the cached telemetry-window p99, re-snapshotting at
// most every liveP99RefreshNS — the anomaly gate must not pay a window
// scan per micro-batch.
func (m *Model) liveP99(nowNS int64) float64 {
	if at := m.liveP99AtNS.Load(); nowNS-at > liveP99RefreshNS && m.liveP99AtNS.CompareAndSwap(at, nowNS) {
		m.liveP99Bits.Store(math.Float64bits(m.window.Snapshot().P99LatencyMS))
	}
	return math.Float64frombits(m.liveP99Bits.Load())
}

// observeFlight turns one micro-batch into flight records and burn-rate
// observations. Records for sampled-out normals cost one atomic bump
// inside Record; anomalous requests (above the live p99, deadline
// deaths, deepest exits) carry their full span trees.
func (m *Model) observeFlight(batch []*job, now time.Time) {
	sink := m.alert.Load()
	if m.flight == nil || !obs.FlightEnabled() {
		// The kill switch skips record assembly entirely, but SLO
		// accounting must not go dark with it.
		if sink != nil {
			var good, bad int64
			for _, j := range batch {
				switch {
				case j.cancelled:
					bad++
				case float64(now.Sub(j.enqueued))/float64(time.Millisecond) > sink.p99TargetMS:
					bad++
				default:
					good++
				}
			}
			sink.mon.Observe(good, bad)
		}
		return
	}
	nowNS := now.UnixNano()
	p99 := m.liveP99(nowNS)
	deepest := len(m.exitOps) - 1
	rung := int(m.ctrlRung.Load())
	controlled := m.controlled.Load()
	var good, bad int64
	for _, j := range batch {
		rec := obs.FlightRecord{
			Model:     m.name,
			Version:   m.version,
			Rung:      rung,
			ExitIndex: -1,
			BatchSize: len(batch),
			QueueMS:   float64(j.started.Sub(j.enqueued)) / float64(time.Millisecond),
			TotalMS:   float64(now.Sub(j.enqueued)) / float64(time.Millisecond),
			Outcome:   obs.FlightOK,
		}
		rec.ServiceMS = rec.TotalMS - rec.QueueMS
		rec.StartUnixNS = nowNS - int64(rec.TotalMS*float64(time.Millisecond))
		if j.tr != nil {
			rec.TraceID = j.tr.ID()
		}
		switch {
		case j.pol == controlled && controlled != nil:
			rec.PolicySource = "controller"
		case j.pol == &identityPolicy:
			rec.PolicySource = "default"
		default:
			rec.PolicySource = "explicit"
		}
		if j.cancelled {
			rec.Outcome = obs.FlightError
			rec.RejectCause = "deadline"
			rec.Anomalies = append(rec.Anomalies, obs.AnomalyDeadline)
			bad++
		} else {
			rec.ExitIndex = j.rec.StageIndex
			if j.rec.Node >= 0 && j.rec.Node < len(m.nodePaths) {
				rec.NodePath = m.nodePaths[j.rec.Node]
			}
			rec.EnergyPJ = m.metrics.acc.ExitEnergy(j.rec.StageIndex)
			if p99 > 0 && rec.TotalMS > p99 {
				rec.Anomalies = append(rec.Anomalies, obs.AnomalyP99)
			}
			if j.rec.StageIndex == deepest {
				rec.Anomalies = append(rec.Anomalies, obs.AnomalyDeepExit)
			}
			if sink != nil && rec.TotalMS > sink.p99TargetMS {
				bad++
			} else {
				good++
			}
		}
		if len(rec.Anomalies) > 0 && j.tr != nil {
			rec.Spans = j.tr.Spans()
		}
		m.flight.Record(rec)
	}
	if sink != nil {
		sink.mon.Observe(good, bad)
	}
}

// Name returns the registry entry name.
func (m *Model) Name() string { return m.name }

// Version returns the entry's monotonically increasing version (1 for the
// first load, +1 per hot-swap).
func (m *Model) Version() int { return m.version }

// Path returns the model file this version was loaded from ("" for
// in-memory registrations).
func (m *Model) Path() string { return m.path }

// CDLN returns the served graph's trunk cascade. Treat it as read-only:
// replicas were cloned from it at construction.
func (m *Model) CDLN() *core.CDLN { return m.cdln }

// Graph returns the served routing graph (a one-node graph for plain
// cascades). Treat it as read-only.
func (m *Model) Graph() *core.Graph { return m.graph }

// Stats snapshots this model's live counters.
func (m *Model) Stats() Stats { return m.metrics.snapshot(m.pool.depth(), m.workers) }

// Registry is a concurrent map of named model entries sharing one pool
// sizing. All methods are safe for concurrent use.
type Registry struct {
	cfg Config

	mu          sync.RWMutex
	models      map[string]*Model // guarded by mu
	versions    map[string]int    // guarded by mu; last assigned version per name, survives swaps
	defaultName string            // guarded by mu
	closed      bool              // guarded by mu

	// ctrlMu guards the per-entry SLO controllers (control.go). Separate
	// from mu: control ticks must never contend with the request path's
	// model lookups.
	ctrlMu     sync.Mutex
	ctrls      map[string]*entryControl // guarded by ctrlMu
	closedCtrl bool                     // guarded by ctrlMu

	// flights owns the per-entry flight recorders: keyed by name, not
	// version, so swaps inherit rings and snapshot history.
	flights *obs.FlightSet
}

// NewRegistry returns an empty registry whose models will all be sized by
// cfg (workers, queue depth, micro-batching).
func NewRegistry(cfg Config) *Registry {
	return &Registry{
		cfg:      cfg.withDefaults(),
		models:   make(map[string]*Model),
		versions: make(map[string]int),
		flights:  obs.NewFlightSet("serve", obs.FlightConfig{}),
	}
}

// Flights exposes the registry's flight recorders (the /debug/flightz
// backing store).
func (r *Registry) Flights() *obs.FlightSet { return r.flights }

// Config returns the defaults-filled sizing every entry uses.
func (r *Registry) Config() Config { return r.cfg }

// Ready reports whether the registry can serve a default-model request
// right now: it is not closed and the default entry exists with its warmed
// pool. This is the readiness-probe predicate — distinct from liveness,
// which only asks whether the process can answer at all. A registry with
// zero entries (or mid-Close) is alive but not ready.
func (r *Registry) Ready() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return !r.closed && r.defaultName != "" && r.models[r.defaultName] != nil
}

// validName keeps entry names URL- and log-safe: they appear verbatim in
// /v2/models/{name}/... routes.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: empty model name")
	}
	if len(name) > 128 {
		return fmt.Errorf("serve: model name longer than 128 bytes")
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("serve: model name %q may only contain [a-zA-Z0-9._-]", name)
		}
	}
	return nil
}

// Register publishes an in-memory CDLN under name, hot-swapping any
// existing version: the new pool is warmed before the swap, and the
// retired version's pool is drained (in-flight batches complete) before
// Register returns. The first registered entry becomes the default.
func (r *Registry) Register(name string, cdln *core.CDLN) (*Model, error) {
	if err := cdln.Validate(); err != nil {
		return nil, err
	}
	return r.swapIn(name, "", core.LinearGraph(cdln))
}

// RegisterAt is Register recording the file the CDLN originated from —
// for callers that load a model themselves, mutate it (e.g. a load-time δ
// override) and then publish it, so /healthz and /v2/models still
// attribute the entry to its real source path.
func (r *Registry) RegisterAt(name, path string, cdln *core.CDLN) (*Model, error) {
	if err := cdln.Validate(); err != nil {
		return nil, err
	}
	return r.swapIn(name, path, core.LinearGraph(cdln))
}

// RegisterGraph publishes an in-memory routing graph under name with
// Register semantics.
func (r *Registry) RegisterGraph(name string, g *core.Graph) (*Model, error) {
	return r.swapIn(name, "", g)
}

// Load reads a modelio file — a linear CDLN or a v2 routing graph — and
// publishes it under name with Register semantics — the hot-reload entry
// point behind PUT /v2/models/{name}. The file is fully parsed and
// validated before the swap, so a torn or hostile file never displaces a
// serving version.
func (r *Registry) Load(name, path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: load model %q: %w", name, err)
	}
	defer f.Close()
	g, err := modelio.LoadGraph(f)
	if err != nil {
		return nil, fmt.Errorf("serve: load model %q: %w", name, err)
	}
	return r.swapIn(name, path, g)
}

// SwapBranch republishes entry name with one branch subnetwork (or, for
// branch name "" / the trunk's name, the trunk) replaced — the
// branch-granular hot-swap: the rest of the graph keeps its weights, the
// new version's pool is fully warmed before publication, and requests in
// flight on the old version drain as in any other swap, so the trunk
// never stops serving. The replacement must preserve the branch's
// interface (input shape from its router tap, class count); validation
// failures leave the serving version untouched. Concurrent SwapBranch
// calls on one entry serialize through version reservation — each is
// applied to the registry's current graph at its own reservation time.
func (r *Registry) SwapBranch(name, branch string, cdln *core.CDLN) (*Model, error) {
	cur, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	g, err := cur.graph.WithBranch(branch, cdln)
	if err != nil {
		return nil, fmt.Errorf("serve: swap branch %q of %q: %w", branch, cur.name, err)
	}
	return r.swapIn(cur.name, cur.path, g)
}

// LoadBranch is SwapBranch reading the replacement cascade from a modelio
// file — the entry point behind PUT /v2/models/{name}/branches/{branch}.
func (r *Registry) LoadBranch(name, branch, path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: load branch %q of %q: %w", branch, name, err)
	}
	defer f.Close()
	cdln, err := modelio.LoadCDLN(f)
	if err != nil {
		return nil, fmt.Errorf("serve: load branch %q of %q: %w", branch, name, err)
	}
	return r.SwapBranch(name, branch, cdln)
}

// swapIn builds the new version outside the lock, publishes it atomically,
// then drains the retired pool.
func (r *Registry) swapIn(name, path string, g *core.Graph) (*Model, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	// Reserve the version number first so concurrent swaps of one name
	// publish distinguishable versions whatever order they land in.
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	version := r.versions[name] + 1
	r.versions[name] = version
	r.mu.Unlock()

	m, err := newModel(name, version, path, g, r.cfg)
	if err != nil {
		return nil, err
	}
	m.flight = r.flights.Recorder(name)

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		m.pool.close()
		return nil, ErrClosed
	}
	old := r.models[name]
	if old != nil && old.version > version {
		// A concurrent swap already published a newer version; retire this
		// build instead of regressing the entry.
		r.mu.Unlock()
		m.pool.close()
		return old, nil
	}
	if old != nil {
		// The successor inherits the attached alert monitor and rung so
		// burn-rate accounting never blinks across a swap (controlTick
		// re-asserts both on its next pass anyway).
		m.alert.Store(old.alert.Load())
		m.ctrlRung.Store(old.ctrlRung.Load())
	}
	r.models[name] = m
	if r.defaultName == "" {
		r.defaultName = name
	}
	r.mu.Unlock()

	if old != nil {
		// Drain after publication: requests that raced the swap and hit the
		// closing pool observe ErrClosed and retry against m.
		old.pool.close()
	}
	return m, nil
}

// Get resolves a name ("" means the default entry) to its current version.
func (r *Registry) Get(name string) (*Model, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.defaultName
	}
	if m := r.models[name]; m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("serve: unknown model %q", name)
}

// DefaultName returns the default entry's name ("" while empty).
func (r *Registry) DefaultName() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.defaultName
}

// SetDefault redirects the /v1 alias surface (and name-less lookups) to an
// existing entry.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.models[name] == nil {
		return fmt.Errorf("serve: unknown model %q", name)
	}
	r.defaultName = name
	return nil
}

// Models returns the current version of every entry, sorted by name.
func (r *Registry) Models() []*Model {
	r.mu.RLock()
	out := make([]*Model, 0, len(r.models))
	for _, m := range r.models {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Close retires every entry: SLO control loops stop, pools are drained
// (queued work still classifies) and later submissions shed with
// ErrClosed. Idempotent.
func (r *Registry) Close() {
	r.closeControllers()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	models := make([]*Model, 0, len(r.models))
	for _, m := range r.models {
		models = append(models, m)
	}
	r.mu.Unlock()
	for _, m := range models {
		m.pool.close()
	}
}

// flightShed records one rejected request in the flight ring (always
// tail-retained: a shed is by definition anomalous) and charges its
// images against the burn-rate monitor.
func (m *Model) flightShed(ctx context.Context, cause string, images int) {
	if sink := m.alert.Load(); sink != nil {
		sink.mon.Observe(0, int64(images))
	}
	if m.flight == nil || !obs.FlightEnabled() {
		return
	}
	rec := obs.FlightRecord{
		Model:       m.name,
		Version:     m.version,
		Rung:        int(m.ctrlRung.Load()),
		ExitIndex:   -1,
		BatchSize:   images,
		Outcome:     obs.FlightShed,
		RejectCause: cause,
		Anomalies:   []string{obs.AnomalyShed},
		StartUnixNS: time.Now().UnixNano(),
	}
	if cause == "deadline" {
		rec.Outcome = obs.FlightError
		rec.Anomalies = []string{obs.AnomalyDeadline}
	}
	if tr := obs.FromContext(ctx); tr != nil {
		rec.TraceID = tr.ID()
		rec.Spans = tr.Spans()
	}
	m.flight.Record(rec)
}

// flightCause maps a dispatch rejection to its flight reject-cause tag.
func flightCause(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded):
		return "queue_full"
	case errors.Is(err, ErrClosed):
		return "closed"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "cancelled"
	}
}

// inputWidth is the flattened pixel count of the model's input shape.
func inputWidth(c *core.CDLN) int {
	w := 1
	for _, d := range c.Arch.Net.InShape {
		w *= d
	}
	return w
}

// names renders the known entry names for error messages.
func (r *Registry) names() string {
	ms := r.Models()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.name
	}
	return strings.Join(out, ", ")
}
