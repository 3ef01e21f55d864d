// registry.go is the multi-model core of the serving layer: a Registry of
// named, versioned CDLN entries, each owning its own warm replica pool.
// Models are registered in-memory or loaded from modelio files, and can be
// hot-swapped atomically while traffic flows: the new version's pool is
// fully built and warmed before publication, the swap itself is one map
// write, and the old version's pool is drained only after its in-flight
// micro-batches complete. Handlers that lose the race
// (submitted to a pool just closed by a swap) transparently retry against
// the successor version, so a swap under sustained load drops zero
// requests.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/energy"
	"cdl/internal/modelio"
	"cdl/internal/obs"
)

// DefaultModelName is the entry name New gives its one model, and the name
// cdlserve gives a bare -model path.
const DefaultModelName = "default"

// Model is one loaded, servable version of a named registry entry: the
// validated routing graph, its price tables and its warm replica pool. A
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
	// The price tables every ops and pJ figure is derived from: each exit's
	// whole-path ops and pJ (a split entry's pJ is its tiered whole-system
	// energy, link included), and one unconditioned trunk pass's.
	exitOps, exitPJ         []float64
	baselineOps, baselinePJ float64
	pool                    *pool
	workers                 int
	// plane is the entry's control plane: telemetry window, lifetime
	// horizon, burn-rate monitor, flight ring and the attached SLO
	// controller with the policy requests without one of their own
	// inherit. It is the entry's, not the version's — a hot-swap's
	// successor is bound to the same plane, so the tail evidence, the
	// burn-rate history and the controller survive reloads, while the
	// window and the horizon (/statsz) start afresh.
	plane *control.Plane
	// nodePaths pre-renders the routed walk for each graph node
	// ("trunk", "trunk->convB"), so the per-image event never allocates a
	// path string on the hot path.
	nodePaths []string
	// split is non-nil for a split entry (RegisterSplit); identity is the
	// policy a request without one inherits while no controller actuates:
	// the trained behaviour, or a split entry's δ.
	split    *Split
	identity *core.ExitPolicy
}

// newModel validates the routing graph, builds cfg.Workers walkers — warm
// sessions, or a split entry's own — and starts the replica pool. The
// Model owns a private clone, so callers may keep mutating (or re-swapping
// branches of) the graph they passed in.
func newModel(name string, version int, path string, g *core.Graph, cfg Config, split *Split) (*Model, error) {
	g = g.Clone()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	ev := energy.NewEvaluator()
	exitPJ, identity := ev.GraphExitEnergies(g), &identityPolicy
	if split != nil {
		exitPJ = split.Costs.ExitEnergies(split.WireBytes)
		identity = &core.ExitPolicy{Delta: split.Delta, MaxExit: -1}
	}
	walkers := make([]Walker, cfg.Workers)
	for i := range walkers {
		var err error
		if split != nil {
			walkers[i], err = split.NewWalker()
		} else {
			var sess *core.Session
			sess, err = core.NewGraphSession(g)
			walkers[i] = &sessionWalker{Session: sess}
		}
		if err != nil {
			return nil, err
		}
	}
	m := &Model{
		name:          name,
		version:       version,
		path:          path,
		graph:         g,
		cdln:          g.Trunk(),
		inWidth:       inputWidth(g.Trunk()),
		maxResumeWire: maxResumeWireSize(g),
		exitOps:       g.ExitOps(),
		exitPJ:        exitPJ,
		baselineOps:   g.BaselineOps(),
		baselinePJ:    ev.BaselineEnergy(g.Trunk()),
		workers:       cfg.Workers,
		split:         split,
		identity:      identity,
		nodePaths:     make([]string, len(g.Nodes)),
	}
	for ni, n := range g.Nodes {
		m.nodePaths[ni] = n.Name
		if ni > 0 {
			m.nodePaths[ni] = g.Nodes[0].Name + "->" + n.Name
		}
	}
	m.pool = newPool(walkers, cfg.QueueDepth, cfg.MaxBatch, m.emit)
	return m, nil
}

// emit is the pool's callback for one group of a micro-batch — the jobs
// one batched cascade pass classified, or the ones dropped for a dead
// context — called before the group's waiters are released: it reports one
// event per image to the plane.
func (m *Model) emit(group []*job, batchSize int) {
	now := time.Now()
	dropped := group[0].cancelled
	var buf [32]control.Event
	events := buf[:0]
	for _, j := range group {
		ev := control.Event{
			Trace:     j.tr,
			Version:   m.version,
			ExitIndex: -1,
			BatchSize: 1,
			QueueMS:   float64(j.started.Sub(j.enqueued)) / float64(time.Millisecond),
			TotalMS:   float64(now.Sub(j.enqueued)) / float64(time.Millisecond),
		}
		if dropped {
			ev.Outcome, ev.Cause, ev.Dropped = obs.FlightError, rejectCause(j.ctx.Err()), true
		} else {
			ev.Outcome, ev.PolicySource, ev.BatchSize = obs.FlightOK, j.src, batchSize
			ev.ExitIndex = j.rec.StageIndex
			if j.rec.Node >= 0 && j.rec.Node < len(m.nodePaths) {
				ev.NodePath = m.nodePaths[j.rec.Node]
			}
			ev.EnergyPJ = m.exitPJ[j.rec.StageIndex]
		}
		events = append(events, ev)
	}
	m.plane.Observe(events)
}

// refuse reports one request that produced no result — shed, abandoned or
// malformed — to the plane (always tail-retained: a refusal is by
// definition anomalous).
func (m *Model) refuse(tr *obs.Trace, outcome, cause string, images int) {
	m.plane.Observe([]control.Event{{
		Trace: tr, Version: m.version, ExitIndex: -1,
		BatchSize: images, Outcome: outcome, Cause: cause,
	}})
}

// rejectCause names why a context died.
func rejectCause(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return control.CauseDeadline
	}
	return causeCancelled
}

// Name returns the registry entry name.
func (m *Model) Name() string { return m.name }

// Version returns the entry's monotonically increasing version (1 for the
// first load, +1 per hot-swap).
func (m *Model) Version() int { return m.version }

// Plane returns the entry's control plane (telemetry window, burn-rate
// monitor, flight ring, controller), shared by every version of the entry.
func (m *Model) Plane() *control.Plane { return m.plane }

// CDLN returns the served graph's trunk cascade. Treat it as read-only:
// replicas were cloned from it at construction.
func (m *Model) CDLN() *core.CDLN { return m.cdln }

// Stats snapshots this model's live counters, including the SLO controller
// state when one is attached.
func (m *Model) Stats() Stats { return m.snapshot().Stats }

// Registry is a concurrent map of named model entries sharing one pool
// sizing. All methods are safe for concurrent use.
type Registry struct {
	cfg Config

	mu          sync.RWMutex
	models      map[string]*Model // guarded by mu
	versions    map[string]int    // guarded by mu; last assigned version per name, survives swaps
	defaultName string            // guarded by mu
	closed      bool              // guarded by mu

	// planes holds each entry's control plane, keyed by name like flights
	// (whose rings they record into), so swaps inherit both.
	planes  map[string]*control.Plane // guarded by mu
	flights *obs.FlightSet
}

// NewRegistry returns an empty registry whose models will all be sized by
// cfg (workers, queue depth, micro-batching).
func NewRegistry(cfg Config) *Registry {
	return &Registry{
		cfg:      cfg.withDefaults(),
		models:   make(map[string]*Model),
		versions: make(map[string]int),
		planes:   make(map[string]*control.Plane),
		flights:  obs.NewFlightSet("serve", obs.FlightConfig{}),
	}
}

// Flights exposes the registry's flight recorders (the /debug/flightz
// backing store).
func (r *Registry) Flights() *obs.FlightSet { return r.flights }

// Config returns the defaults-filled sizing every entry uses.
func (r *Registry) Config() Config { return r.cfg }

// Ready reports whether the registry can serve right now: it is not
// closed and its first entry exists with its warmed pool. This is the readiness-probe predicate — distinct from liveness,
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
// Register returns. The first registered entry becomes the default: the
// one /healthz and /statsz describe, for the registry's lifetime.
func (r *Registry) Register(name string, cdln *core.CDLN) (*Model, error) {
	if err := cdln.Validate(); err != nil {
		return nil, err
	}
	return r.swapIn(name, "", core.LinearGraph(cdln), nil)
}

// RegisterAt is RegisterGraph recording the file the graph originated
// from — for callers that load a model themselves, mutate it (e.g. a
// load-time δ override) and then publish it, so /healthz and /v2/models
// still attribute the entry to its real source path.
func (r *Registry) RegisterAt(name, path string, g *core.Graph) (*Model, error) {
	return r.swapIn(name, path, g, nil)
}

// RegisterGraph publishes an in-memory routing graph under name with
// Register semantics.
func (r *Registry) RegisterGraph(name string, g *core.Graph) (*Model, error) {
	return r.swapIn(name, "", g, nil)
}

// Load reads a modelio file — a linear CDLN or a v2 routing graph — and
// publishes it under name with Register semantics — the hot-reload entry
// point behind PUT /v2/models/{name}. The file is fully parsed and
// validated before the swap, so a torn or hostile file never displaces a
// serving version.
func (r *Registry) Load(name, path string) (*Model, error) {
	g, err := modelio.LoadGraphFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: load model %q: %w", name, err)
	}
	return r.swapIn(name, path, g, nil)
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
	return r.swapIn(cur.name, cur.path, g, nil)
}

// LoadBranch is SwapBranch reading the replacement cascade from a modelio
// file — the entry point behind PUT /v2/models/{name}/branches/{branch}.
func (r *Registry) LoadBranch(name, branch, path string) (*Model, error) {
	cdln, err := modelio.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: load branch %q of %q: %w", branch, name, err)
	}
	return r.SwapBranch(name, branch, cdln)
}

// swapIn builds the new version outside the lock, publishes it atomically,
// then drains the retired pool. A split entry is never replaced.
func (r *Registry) swapIn(name, path string, g *core.Graph, split *Split) (*Model, error) {
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
	if cur := r.models[name]; cur != nil && cur.split != nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("serve: %q is a split entry; its model and branches cannot be swapped", name)
	}
	version := r.versions[name] + 1
	r.versions[name] = version
	r.mu.Unlock()

	m, err := newModel(name, version, path, g, r.cfg, split)
	if err != nil {
		return nil, err
	}

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
	if m.plane = r.planes[name]; m.plane == nil {
		m.plane = control.NewPlane(name, r.flights.Recorder(name))
		r.planes[name] = m.plane
	}
	m.plane.Bind(version, g.NumExits(), m.cdln.Delta)
	r.models[name] = m
	if r.defaultName == "" {
		r.defaultName = name
	}
	r.mu.Unlock()

	if old != nil {
		// Drain after publication: requests that raced the swap and hit the
		// closing pool observe ErrClosed and retry against m.
		old.pool.close()
		if st := m.plane.Status(); st != nil && old.graph.MaxDepth() != m.graph.MaxDepth() && r.SetSLO(name, st.SLO) != nil {
			// The ladder no longer matches the graph and the new shape
			// leaves the SLO nothing to actuate: back to the trained policy.
			m.plane.Detach()
		}
	}
	return m, nil
}

// Get resolves a name to its current version; "" means the first
// registered entry, the one /healthz and /statsz describe.
func (r *Registry) Get(name string) (*Model, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.getLocked(name)
}

// getLocked is Get for callers holding mu.
func (r *Registry) getLocked(name string) (*Model, error) {
	if name == "" {
		name = r.defaultName
	}
	if m := r.models[name]; m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("serve: unknown model %q", name)
}

// DefaultName returns the first registered entry's name ("" while empty).
func (r *Registry) DefaultName() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.defaultName
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
		m.plane.Detach()
		m.pool.close()
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
