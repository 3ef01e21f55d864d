package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"cdl/internal/core"
	"cdl/internal/obs"
	"cdl/internal/tensor"
)

// ErrOverloaded is returned (and mapped to HTTP 503) when the bounded work
// queue is full: the server sheds load instead of queueing unboundedly.
var ErrOverloaded = errors.New("serve: work queue full")

// ErrClosed is returned when work arrives after Close (or, for a
// registry-owned pool, after a hot-swap retired this model version —
// handlers retry against the successor).
var ErrClosed = errors.New("serve: server closed")

// job is one classification unit: either a raw image (fromStage 0) or an
// edge-offloaded intermediate activation resuming the cascade at fromStage.
// A multi-image request fans out into one job per image sharing a request
// context, exit policy and WaitGroup; each job writes its record in place,
// so the handler reassembles results in request order for free.
type job struct {
	// ctx is the request context: a job whose context is already cancelled
	// or past deadline when a worker picks it up is dropped without
	// touching a replica (cancelled is set and the waiter released).
	ctx context.Context
	x   *tensor.T
	// node/fromStage locate the resume point on the model's routing graph:
	// (0, 0) = classify from the trunk's input layer, (0, s) = a trunk
	// split resume, (n, 0) = a branch-entry handoff
	// (Session.ResumeBatchPolicyAt semantics).
	node      int
	fromStage int
	// pol is the request's validated exit policy, shared by every job the
	// request fanned out into. Never nil.
	pol *core.ExitPolicy
	// src says who chose pol (a control.Source* value): the flight record's
	// policy_source.
	src string
	rec *core.ExitRecord
	wg  *sync.WaitGroup
	// tr is the request's trace (nil when tracing is disabled): the worker
	// maps the session's stage events onto its spans and adds the
	// queue-wait and batch-grouping spans.
	tr *obs.Trace
	// cancelled is set (before wg.Done) when the job was dropped for a dead
	// context; the handler discards the whole request and the counters of
	// classified images skip it.
	cancelled bool
	// err is set (before wg.Done) when the walk of the job's group failed:
	// the handler answers the whole request 502.
	err error
	// enqueued and started bound the job's queue wait: submit stamps
	// enqueued (one clock read per request), the worker stamps started
	// when its micro-batch begins. The emit callback turns them into the
	// queue/service latency histograms and the event's queue/total times.
	enqueued time.Time
	started  time.Time
}

// Walker walks one group of a pool worker's micro-batch: inputs that enter
// the routing graph at (node, fromStage) under one policy. traces is nil
// when no input is traced, else each input's trace (nil for an untraced
// one), into which the walk records its spans. A registry entry's own
// walker is its core.Session (sessionWalker), which cannot fail; a split
// entry's walkers resume each group's residue on another tier and can
// (RegisterSplit). The records need only stay valid until the next call.
type Walker interface {
	WalkBatch(xs []*tensor.T, node, fromStage int, pol core.ExitPolicy, traces []*obs.Trace) ([]core.ExitRecord, error)
}

// sessionWalker walks a group with Session.ResumeBatchInto, which is a
// batched policy-aware classify at (0, 0) and a resume elsewhere, into
// recs, a records slab of its own that the worker copies out of; tap,
// built on the first traced walk, records the walk's stage events.
type sessionWalker struct {
	*core.Session
	recs []core.ExitRecord
	tap  *StageTap
}

func (s *sessionWalker) WalkBatch(xs []*tensor.T, node, fromStage int, pol core.ExitPolicy, traces []*obs.Trace) ([]core.ExitRecord, error) {
	if traces != nil {
		if s.tap == nil {
			s.tap = NewStageTap(s.Graph(), "")
		}
		s.tap.Watch(s.Session, traces)
		defer s.tap.Watch(s.Session, nil)
	}
	s.recs = s.ResumeBatchInto(s.recs, xs, node, fromStage, pol)
	return s.recs, nil
}

// pool is the replica fan-out: a bounded job queue drained by one goroutine
// per Walker. Workers micro-batch work-conservingly — a worker woken by
// queued work takes what is queued, up to maxBatch, and never waits for
// more — so batches form from the backlog that builds while every replica
// is busy, which is when the per-batch costs downstream (one plane lock
// per batch, not per image) need amortizing, and a lone request on an idle
// pool is dispatched at once. A worker takes requests whole (up to
// maxBatch), and only its first one while other workers are idle; it
// wakes the next worker for whatever it leaves. So idle workers share out
// requests, never the jobs of one request — which on a split entry would
// cost a round trip per piece.
type pool struct {
	maxBatch, queueDepth int

	mu     sync.Mutex // serializes submits and takes
	ready  sync.Cond  // signalled when jobs are queued or the pool closes
	queue  []*job     // guarded by mu
	idle   int        // guarded by mu; workers waiting on ready
	closed bool       // guarded by mu
	wg     sync.WaitGroup
}

// newPool starts one worker per walker. emit (nil in tests that need no
// sinks) receives every group of every micro-batch, with the micro-batch's
// size, before the group's waiters are released.
func newPool(walkers []Walker, queueDepth, maxBatch int, emit func(group []*job, batchSize int)) *pool {
	p := &pool{maxBatch: maxBatch, queueDepth: queueDepth, queue: make([]*job, 0, queueDepth)}
	p.ready.L = &p.mu
	for _, w := range walkers {
		p.wg.Add(1)
		go p.worker(w, emit)
	}
	return p
}

// submit enqueues jobs without blocking; on a full queue it rejects the
// whole request so the caller never waits behind a saturated pool.
// Admission is all-or-nothing: submits serialize on the mutex and check
// free capacity up front, so a rejected request enqueues nothing and costs
// the saturated server no worker time. A context already dead at admission
// is rejected outright with its own error, so a disconnected client never
// occupies queue space.
func (p *pool) submit(ctx context.Context, jobs []*job) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if len(jobs) > p.queueDepth-len(p.queue) {
		p.mu.Unlock()
		return ErrOverloaded
	}
	now := time.Now()
	for _, j := range jobs {
		j.enqueued = now
		j.wg.Add(1)
	}
	p.queue = append(p.queue, jobs...)
	p.mu.Unlock()
	// Signalled unlocked, so the worker it wakes does not block on mu.
	p.ready.Signal()
	return nil
}

// depth reports how many jobs are queued right now.
func (p *pool) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// close stops accepting work, drains the queue and waits for the workers.
// Jobs already queued are still classified.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.ready.Broadcast()
	p.wg.Wait()
}

// wait blocks until jobs are queued; false once the pool is closed and
// drained.
func (p *pool) wait() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 && !p.closed {
		p.idle++
		p.ready.Wait()
		p.idle--
	}
	return len(p.queue) > 0
}

// samePolicy reports whether two jobs' policies can share one batched
// cascade pass. Identity covers the common case (one request's fan-out);
// the value comparison additionally groups simple policies across requests
// — exactly the cross-request δ batching the pre-policy pool had. Policies
// with per-stage deltas only group by identity (slice comparison isn't
// worth the nanoseconds on the hot path).
func samePolicy(a, b *core.ExitPolicy) bool {
	if a == b {
		return true
	}
	return a.StageDeltas == nil && b.StageDeltas == nil &&
		a.Delta == b.Delta && a.MaxExit == b.MaxExit && a.Trace == b.Trace
}

// worker drains micro-batches with its private walker, dispatching each
// batch through one batched walk instead of a per-sample loop. Jobs whose
// request context died in the queue are dropped first — a cancelled client
// costs no replica time, nor, on a split entry, a round trip. Live jobs
// are grouped by (node, fromStage, policy) — a batched cascade pass needs
// one resume point and one policy — and a micro-batch usually is one group
// (multi-image requests fan out sharing a policy, resumes share a split),
// so the common case is a single batched pass over the whole micro-batch.
// One WalkBatch call covers fresh classifications, split-resume jobs and
// branch-entry handoffs alike; each job writes its record in place, so
// grouping never disturbs response order. A walk that fails marks its
// group's jobs and emits nothing for them: their handlers answer 502 and
// report the refusal. A traced request gets its queue and batch spans once
// per micro-batch and group, however many of its jobs they hold: submit
// queues a request's jobs back to back, so they are adjacent in every
// batch and group. Each group — the dropped jobs first, then every
// classified one — is emitted to the sinks BEFORE its waiters are
// released, so a client holding its response can already read its own
// request in /statsz, /metricsz and /debug/flightz (the ordering
// control.Plane.Observe documents).
func (p *pool) worker(w Walker, emit func(group []*job, batchSize int)) {
	defer p.wg.Done()
	batch := make([]*job, 0, p.maxBatch)
	group := make([]*job, 0, p.maxBatch)
	xs := make([]*tensor.T, 0, p.maxBatch)
	traces := make([]*obs.Trace, 0, p.maxBatch)
	claimed := make([]bool, 0, p.maxBatch)
	for p.wait() {
		batch = batch[:0]
		if p.collect(&batch); len(batch) == 0 {
			continue // another worker took them
		}
		started := time.Now()
		claimed, group = claimed[:0], group[:0]
		remaining := 0
		var last *obs.Trace
		for _, j := range batch {
			j.started = started
			if j.ctx != nil && j.ctx.Err() != nil {
				// Dead before compute: never classified.
				j.cancelled = true
				group = append(group, j)
				claimed = append(claimed, true)
				continue
			}
			// A request's jobs share its enqueue stamp: one span for all.
			if j.tr != nil && j.tr != last {
				j.tr.Add(poolSpans{}, obs.Event{Kind: spanQueue}, j.enqueued, started)
			}
			last = j.tr
			claimed = append(claimed, false)
			remaining++
		}
		release(group, len(batch), emit)
		for remaining > 0 {
			group, xs, traces = group[:0], xs[:0], traces[:0]
			var lead *job
			traced := false
			for i, j := range batch {
				if claimed[i] {
					continue
				}
				if lead == nil {
					lead = j
				}
				// The lead claims itself by identity, not by policy
				// equality: a NaN δ (unreachable through the HTTP handlers,
				// which validate first, but cheap to harden against)
				// compares unequal to itself and would otherwise leave the
				// group empty and spin this loop forever.
				if j == lead || (j.node == lead.node && j.fromStage == lead.fromStage && samePolicy(j.pol, lead.pol)) {
					claimed[i] = true
					group = append(group, j)
					xs = append(xs, j.x)
					traces = append(traces, j.tr)
					traced = traced || j.tr != nil
				}
			}
			// Only with tracing off does no job carry a trace (the
			// middleware attaches one to every request); the walk then
			// runs without a stage tap, at one nil check per stage.
			var rows []*obs.Trace
			if traced {
				rows = traces
			}
			recs, err := w.WalkBatch(xs, lead.node, lead.fromStage, *lead.pol, rows)
			if rows != nil {
				// Record the grouping span before releasing any waiter so a
				// handler never serializes a trace that is still gaining
				// spans.
				end := time.Now()
				last = nil
				for _, j := range group {
					if j.tr != nil && j.tr != last {
						j.tr.Add(poolSpans{}, obs.Event{Kind: spanBatch, Rows: int32(len(group))}, started, end)
					}
					last = j.tr
				}
			}
			if err != nil {
				for _, j := range group {
					j.err = err
				}
				release(group, len(batch), nil)
			} else {
				for gi, rec := range recs {
					*group[gi].rec = rec
				}
				release(group, len(batch), emit)
			}
			remaining -= len(group)
		}
	}
}

// release emits one group of a micro-batch of batchSize jobs to the sinks,
// then releases its waiters.
func release(group []*job, batchSize int, emit func(group []*job, batchSize int)) {
	if emit != nil && len(group) > 0 {
		emit(group, batchSize)
	}
	for _, j := range group {
		j.wg.Done()
	}
}

// collect tops the batch up to maxBatch from the jobs already queued,
// without waiting — an empty queue dispatches what the worker has — and
// wakes another worker for whatever it leaves. While a worker is idle it
// takes only the first request's jobs (a request's jobs share their
// WaitGroup and are queued back to back).
func (p *pool) collect(batch *[]*job) {
	p.mu.Lock()
	n := min(p.maxBatch-len(*batch), len(p.queue))
	for k := 1; k < n && p.idle > 0; k++ {
		if p.queue[k].wg != p.queue[0].wg {
			n = k
		}
	}
	*batch = append(*batch, p.queue[:n]...)
	rest := copy(p.queue, p.queue[n:])
	clear(p.queue[rest:]) // the taken jobs are the batch's now
	p.queue = p.queue[:rest]
	p.mu.Unlock()
	if rest > 0 {
		p.ready.Signal()
	}
}
