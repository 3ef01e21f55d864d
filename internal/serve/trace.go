package serve

// trace.go maps the core layer's stage events onto per-request trace
// events. A pool worker's walker installs a stage tap on its session for
// the duration of one grouped walk; every event carries the batch rows
// it covered, so each traced request in the group receives exactly the
// events of the work its images took part in, once per event however many
// of its rows the event covered — shared batched stage passes appear in
// every participant's trace (annotated with the rows they batched with),
// route dispatches and exits only in the traces of the rows they moved.
// The events are integers; the tap names them only when a trace is read.

import (
	"strconv"

	"cdl/internal/core"
	"cdl/internal/obs"
)

// StageTap is a walker's stage observer and its events' obs.Namer. Watch
// installs it for one walk: it records each stage event into the traces of
// the rows it covered (traces[row]; every walk is batched, so Rows always
// names them), once per trace. A request's jobs are queued back to back
// (pool.submit holds its lock), so they are adjacent in every batch and
// group, and Rows lists rows in group order: one trace's rows form one
// run. The tap runs on the walker's goroutine only, and the traces must
// stay put for the walk, so no locking beyond the traces' own is needed.
// The edge tier's prefix walk names its spans under the prefix "edge:".
type StageTap struct {
	graph  *core.Graph
	prefix string
	traces []*obs.Trace
	fn     func(core.StageEvent) // observe, bound once
}

// NewStageTap returns a tap that names events after g's nodes.
func NewStageTap(g *core.Graph, prefix string) *StageTap {
	t := &StageTap{graph: g, prefix: prefix}
	t.fn = t.observe
	return t
}

// Watch installs the tap on s for a walk whose row i is traced into
// traces[i]; nil traces removes it.
func (t *StageTap) Watch(s *core.Session, traces []*obs.Trace) {
	if t.traces = traces; traces == nil {
		s.SetStageObserver(nil)
	} else {
		s.SetStageObserver(t.fn)
	}
}

func (t *StageTap) observe(ev core.StageEvent) {
	var last *obs.Trace
	for _, row := range ev.Rows {
		if row >= 0 && row < len(t.traces) {
			if tr := t.traces[row]; tr != nil && tr != last {
				tr.Add(t, obs.Event{Kind: uint8(ev.Kind), Node: int32(ev.Node), Stage: int32(ev.Stage), Branch: int32(ev.Branch),
					First: int32(ev.Rows[0]), Rows: int32(len(ev.Rows))}, ev.Start, ev.End)
				last = tr
			}
		}
	}
}

// SpanName is the one stage-event → span mapping: it renders the event as
// a span name using the graph's node names — "stage:<node>#<i>" for a
// cascade stage forward (conv stage + linear classifier + exit decision),
// "route:<node>-><branch>" for a branch dispatch, "fc:<node>" for a final
// FC exit and "forced:<node>#<i>" for a depth-cap exit — plus the span
// detail: "batch=N" on a stage pass that N > 1 rows shared, so a trace
// shows which stages amortized across neighbours. The set of names is
// bounded by the model's graph, never by request content.
func (t *StageTap) SpanName(ev obs.Event) (name, detail string) {
	node := nodeName(t.graph, int(ev.Node))
	if core.StageEventKind(ev.Kind) == core.StageRoute {
		return t.prefix + "route:" + node + "->" + nodeName(t.graph, int(ev.Branch)), ""
	}
	if ev.Rows > 1 {
		detail = "batch=" + strconv.Itoa(int(ev.Rows))
	}
	switch core.StageEventKind(ev.Kind) {
	case core.StageFinal:
		return t.prefix + "fc:" + node, detail
	case core.StageForced:
		return t.prefix + "forced:" + node + "#" + strconv.Itoa(int(ev.Stage)), detail
	default:
		return t.prefix + "stage:" + node + "#" + strconv.Itoa(int(ev.Stage)), detail
	}
}

func nodeName(g *core.Graph, node int) string {
	if node < 0 || node >= len(g.Nodes) {
		return "node" + strconv.Itoa(node)
	}
	if n := g.Nodes[node].Name; n != "" {
		return n
	}
	return "node" + strconv.Itoa(node)
}

// poolSpans names the pool's events: a request's queue wait (spanQueue)
// and each grouped walk it rode in (spanBatch, Rows the group's size).
type poolSpans struct{}

const (
	spanQueue uint8 = iota
	spanBatch
)

func (poolSpans) SpanName(ev obs.Event) (name, detail string) {
	if ev.Kind == spanQueue {
		return "queue", ""
	}
	return "batch", "size=" + strconv.Itoa(int(ev.Rows))
}
