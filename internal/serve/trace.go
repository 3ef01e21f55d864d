package serve

// trace.go maps the core layer's stage events onto per-request trace spans.
// A pool worker's walker installs a stage observer on its session for the
// duration of one grouped walk; every event carries the batch rows
// it covered, so each traced request in the group receives exactly the
// spans of the work its images took part in, once per event however many
// of its rows the event covered — shared batched stage passes appear in
// every participant's trace (annotated with the rows they batched with),
// route dispatches and exits only in the traces of the rows they moved.

import (
	"strconv"

	"cdl/internal/core"
	"cdl/internal/obs"
)

// SpanName is the one stage-event → span mapping: it renders the event as
// a span name using the graph's node names — "stage:<node>#<i>" for a
// cascade stage forward (conv stage + linear classifier + exit decision),
// "route:<node>-><branch>" for a branch dispatch, "fc:<node>" for a final
// FC exit and "forced:<node>#<i>" for a depth-cap exit — plus the span
// detail: "batch=N" on a stage pass that N > 1 rows shared, so a trace
// shows which stages amortized across neighbours. The set of names is
// bounded by the model's graph, never by request content. Exported for the
// edge tier, which renders its prefix and loopback walks with the same
// vocabulary so a cross-tier trace reads uniformly.
func SpanName(g *core.Graph, ev core.StageEvent) (name, detail string) {
	node := nodeName(g, ev.Node)
	if ev.Kind == core.StageRoute {
		return "route:" + node + "->" + nodeName(g, ev.Branch), ""
	}
	if len(ev.Rows) > 1 {
		detail = "batch=" + strconv.Itoa(len(ev.Rows))
	}
	switch ev.Kind {
	case core.StageFinal:
		return "fc:" + node, detail
	case core.StageForced:
		return "forced:" + node + "#" + strconv.Itoa(ev.Stage), detail
	default:
		return "stage:" + node + "#" + strconv.Itoa(ev.Stage), detail
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

// anyTraced reports whether installing a stage observer would do anything
// for this group — the common untraced case skips the observer entirely,
// leaving the hot path at one nil check per stage inside core.
func anyTraced(group []*job) bool {
	for _, j := range group {
		if j.tr != nil {
			return true
		}
	}
	return false
}

// StageObserver returns the observer a walker installs on its session for
// one grouped batch call: it fans each stage event out to the traces of
// the rows it covered (traces[row]; every walk is batched, so Rows always
// names them), once per trace, as a span named prefix + SpanName. A
// request's jobs are queued back to back (pool.submit holds its lock), so
// they are adjacent in every batch and group, and Rows lists rows in group
// order: one trace's rows form one run. The returned closure runs on the
// walker's goroutine only, and traces must stay put for the duration of
// the call, so no locking beyond the traces' own is needed. The edge tier
// installs it with prefix "edge:" on its prefix walk.
func StageObserver(g *core.Graph, prefix string, traces []*obs.Trace) func(core.StageEvent) {
	return func(ev core.StageEvent) {
		name, detail := SpanName(g, ev)
		var last *obs.Trace
		for _, row := range ev.Rows {
			if row >= 0 && row < len(traces) {
				if tr := traces[row]; tr != nil && tr != last {
					tr.Record(prefix+name, ev.Start, ev.End, detail)
					last = tr
				}
			}
		}
	}
}
