package main

// trace.go is the benchmark's own span recorder. The traced run wraps each
// call into a layer in a span and adopts the spans the servers echo for a
// request that carried X-Trace-Id as children of the benchmark's span for
// that request. Spans stay in memory until the run ends, then go to
// out/trace-<workload>.json together with per-name self times.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cdl/internal/obs"
)

// span is one timed interval. Parent is the ID of the span that caused it,
// 0 for a root; spans of one request share Req.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_unix_ns"`
	EndNS   int64  `json:"end_unix_ns"`
}

// recorder collects spans from one goroutine (the traced run is sequential).
type recorder struct{ spans []span }

// add records a closed span and returns its ID.
func (r *recorder) add(parent, req int, name string, start, end time.Time) int {
	return r.addNS(parent, req, name, start.UnixNano(), end.UnixNano())
}

func (r *recorder) addNS(parent, req int, name string, start, end int64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, StartNS: start, EndNS: end})
	return id
}

// adopt files the spans a server echoed under the benchmark span `parent`.
// A request that fanned out into several jobs echoes one copy of a shared
// span per job, so identical spans are merged; nesting is recovered from
// containment (a span's parent is the smallest echoed span that encloses
// it, else `parent`), and every span is clipped to its parent, because the
// echoed clock readings are rounded to float milliseconds.
func (r *recorder) adopt(parent int, echoed []obs.Span) {
	type key struct {
		name       string
		start, end int64
	}
	p := r.spans[parent-1]
	seen := map[key]bool{}
	var in []key
	for _, sp := range echoed {
		k := key{sp.Name, sp.StartUnixNS, sp.StartUnixNS + int64(sp.DurationMS*1e6+0.5)}
		if !seen[k] {
			seen[k] = true
			in = append(in, k)
		}
	}
	sort.SliceStable(in, func(i, j int) bool {
		if in[i].start != in[j].start {
			return in[i].start < in[j].start
		}
		return in[i].end > in[j].end
	})
	stack := []int{parent}
	for _, k := range in {
		for len(stack) > 1 {
			top := r.spans[stack[len(stack)-1]-1]
			if k.start >= top.StartNS && k.end <= top.EndNS {
				break
			}
			stack = stack[:len(stack)-1]
		}
		top := r.spans[stack[len(stack)-1]-1]
		start, end := clip(k.start, top.StartNS, top.EndNS), clip(k.end, top.StartNS, top.EndNS)
		stack = append(stack, r.addNS(top.ID, p.Req, k.name, start, end))
	}
}

func clip(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	// SelfUS is the total minus the part of each span its children cover.
	SelfUS float64 `json:"self_us"`
}

// selfTimes computes, per span name, total and self time. A span's self
// time is its duration minus the union of its children's intervals.
func (r *recorder) selfTimes() map[string]selfStat {
	children := map[int][]span{}
	for _, sp := range r.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := map[string]selfStat{}
	for _, sp := range r.spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), sp.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < edge {
				lo = edge
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		st := out[sp.Name]
		st.Count++
		st.TotalUS += float64(sp.EndNS-sp.StartNS) / 1e3
		st.SelfUS += float64(sp.EndNS-sp.StartNS-covered) / 1e3
		out[sp.Name] = st
	}
	return out
}

// traceFile is the document written per workload.
type traceFile struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Self     map[string]selfStat `json:"self_times"`
	Spans    []span              `json:"spans"`
}

// traceDir is where trace files go, relative to the directory the
// benchmark runs in (bench/, see run.sh). The tests point it elsewhere.
var traceDir = "out"

// write stores the trace as out/trace-<workload>.json.
func (r *recorder) write(w workload, seed int64) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	raw, err := json.Marshal(traceFile{Workload: w.Name, Seed: seed, Self: r.selfTimes(), Spans: r.spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s.json", w.Name))
	return path, os.WriteFile(path, raw, 0o644)
}
