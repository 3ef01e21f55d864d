package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"cdl/internal/obs"
)

// TestMain shrinks the run to smoke scale: a 32-image split and a single
// set-up keep all six workloads, end to end and traced, inside tier-1's
// time budget under the race detector.
func TestMain(m *testing.M) {
	splitImages = 32
	setupRepeats = 1
	dir, err := os.MkdirTemp("", "bench-trace")
	if err != nil {
		panic(err)
	}
	traceDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestWorkloadsEmitDeclaredMetrics runs every workload both ways at smoke
// scale: each prints exactly the declared names, nothing fails against the
// oracle, and the trace it writes is a tree.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			decls := declsFor(traced)
			o, err := measure(w, 1, 0.1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, o.failed, o.attempted, o.firstErr)
			}
			declared := map[string]bool{}
			for _, d := range decls {
				declared[d.Name] = true
				if v, ok := o.metrics[d.Name]; !ok {
					t.Errorf("%s: declared metric %s not printed", w.Name, d.Name)
				} else if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v)
				} else if traced && !onPath(w, d.Name) && v != 0 {
					t.Errorf("%s: off-path layer metric %s = %v, want 0", w.Name, d.Name, v)
				}
			}
			for name := range o.metrics {
				if !declared[name] {
					t.Errorf("%s: printed undeclared metric %s", w.Name, name)
				}
			}
			if traced {
				checkTraceFile(t, w)
			}
		}
	}
}

// checkTraceFile asserts the written spans form a tree: unique IDs, every
// parent present and earlier, children inside their parent, and no
// negative self time.
func checkTraceFile(t *testing.T, w workload) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(traceDir, "trace-"+w.Name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s: empty trace", w.Name)
	}
	byID := map[int]span{}
	for _, sp := range tf.Spans {
		if _, dup := byID[sp.ID]; dup || sp.ID == 0 {
			t.Fatalf("%s: span id %d duplicated or zero", w.Name, sp.ID)
		}
		byID[sp.ID] = sp
		if sp.EndNS < sp.StartNS {
			t.Errorf("%s: span %d %s ends before it starts", w.Name, sp.ID, sp.Name)
		}
		if sp.Parent == 0 {
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("%s: span %d %s names parent %d, which is not recorded before it", w.Name, sp.ID, sp.Name, sp.Parent)
		}
		if sp.StartNS < p.StartNS || sp.EndNS > p.EndNS {
			t.Errorf("%s: span %d %s [%d,%d] outside parent %s [%d,%d]", w.Name, sp.ID, sp.Name, sp.StartNS, sp.EndNS, p.Name, p.StartNS, p.EndNS)
		}
		if sp.Req != p.Req {
			t.Errorf("%s: span %d %s has request %d, parent has %d", w.Name, sp.ID, sp.Name, sp.Req, p.Req)
		}
	}
	for name, st := range tf.Self {
		if st.SelfUS < 0 || st.SelfUS > st.TotalUS+1e-6 {
			t.Errorf("%s: self time of %s is %v of %v us", w.Name, name, st.SelfUS, st.TotalUS)
		}
	}
	if !w.offline() {
		if _, ok := tf.Self["queue"]; !ok && w.Surface != surfaceEdge {
			t.Errorf("%s: no echoed queue span adopted; have %v", w.Name, tf.Self)
		}
	}
}

// TestAdoptNestsAndMerges pins the adoption rules on a hand-made echo: the
// copies a fanned-out request echoes merge, containment decides parents,
// and rounding overhang is clipped.
func TestAdoptNestsAndMerges(t *testing.T) {
	rec := &recorder{}
	root := rec.addNS(0, 7, "request", 1000, 9000)
	rec.adopt(root, []obs.Span{
		{Name: "queue", StartUnixNS: 1500, DurationMS: 0.0005},
		{Name: "batch", StartUnixNS: 2000, DurationMS: 0.006},
		{Name: "batch", StartUnixNS: 2000, DurationMS: 0.006}, // second job's copy
		{Name: "stage:trunk#0", StartUnixNS: 2100, DurationMS: 0.003},
		{Name: "fc:trunk", StartUnixNS: 8500, DurationMS: 0.001}, // overhangs the request
	})
	want := []span{
		{1, 0, 7, "request", 1000, 9000},
		{2, 1, 7, "queue", 1500, 2000},
		{3, 1, 7, "batch", 2000, 8000},
		{4, 3, 7, "stage:trunk#0", 2100, 5100},
		{5, 1, 7, "fc:trunk", 8500, 9000},
	}
	if len(rec.spans) != len(want) {
		t.Fatalf("got %d spans %+v, want %d", len(rec.spans), rec.spans, len(want))
	}
	for i, sp := range rec.spans {
		if sp != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, sp, want[i])
		}
	}
	self := rec.selfTimes()
	if got := self["request"].SelfUS; got != 8-0.5-6-0.5 {
		t.Errorf("request self time %v us, want 1", got)
	}
	if got := self["batch"].SelfUS; got != 3 {
		t.Errorf("batch self time %v us, want 3", got)
	}
}

// TestOpenLoopChargesStall points the generator at a server that stalls
// every request for 100 ms once. Timed from their due times, the ~20
// requests due during the stall must all show it; timed from their send
// (the coordinated-omission reading) only the ones in flight would. The
// generator must also stay within its connection bound.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		conns   = 2
		spacing = 5 * time.Millisecond
		total   = 100
		stallAt = 20
		stall   = 100 * time.Millisecond
	)
	var mu sync.Mutex
	var seen, open, mostOpen int
	var until time.Time
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen++
		if seen == stallAt {
			until = time.Now().Add(stall)
		}
		wait := time.Until(until)
		mu.Unlock()
		if wait > 0 {
			time.Sleep(wait)
		}
		w.WriteHeader(http.StatusOK)
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch st {
		case http.StateNew:
			if open++; open > mostOpen {
				mostOpen = open
			}
		case http.StateClosed, http.StateHijacked:
			open--
		}
	}
	srv.Start()
	defer srv.Close()
	target := newHTTPTarget(srv.URL, conns)
	defer target.reconnect()

	due := make([]time.Duration, total)
	for k := range due {
		due[k] = time.Duration(k) * spacing
	}
	res := openLoop(due, conns, func(int) error {
		_, err := target.post(srv.URL, nil, "")
		return err
	})
	if res.failed != 0 {
		t.Fatalf("%d requests failed: %v", res.failed, res.firstErr)
	}
	const slow = 10 * time.Millisecond
	fromDue, fromSend := 0, 0
	for k, s := range res.samples {
		if s.late < 0 || s.lat != s.svc+s.late {
			t.Errorf("sample %d: lat %v != svc %v + late %v", k, s.lat, s.svc, s.late)
		}
		if s.lat >= slow {
			fromDue++
		}
		if s.svc >= slow {
			fromSend++
		}
	}
	// 18 requests are due in the last 90 ms of the stall; allow scheduling slop.
	if fromDue < 14 {
		t.Errorf("only %d requests show the stall from their due time, want about 18", fromDue)
	}
	if fromSend > conns {
		t.Errorf("%d requests show the stall from their send time, want at most the %d in flight", fromSend, conns)
	}
	mu.Lock()
	defer mu.Unlock()
	if mostOpen > conns {
		t.Errorf("generator held %d connections open at once, bound is %d", mostOpen, conns)
	}
}

// TestCompare drives -compare's verdicts with synthetic documents.
func TestCompare(t *testing.T) {
	doc := func(scale map[string]float64, jitter float64) document {
		var d document
		for set := 0; set < 3; set++ {
			for _, w := range workloads {
				m := map[string]float64{}
				for _, e := range endToEnd {
					v := 100.0
					if s, ok := scale[w.Name+"/"+e.Name]; ok {
						v *= s
					}
					m[e.Name] = v * (1 + jitter*float64(set-1))
				}
				d.Runs = append(d.Runs, runRecord{Workload: w.Name, Set: set, Metrics: m})
			}
		}
		return d
	}
	base := doc(nil, 0.001)
	if err := compareDocs(base, doc(nil, 0.001)); err != nil {
		t.Errorf("identical documents: %v", err)
	}
	// lat_p50_ms is lower-better: half as much again regresses, half as much does not.
	if err := compareDocs(base, doc(map[string]float64{"serve-single/lat_p50_ms": 1.5}, 0.001)); err == nil {
		t.Error("50% slower lat_p50_ms was not reported as a regression")
	}
	if err := compareDocs(base, doc(map[string]float64{"serve-single/lat_p50_ms": 0.5}, 0.001)); err != nil {
		t.Errorf("50%% faster lat_p50_ms reported as a regression: %v", err)
	}
	// images_per_s is higher-better.
	if err := compareDocs(base, doc(map[string]float64{"offline-deep/images_per_s": 0.5}, 0.001)); err == nil {
		t.Error("50% lower images_per_s was not reported as a regression")
	}
	lat := metricDecl{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	// A shift inside readings that overlap and spread wider than the bound
	// is unresolved, not a regression and not "ok".
	if _, verdict := judge(lat, []float64{90, 100, 110}, []float64{95, 112, 125}); verdict != "unresolved" {
		t.Errorf("overlapping noisy readings judged %q, want unresolved", verdict)
	}
	// The same spread with every new reading worse than every old one is a regression.
	if _, verdict := judge(lat, []float64{90, 100, 110}, []float64{130, 140, 150}); verdict != "REGRESSION" {
		t.Errorf("separated noisy readings judged %q, want REGRESSION", verdict)
	}
	if _, verdict := judge(lat, []float64{100, 101}, []float64{104, 105}); verdict != "ok" {
		t.Errorf("4%% shift under a 10%% bound judged %q, want ok", verdict)
	}
	var missing document
	for _, r := range base.Runs {
		if r.Workload != "offline-mix" {
			missing.Runs = append(missing.Runs, r)
		}
	}
	if err := compareDocs(base, missing); err == nil {
		t.Error("a document without offline-mix was not rejected")
	}
}

// TestManifestMatchesSpec pins BENCHMARK.json to spec.go and spec.go to
// the limits the benchmark contract sets.
func TestManifestMatchesSpec(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(want))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	names := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside the allowed form", name)
		}
		if names[name] {
			t.Errorf("name %q used twice", name)
		}
		names[name] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q outside the allowed form", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if s := endToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower is better", s)
	}
	for _, m := range perLayer {
		on := false
		for _, w := range workloads {
			on = on || onPath(w, m.Name)
		}
		if !on {
			t.Errorf("layer metric %s is on no workload's path", m.Name)
		}
	}
}

// TestFixturesPinned checks the embedded fixtures against their recorded
// hashes (loadFixture fails on a mismatch).
func TestFixturesPinned(t *testing.T) {
	for name := range fixtures {
		if _, err := loadFixture(name); err != nil {
			t.Error(err)
		}
	}
}
