package control

import (
	"sync"
	"testing"
	"time"

	"cdl/internal/obs"
)

func newTestPlane(numExits int) *Plane {
	p := NewPlane("m", obs.NewFlightRecorder(obs.FlightConfig{SampleN: 1}))
	p.Bind(0, numExits, 0.5)
	return p
}

func served(totalMS float64, exit int) Event {
	return Event{TotalMS: totalMS, ExitIndex: exit, Outcome: obs.FlightOK}
}

// TestPlaneSinksAgree pins the one-emission contract: a mixed slice of
// events lands in the window, the burn-rate monitor and the flight ring
// under one definition of served, shed, budget and anomaly.
func TestPlaneSinksAgree(t *testing.T) {
	p := newTestPlane(3)
	p.Monitor(10)
	p.Observe([]Event{
		served(1, 0),  // good, normal
		served(50, 0), // burns: above the 10 ms target
		served(2, 2),  // good, deepest exit
		{ExitIndex: -1, BatchSize: 4, Outcome: obs.FlightShed, Cause: "queue_full"},
		{ExitIndex: -1, BatchSize: 2, Outcome: obs.FlightError, Cause: "deadline"},
		{ExitIndex: -1, Outcome: obs.FlightError, Cause: CauseInvalid},
		{TotalMS: 3, ExitIndex: -1, Outcome: obs.FlightHedgeLoss},
	})

	snap := p.Window()
	if snap.Images != 4 || snap.Sheds != 4 {
		t.Errorf("window images/sheds = %d/%d, want 4/4", snap.Images, snap.Sheds)
	}
	st, ok := p.Alert()
	if !ok || st.TotalGood != 3 || st.TotalBad != 1+4+2 {
		t.Errorf("alert good/bad = %d/%d (monitored %v), want 3/7", st.TotalGood, st.TotalBad, ok)
	}
	fst := p.flight.Stats()
	if fst.Seen != 7 || fst.Anomalous != 6 {
		t.Errorf("flight seen/anomalous = %d/%d, want 7/6", fst.Seen, fst.Anomalous)
	}
	want := map[string]string{ // reject cause → anomaly tag
		"queue_full": obs.AnomalyShed, "deadline": obs.AnomalyDeadline, CauseInvalid: obs.AnomalyError,
	}
	for _, rec := range p.flight.Query(obs.FlightQuery{Limit: 16}) {
		switch {
		case rec.RejectCause != "":
			if len(rec.Anomalies) != 1 || rec.Anomalies[0] != want[rec.RejectCause] {
				t.Errorf("refusal %q tagged %v, want [%s]", rec.RejectCause, rec.Anomalies, want[rec.RejectCause])
			}
		case rec.TotalMS == 50:
			if len(rec.Anomalies) != 1 || rec.Anomalies[0] != obs.AnomalyP99 {
				t.Errorf("budget-burning image tagged %v, want [%s]", rec.Anomalies, obs.AnomalyP99)
			}
		case rec.TotalMS == 3:
			if rec.Outcome != obs.FlightOK || len(rec.Anomalies) != 1 || rec.Anomalies[0] != obs.AnomalyHedge {
				t.Errorf("hedge loser recorded as %s %v, want ok [%s]", rec.Outcome, rec.Anomalies, obs.AnomalyHedge)
			}
		}
	}
}

// TestPlaneSharesOneSpanCopyPerTrace: the records of a multi-image
// request's anomalous images carry its spans from one copy, not one copy
// (and sort) per image, while another request's records carry their own.
func TestPlaneSharesOneSpanCopyPerTrace(t *testing.T) {
	p := newTestPlane(3)
	at := time.Unix(0, 0)
	one, two := obs.NewTrace("one", true), obs.NewTrace("two", true)
	one.Record("late", at.Add(2*time.Millisecond), at.Add(3*time.Millisecond), "")
	one.Record("early", at, at.Add(time.Millisecond), "")
	two.Record("other", at, at.Add(time.Millisecond), "")
	var events []Event
	for i := 0; i < 8; i++ { // every image at the deepest exit: all anomalous
		ev := served(1, 2)
		ev.Trace = one
		events = append(events, ev)
	}
	last := served(1, 2)
	last.Trace = two
	p.Observe(append(events, last))

	recs := p.flight.Query(obs.FlightQuery{Limit: 16})
	if len(recs) != 9 {
		t.Fatalf("%d records, want 9", len(recs))
	}
	var shared *obs.Span
	for _, rec := range recs {
		switch rec.TraceID {
		case "one":
			if len(rec.Spans) != 2 || rec.Spans[0].Name != "early" || rec.Spans[1].Name != "late" {
				t.Fatalf("request one's record carries spans %+v, want early then late", rec.Spans)
			}
			if shared == nil {
				shared = &rec.Spans[0]
			} else if &rec.Spans[0] != shared {
				t.Error("two records of one request carry separate copies of its spans")
			}
		case "two":
			if len(rec.Spans) != 1 || rec.Spans[0].Name != "other" {
				t.Errorf("request two's record carries spans %+v, want its own", rec.Spans)
			}
		default:
			t.Errorf("record of trace %q", rec.TraceID)
		}
	}
}

// TestPlaneLiveP99NeedsSamples: the live-p99 anomaly gate stays shut until
// the window holds liveP99MinSamples latencies, so a tier's first requests
// are not tagged against a one-sample window.
func TestPlaneLiveP99NeedsSamples(t *testing.T) {
	p := newTestPlane(3)
	for i := 0; i < liveP99MinSamples-1; i++ {
		p.Observe([]Event{served(1, 0)})
	}
	p.p99AtNS.Store(0) // force a refresh on the next emission
	p.Observe([]Event{served(500, 0)})
	if got := p.flight.Stats().Anomalous; got != 0 {
		t.Fatalf("%d records tagged against a window of %d samples", got, liveP99MinSamples-1)
	}
	p.p99AtNS.Store(0)
	p.Observe([]Event{served(1, 0)}) // the refresh now sees ≥ 50 samples
	p.Observe([]Event{served(5000, 0)})
	if got := p.flight.Stats().Anomalous; got != 1 {
		t.Fatalf("anomalous = %d after a tail latency against a full window, want 1", got)
	}
}

// TestPlaneKillSwitchKeepsAccounting: turning the flight recorder off
// skips record assembly, never the window or the SLO accounting.
func TestPlaneKillSwitchKeepsAccounting(t *testing.T) {
	p := newTestPlane(2)
	p.Monitor(1)
	obs.SetFlightEnabled(false)
	defer obs.SetFlightEnabled(true)
	p.Observe([]Event{served(5, 0), {ExitIndex: -1, BatchSize: 3, Outcome: obs.FlightShed, Cause: "closed"}})
	if st, _ := p.Alert(); st.TotalBad != 4 {
		t.Errorf("bad = %d with the recorder off, want 4", st.TotalBad)
	}
	if snap := p.Window(); snap.Images != 1 || snap.Sheds != 3 {
		t.Errorf("window images/sheds = %d/%d with the recorder off, want 1/3", snap.Images, snap.Sheds)
	}
	if seen := p.flight.Stats().Seen; seen != 0 {
		t.Errorf("flight saw %d records with the recorder off", seen)
	}
}

// TestPlaneControllerLifecycle drives attach → tick → rung-down snapshot →
// re-bind → detach without the ticker.
func TestPlaneControllerLifecycle(t *testing.T) {
	p := newTestPlane(3)
	if p.Status() != nil || p.Policy() != nil {
		t.Fatal("idle plane reports a controller")
	}
	if p.Detach() {
		t.Fatal("Detach on an idle plane reported a controller")
	}
	slo := SLO{P99LatencyMs: 1}
	if err := p.Attach(slo, Ladder(2, 0)[:1], time.Hour, nil); err == nil {
		t.Fatal("one-rung ladder accepted")
	}
	if err := p.Attach(slo, Ladder(2, 0), time.Hour, func() float64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	slow := make([]Event, 16)
	for i := range slow {
		slow[i] = served(100, 0)
	}
	p.Observe(slow)
	p.Tick(0.25)
	st := p.Status()
	if st == nil || st.Rung != 1 || st.MaxExit != 1 || st.Delta != 0.5 || st.QueueFrac != 0.25 || st.Window.Images != 16 {
		t.Fatalf("status after one violating tick: %+v", st)
	}
	if pol := p.Policy(); pol == nil || pol.MaxExit != 1 {
		t.Fatalf("actuated policy %+v, want MaxExit 1", pol)
	}
	if snaps := p.flight.Snapshots(); len(snaps) != 1 || snaps[0].Reason != "rung_down" || snaps[0].Rung != 1 {
		t.Fatalf("rung-down snapshots: %+v", snaps)
	}
	if ast, ok := p.Alert(); !ok || ast.TotalBad != 16 {
		t.Fatalf("attached monitor: ok=%v %+v", ok, ast)
	}
	p.Bind(1, 5, 0.9) // a hot-swap: telemetry restarts, controller and history stay
	if snap := p.Window(); snap.Images != 0 || len(snap.ExitCounts) != 5 {
		t.Fatalf("window after Bind: %+v", snap)
	}
	if st := p.Status(); st == nil || st.Rung != 1 || st.Delta != 0.9 {
		t.Fatalf("status after Bind: %+v", st)
	}
	if !p.Detach() {
		t.Fatal("Detach reported no controller")
	}
	if _, ok := p.Alert(); ok || p.Status() != nil || p.Policy() != nil {
		t.Fatal("Detach left monitor, controller or policy behind")
	}
}

// TestPlaneConcurrent is the -race coverage of everything several
// goroutines reach at once: emissions, the live loop, re-attach, re-bind,
// detach and every reader.
func TestPlaneConcurrent(t *testing.T) {
	p := newTestPlane(3)
	slo := SLO{P99LatencyMs: 0.5}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					f(i)
				}
			}
		}()
	}
	for w := 0; w < 3; w++ {
		run(func(i int) {
			p.Arrivals(2)
			p.Observe([]Event{served(float64(i%7), i%3), {ExitIndex: -1, BatchSize: 1, Outcome: obs.FlightShed, Cause: "queue_full"}})
		})
	}
	run(func(i int) {
		if err := p.Attach(slo, Ladder(2, 0), time.Millisecond, func() float64 { return 0.5 }); err != nil {
			t.Error(err)
		}
		if i%5 == 4 {
			p.Detach()
		}
		time.Sleep(200 * time.Microsecond)
	})
	run(func(i int) { p.Bind(0, 3+i%2, 0.5); time.Sleep(300 * time.Microsecond) })
	run(func(int) {
		p.Status()
		p.Policy()
		Report("t", p)
		p.Prom(obs.NewProm(), obs.Labels{{"model", "m"}})
	})
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	p.Detach()
}
