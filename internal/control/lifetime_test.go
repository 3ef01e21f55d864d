package control

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"cdl/internal/core"
	"cdl/internal/energy"
	"cdl/internal/linclass"
	"cdl/internal/nn"
	"cdl/internal/obs"
	"cdl/internal/opcount"
)

// priceCascade builds an untrained cascade of the given input shape: one
// conv stage with a linear classifier at its tap, then FC. Exit prices
// depend on the architecture alone, so no training is needed.
func priceCascade(rng *rand.Rand, in []int, classes int) *core.CDLN {
	c, h := in[0], in[1]
	net := nn.NewNetwork(in,
		nn.NewConv2D("C1", c, 2, 2),
		nn.NewSigmoid("C1.act"),
		nn.NewFlatten("flat"),
		nn.NewDense("FC", 2*(h-1)*(h-1), classes),
		nn.NewSigmoid("FC.act"),
	)
	nn.InitNetwork(net, rng)
	return &core.CDLN{
		Arch: &nn.Arch{Name: "price", Net: net, Taps: []int{2}, TapNames: []string{"C1"}, NumClasses: classes},
		Stages: []*core.Stage{
			{Name: "O1", Tap: 2, LC: linclass.New(2*(h-1)*(h-1), classes, rng), Gain: 1},
		},
		Delta: 0.5,
		Rule:  core.ThresholdRule{},
		Ops:   opcount.Default(),
	}
}

// priceTable is one served deployment's exit prices.
type priceTable struct {
	name    string
	ops, pj []float64
}

// priceTables returns the exit tables an entry prices its horizon with: a
// local cascade's, a routed graph's (whole-path costs through the router)
// and a split-1 deployment's (link included past the split).
func priceTables(t *testing.T) []priceTable {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ev := energy.NewEvaluator()
	local := core.LinearGraph(priceCascade(rng, []int{1, 6, 6}, 3))
	routed := &core.Graph{Nodes: []*core.Node{
		{Name: "trunk", Model: priceCascade(rng, []int{1, 6, 6}, 3), Routes: []core.Route{{Stage: 0, Branch: []int{1, -1, 1}}}},
		{Name: "lo", Model: priceCascade(rng, []int{2, 5, 5}, 2), Labels: []int{0, 2}},
	}}
	for _, g := range []*core.Graph{local, routed} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	tc, err := ev.GraphTierCosts(local, 1, energy.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	return []priceTable{
		{"local", local.ExitOps(), ev.GraphExitEnergies(local)},
		{"routed", routed.ExitOps(), ev.GraphExitEnergies(routed)},
		{"split", local.ExitOps(), tc.ExitEnergies([]int{0, 1153, 1153})},
	}
}

// TestLifetimeOrderIndependent: the lifetime horizon is a function of the
// multiset of events, not of their order. One multiset of served images
// (EnergyPJ their exit's price, as every tier charges it), refusals,
// dropped images, admissions and abandonments is fed to a fresh plane in
// 100 seeded orders, split across 1 to 8 goroutines, for each of three
// price tables; every count and histogram, and the derived ops and pJ
// (Lifetime.Cost), must come out with the same bits every time. The
// derived totals also agree with the arrival-order float sums, to 1e-12.
func TestLifetimeOrderIndependent(t *testing.T) {
	for _, pt := range priceTables(t) {
		t.Run(pt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var events []Event
			var wantOps, wantPJ float64
			for i := 0; i < 600; i++ {
				e := rng.Intn(len(pt.ops))
				// Whole-ms latencies keep the histograms' float sums exact.
				q := float64(rng.Intn(4))
				events = append(events, Event{ExitIndex: e, EnergyPJ: pt.pj[e], QueueMS: q, TotalMS: q + float64(1+rng.Intn(9)), BatchSize: 4, Version: 3, Outcome: obs.FlightOK})
				wantOps += pt.ops[e]
				wantPJ += pt.pj[e]
			}
			for i, cause := range []string{"queue_full", "closed", CauseInvalid, CauseDeadline, "cloud_error"} {
				for k := 0; k <= i; k++ {
					events = append(events, Event{ExitIndex: -1, BatchSize: 2, Version: 3, Outcome: obs.FlightShed, Cause: cause})
				}
				events = append(events, Event{ExitIndex: -1, Version: 3, Outcome: obs.FlightError, Cause: cause, Dropped: true})
			}
			// Settlements: an admitted request (resume for odd k) or, for
			// negative k, an abandoned one.
			settle := make([]int, 0, 60)
			for k := -10; k < 50; k++ {
				settle = append(settle, k)
			}

			var want Lifetime
			for order := 0; order < 100; order++ {
				orng := rand.New(rand.NewSource(int64(order)))
				orng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
				orng.Shuffle(len(settle), func(i, j int) { settle[i], settle[j] = settle[j], settle[i] })
				p := NewPlane("m", obs.NewFlightRecorder(obs.FlightConfig{}))
				p.Bind(3, len(pt.ops), 0.5)
				workers := 1 + order%8
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						lo, hi := w*len(events)/workers, (w+1)*len(events)/workers
						for lo < hi { // batches of 1 to 7 events, as a pool emits them
							n := min(1+(order*31+w*17+lo*13)%7, hi-lo)
							p.Observe(events[lo : lo+n])
							lo += n
						}
						for i := w; i < len(settle); i += workers {
							if k := settle[i]; k < 0 {
								p.Abandoned(3, CauseDeadline)
							} else {
								p.Admitted(3, k%2 == 1)
							}
						}
					}(w)
				}
				wg.Wait()
				got := p.Lifetime(3, len(pt.ops))
				got.Since = time.Time{}
				if order == 0 {
					want = got
					if got.Images != 600 || got.Requests != 50 || got.Resumes != 25 || got.Refused[CauseDeadline] != 4+10 {
						t.Fatalf("horizon %+v: want 600 images, 50 requests, 25 resumes, 14 deadline refusals", got)
					}
					for _, c := range []struct {
						name      string
						got, want float64
					}{{"ops", got.Cost(pt.ops), wantOps}, {"pJ", got.Cost(pt.pj), wantPJ}} {
						if math.Abs(c.got-c.want) > 1e-12*math.Abs(c.want) {
							t.Errorf("derived %s %v, arrival-order sum %v", c.name, c.got, c.want)
						}
					}
				}
				g, w := horizonBits(got, pt), horizonBits(want, pt)
				for k := range w {
					if !reflect.DeepEqual(g[k], w[k]) {
						t.Fatalf("order %d (%d goroutines): %s %v, order 0 read %v", order, workers, k, g[k], w[k])
					}
				}
			}
		})
	}
}

// horizonBits is everything a horizon reports, derived aggregates as bits.
func horizonBits(l Lifetime, pt priceTable) map[string]any {
	return map[string]any{
		"counts":  []int64{l.Requests, l.Resumes, l.Images},
		"exits":   l.Exits,
		"refused": l.Refused,
		"queue":   l.Queue.Buckets(),
		"service": l.Service.Buckets(),
		"total":   l.Total.Buckets(),
		"ops":     math.Float64bits(l.Cost(pt.ops)),
		"pj":      math.Float64bits(l.Cost(pt.pj)),
	}
}
