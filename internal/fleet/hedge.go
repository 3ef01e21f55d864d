package fleet

import (
	"context"
	"time"

	"cdl/internal/hop"
	"cdl/internal/obs"
)

// hedged forwards the attempt to primary and, if no answer lands within
// the per-model hedge deadline, re-sends the same input to secondary and
// returns whichever answers first. The loser's context is cancelled the
// moment a winner is chosen, and the result channel is buffered to the
// attempt count so the losing goroutine always completes — cancellation
// is observable (tests settle goroutine counts around hedge storms) and
// leak-free by construction.
//
// Counter conservation is the invariant the metrics tests pin:
// every hedge sent resolves exactly once as a win (the hedge's response
// was the one used — including the case where the primary had already
// failed) or a loss (the primary's response was used, or both failed).
// hedges_sent == hedge_wins + hedge_losses at every quiescent point.
func (rt *Router) hedged(ctx context.Context, primary, secondary *backend, method, path, contentType string, body *hop.Body, model, traceID string, tr *obs.Trace) attemptResult {
	mm := rt.metrics.model(model)
	deadline := rt.hedgeDeadline(mm)

	type arrival struct {
		res    attemptResult
		hedge  bool
		cancel context.CancelFunc
	}
	results := make(chan arrival, 2)
	// An attempt holds the body until send returns, past a lost race.
	launch := func(b *backend, hedge bool) context.CancelFunc {
		actx, cancel := context.WithCancel(ctx)
		body.Retain()
		go func() {
			defer body.Release()
			results <- arrival{res: rt.send(actx, b, method, path, contentType, body, traceID), hedge: hedge, cancel: cancel}
		}()
		return cancel
	}

	start := time.Now()
	pCancel := launch(primary, false)
	defer pCancel()

	timer := time.NewTimer(deadline)
	defer timer.Stop()

	hedgeSent := false
	var hCancel context.CancelFunc
	// resolve settles the hedge counters exactly once.
	resolve := func(hedgeWon bool) {
		if !hedgeSent {
			return
		}
		if hedgeWon {
			mm.hedgeWins.Add(1)
		} else {
			mm.hedgeLosses.Add(1)
		}
	}

	var first *arrival
	pending := 1
	for {
		select {
		case a := <-results:
			pending--
			if a.res.decisive() {
				// Winner. Cancel the other attempt (if any) and settle.
				if hedgeSent {
					if a.hedge {
						pCancel()
					} else if hCancel != nil {
						hCancel()
					}
					winner := int32(0)
					if a.hedge {
						winner = 1
					}
					tr.Add(a.res.backend, obs.Event{Kind: spanHedge, Branch: winner, Label: model}, start, time.Now())
				} else {
					tr.Add(a.res.backend, obs.Event{Kind: spanPick, Stage: -1, Label: model}, start, time.Now())
				}
				resolve(a.hedge)
				a.res.hedged = hedgeSent
				a.res.hedgeWon = hedgeSent && a.hedge
				return a.res
			}
			// Non-decisive (transport error or 503).
			if a.res.err != nil && ctx.Err() == nil {
				a.res.backend.healthy.Store(false)
			}
			if first == nil {
				cp := a
				first = &cp
			}
			if !hedgeSent {
				// Primary failed outright before the deadline: hedge
				// immediately rather than waiting out a timer that can no
				// longer be beaten.
				if ctx.Err() != nil {
					return a.res
				}
				mm.hedgesSent.Add(1)
				hedgeSent = true
				hCancel = launch(secondary, true)
				defer hCancel()
				pending++
				continue
			}
			if pending == 0 {
				// Both attempts non-decisive: report the primary's outcome
				// (stable for the client), count the hedge as a loss.
				tr.Add(primary, obs.Event{Kind: spanHedge, Branch: -1, Label: model}, start, time.Now())
				resolve(false)
				if !first.hedge {
					first.res.hedged = true
					return first.res
				}
				a.res.hedged = true
				return a.res
			}
		case <-timer.C:
			if hedgeSent {
				continue
			}
			mm.hedgesSent.Add(1)
			hedgeSent = true
			hCancel = launch(secondary, true)
			defer hCancel()
			pending++
		case <-ctx.Done():
			// Client gone: cancel everything, settle any open hedge as a
			// loss, and report the cancellation. The launched goroutines
			// drain into the buffered channel and exit.
			resolve(false)
			return attemptResult{backend: primary, err: ctx.Err()}
		}
	}
}

// hedgeDeadline picks the hedge trigger for one model: its own router-
// observed latency quantile once enough samples exist, clamped to
// [HedgeMin, HedgeMax]; before that, HedgeMax (hedge conservatively while
// the distribution is unknown).
func (rt *Router) hedgeDeadline(mm *modelMetrics) time.Duration {
	count, q := mm.plane.LatencyQuantile(hedgeQuantile)
	if count < hedgeMinSamples {
		return rt.cfg.HedgeMax
	}
	d := time.Duration(q * float64(time.Millisecond))
	if d < rt.cfg.HedgeMin {
		return rt.cfg.HedgeMin
	}
	if d > rt.cfg.HedgeMax {
		return rt.cfg.HedgeMax
	}
	return d
}
