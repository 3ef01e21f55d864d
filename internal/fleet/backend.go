package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// backend is the router's live view of one cdlserve process: identity,
// probed health, and the router-side counters that feed bounded-load
// overflow and /metricsz. All mutable state is atomic — the request path
// reads it lock-free on every pick.
type backend struct {
	url string

	// healthy flips on /readyz probes and on live transport errors (a
	// failed forward marks the backend down immediately — rerouting never
	// waits out a probe interval).
	healthy atomic.Bool

	// swapping marks a backend mid-rolling-swap: the picker drains it
	// (prefers its ring successors for new traffic) while the per-node
	// zero-drop swap runs, and re-admits it when the swap completes.
	swapping atomic.Bool

	// inflight is the router's outstanding request count against this
	// backend — the bounded-load signal, fresh on every pick.
	inflight atomic.Int64

	// Router-side counters.
	requests   atomic.Int64 // forwarded attempts that produced an HTTP response
	errors     atomic.Int64 // forwarded attempts that died in transport
	probeFails atomic.Int64 // probe rounds that found the backend unready/unreachable
}

func newBackend(raw string) (*backend, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("fleet: backend %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("fleet: backend %q must be an http(s) base URL", raw)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("fleet: backend %q has no host", raw)
	}
	b := &backend{url: strings.TrimRight(raw, "/")}
	// Start unknown-down: the first probe round (run synchronously at
	// router construction) admits reachable backends before traffic flows.
	b.healthy.Store(false)
	return b, nil
}

// probeOnce refreshes one backend: /readyz decides health. Load is not
// probed — the picker balances on the router's own in-flight count. Probe
// failures never panic the loop; they mark the backend down and count.
func (rt *Router) probeOnce(ctx context.Context, b *backend) {
	ready := rt.probeReady(ctx, b)
	b.healthy.Store(ready)
	if !ready {
		b.probeFails.Add(1)
	}
}

// probeReady is the /readyz check: any 200 is ready, everything else
// (including transport errors) is not.
func (rt *Router) probeReady(ctx context.Context, b *backend) bool {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.probeClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode == http.StatusOK
}

// probeLoop probes every backend each interval until the router closes.
// The per-round probes run concurrently so one hung backend cannot stall
// the round past its timeout.
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			rt.probeRound()
		}
	}
}

// probeRound refreshes every backend concurrently and waits for the round.
func (rt *Router) probeRound() {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout+time.Second)
	defer cancel()
	done := make(chan struct{}, len(rt.backends))
	for _, b := range rt.backends {
		go func(b *backend) {
			rt.probeOnce(ctx, b)
			done <- struct{}{}
		}(b)
	}
	for range rt.backends {
		<-done
	}
}
