package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"cdl/internal/control"
	"cdl/internal/obs"
)

// backend is the router's live view of one cdlserve process: identity,
// probed health and load, and the router-side counters that feed bounded-
// load overflow and /metricsz. All mutable state is atomic — the request
// path reads it lock-free on every pick.
type backend struct {
	url string

	// healthy flips on /readyz probes and on live transport errors (a
	// failed forward marks the backend down immediately — rerouting never
	// waits out a probe interval). lastTransition stamps the flip for
	// /statsz.
	healthy        atomic.Bool
	lastTransition atomic.Int64 // unix nanos

	// swapping marks a backend mid-rolling-swap: the picker drains it
	// (prefers its ring successors for new traffic) while the per-node
	// zero-drop swap runs, and re-admits it when the swap completes.
	swapping atomic.Bool

	// inflight is the router's outstanding request count against this
	// backend — the bounded-load signal that is always fresh, unlike the
	// probed queue depth.
	inflight atomic.Int64

	// Probed load (written by the probe loop, read by the picker):
	// queueDepth and queueFrac from the backend's own telemetry, p95 of
	// its total-latency histogram in milliseconds (float bits).
	queueDepth atomic.Int64
	queueFrac  atomic.Uint64 // math.Float64bits
	p95MS      atomic.Uint64 // math.Float64bits
	lastProbe  atomic.Int64  // unix nanos of the last successful probe

	// Router-side counters.
	requests   atomic.Int64 // forwarded attempts that produced an HTTP response
	errors     atomic.Int64 // forwarded attempts that died in transport
	probeFails atomic.Int64 // probe rounds that found the backend unready/unreachable

	// alertz caches the backend's last-probed burn-rate report (nil until
	// the first successful fetch; best-effort — a backend without /alertz
	// simply never populates the fleet alert view).
	alertz atomic.Pointer[control.AlertzReport]
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

func (b *backend) setHealthy(ok bool) {
	if b.healthy.Swap(ok) != ok {
		b.lastTransition.Store(time.Now().UnixNano())
	}
}

func (b *backend) setLoad(depth int64, frac, p95 float64) {
	b.queueDepth.Store(depth)
	b.queueFrac.Store(math.Float64bits(frac))
	b.p95MS.Store(math.Float64bits(p95))
	b.lastProbe.Store(time.Now().UnixNano())
}

func (b *backend) loadFrac() float64 { return math.Float64frombits(b.queueFrac.Load()) }
func (b *backend) probedP95() float64 {
	return math.Float64frombits(b.p95MS.Load())
}

// probeOnce refreshes one backend: /readyz decides health, and (when the
// backend is ready) its /metricsz scrape refreshes its weight. Probe
// failures never panic the loop; they mark the backend down and count.
func (rt *Router) probeOnce(ctx context.Context, b *backend) {
	ready := rt.probeReady(ctx, b)
	b.setHealthy(ready)
	if !ready {
		b.probeFails.Add(1)
		return
	}
	depth, frac, p95, err := rt.probeLoad(ctx, b)
	if err != nil {
		// Ready but unreadable telemetry: keep serving it (readiness is
		// authoritative), just don't update its weight.
		rt.metrics.probeErrors.Add(1)
		return
	}
	b.setLoad(depth, frac, p95)
	rt.probeAlertz(ctx, b)
}

// probeAlertz piggybacks the backend's burn-rate state on the probe round:
// the fleet /alertz view aggregates these cached reports, so a breaching
// backend surfaces at the front door within one probe interval. Failures
// are silent — the report just goes stale until the next round.
func (rt *Router) probeAlertz(ctx context.Context, b *backend) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/alertz", nil)
	if err != nil {
		return
	}
	resp, err := rt.probeClient.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return
	}
	var rep control.AlertzReport
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxProbeBody)).Decode(&rep); err != nil {
		return
	}
	b.alertz.Store(&rep)
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

// probeLoad scrapes and parses the backend's Prometheus text exposition:
// queue depth is the cdl_queue_depth sum across its models, occupancy
// derives from the queue-capacity share, and p95 comes from the
// cdl_total_latency_ms histogram with every model's series merged.
func (rt *Router) probeLoad(ctx context.Context, b *backend) (int64, float64, float64, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/metricsz", nil)
	if err != nil {
		return 0, 0, 0, err
	}
	resp, err := rt.probeClient.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("fleet: %s/metricsz: HTTP %d", b.url, resp.StatusCode)
	}
	samples, err := obs.ParseProm(io.LimitReader(resp.Body, maxProbeBody))
	if err != nil {
		return 0, 0, 0, err
	}
	depth := obs.SumSamples(samples, "cdl_queue_depth", nil)
	// Queue occupancy: each model's queue is bounded by the same
	// configured depth; the worst per-model fraction is the shed-risk
	// signal. Without a capacity gauge, approximate with depth over the
	// deepest queue observed... the exposition has cdl_queue_depth per
	// model but no capacity, so fall back to worker saturation: depth
	// relative to workers. A backend with depth >> workers is backlogged.
	workers := obs.SumSamples(samples, "cdl_workers", nil)
	frac := 0.0
	if workers > 0 {
		frac = depth / (workers * queueFracWorkerScale)
	}
	p95, ok := obs.HistogramQuantile(samples, "cdl_total_latency_ms", nil, 0.95)
	if !ok {
		p95 = 0
	}
	return int64(depth), clamp01(frac), p95, nil
}

// queueFracWorkerScale scales queue depth into a rough occupancy
// (/metricsz exports no queue capacity): a backlog of this many jobs per
// worker counts as fully occupied.
const queueFracWorkerScale = 64

// maxProbeBody bounds what a probe will read from a backend: a hostile or
// broken backend must not balloon the router.
const maxProbeBody = 4 << 20

func clamp01(f float64) float64 {
	if f < 0 || math.IsNaN(f) {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
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
