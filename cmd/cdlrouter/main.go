// Command cdlrouter is the fleet front door: it fans /v2 traffic across N
// cdlserve backends. Placement is a consistent-hash ring on
// (model, input-hash) so identical inputs keep landing on the same
// cache-warm replica, with bounded-load overflow to the next ring node
// when the router's own in-flight count says the owner is saturated (a
// backend that sheds anyway answers 503 and the next node is tried);
// backends are health-probed (/readyz), and each pages on its own /alertz;
// hedged requests clip the tail (after the per-model p95
// deadline a straggler's input is re-sent to a second backend and the
// first answer wins); and PUT /v2/models/{name} at the router performs a
// rolling fleet hot-swap, one backend at a time, on top of each node's
// zero-drop registry swap.
//
// Usage:
//
//	cdlserve -model m.cdln -addr :8081 &
//	cdlserve -model m.cdln -addr :8082 &
//	cdlserve -model m.cdln -addr :8083 &
//	cdlrouter -addr :8080 -backend http://127.0.0.1:8081 \
//	          -backend http://127.0.0.1:8082 -backend http://127.0.0.1:8083 -hedge
//
//	curl -s localhost:8080/readyz
//	curl -s -X POST localhost:8080/v2/models/default/classify -d '{"images": [[...]]}'
//	curl -s -X PUT localhost:8080/v2/models/default -d '{"path": "m-v2.cdln"}'  # rolling fleet swap
//	curl -s localhost:8080/statsz      # per-backend health/in-flight + hedge counters
//	curl -s localhost:8080/metricsz    # Prometheus text exposition (fleet_* families)
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cdl/internal/fleet"
	"cdl/internal/obs"
)

// backendFlag collects repeatable -backend URLs.
type backendFlag []string

func (f *backendFlag) String() string { return fmt.Sprint([]string(*f)) }

func (f *backendFlag) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty backend URL")
	}
	*f = append(*f, v)
	return nil
}

func main() {
	var backends backendFlag
	flag.Var(&backends, "backend", "cdlserve base URL to route to (repeatable, at least one)")
	addr := flag.String("addr", ":8080", "listen address")
	probeInterval := flag.Duration("probe-interval", 0, "health (/readyz) probe period (0 = default 500ms)")
	probeTimeout := flag.Duration("probe-timeout", 0, "per-probe HTTP timeout (0 = default 2s)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-attempt forward timeout (0 = default 30s)")
	replicas := flag.Int("replicas", 0, "virtual nodes per backend on the hash ring (0 = default 128)")
	loadFactor := flag.Float64("load-factor", 0, "bounded-load factor c: spill past a backend holding more than c× the mean in-flight (0 = default 2.0)")
	hedge := flag.Bool("hedge", false, "enable hedged requests: re-send stragglers past the per-model p95 deadline to a second backend")
	hedgeMin := flag.Duration("hedge-min", 0, "hedge deadline floor (0 = default 5ms)")
	hedgeMax := flag.Duration("hedge-max", 0, "hedge deadline ceiling, also used before enough samples exist (0 = default 1s)")
	adminAddr := flag.String("admin-addr", "", "separate listen address for the admin/debug surface (pprof, expvar, the router's /alertz and /debug/flightz); empty = disabled")
	flag.Parse()

	if len(backends) == 0 {
		fmt.Fprintln(os.Stderr, "cdlrouter: at least one -backend is required")
		os.Exit(2)
	}
	if err := run(backends, *addr, *adminAddr, *probeInterval, *probeTimeout, *reqTimeout,
		*replicas, *loadFactor, *hedge, *hedgeMin, *hedgeMax); err != nil {
		fmt.Fprintln(os.Stderr, "cdlrouter:", err)
		os.Exit(1)
	}
}

func run(backends []string, addr, adminAddr string, probeInterval, probeTimeout, reqTimeout time.Duration,
	replicas int, loadFactor float64, hedge bool, hedgeMin, hedgeMax time.Duration) error {
	rt, err := fleet.New(fleet.Config{
		Backends:       backends,
		ProbeInterval:  probeInterval,
		ProbeTimeout:   probeTimeout,
		RequestTimeout: reqTimeout,
		Replicas:       replicas,
		LoadFactor:     loadFactor,
		Hedge:          hedge,
		HedgeMin:       hedgeMin,
		HedgeMax:       hedgeMax,
	})
	if err != nil {
		return err
	}
	if adminAddr != "" {
		// The admin listener mirrors the serving tiers: the fleet alert
		// view and the router's flight recorder stay reachable even when
		// the front door is saturated.
		go func() {
			fmt.Fprintf(os.Stderr, "cdlrouter: admin surface on %s\n", adminAddr)
			if err := obs.ListenAdmin(adminAddr, rt.AdminRoutes()...); err != nil {
				fmt.Fprintln(os.Stderr, "cdlrouter: admin listener:", err)
			}
		}()
	}

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "cdlrouter: %v, shutting down\n", s)
		close(stop)
	}()

	hedgeNote := "off"
	if hedge {
		hedgeNote = "on"
	}
	fmt.Fprintf(os.Stderr, "cdlrouter: fronting %d backend(s) on %s (hedging %s)\n",
		len(backends), addr, hedgeNote)
	if err := rt.ListenAndServe(addr, stop); err != nil {
		return err
	}
	st := rt.Stats()
	fmt.Fprintf(os.Stderr, "cdlrouter: done; hedges sent %d (wins %d, losses %d), fleet swaps %d\n",
		st.HedgesSent, st.HedgeWins, st.HedgeLosses, st.Swaps)
	return nil
}
