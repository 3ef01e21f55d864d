// Command cdlserve serves saved CDLN models over HTTP: batched
// classification with per-request exit policies, multi-model dispatch with
// hot-swap, liveness, and live exit/OPS/energy statistics. It is the
// runtime half of the paper's pipeline — cdltrain builds the cascade,
// cdlserve exploits it: easy inputs exit early and cost a fraction of a
// full forward pass.
//
// Usage:
//
//	cdlserve -model model.cdln -addr :8080                 # single model, named "default"
//	cdlserve -model a=a.cdln -model b=b.cdln -addr :8080   # multi-model (/healthz and /statsz describe a)
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/v2/models
//	curl -s -X POST localhost:8080/v2/models/default/classify \
//	     -d '{"images": [[...784 floats...]], "policy": {"delta": 0.6}}'
//	curl -s -X POST localhost:8080/v2/models/b/classify \
//	     -d '{"images": [[...]], "policy": {"delta": 0.6, "max_exit": 1, "detail": "trace"}}'
//	curl -s -X PUT localhost:8080/v2/models/b -d '{"path": "b-v2.cdln"}'   # hot-swap
//	curl -s localhost:8080/statsz
//
// With -slo the server closes the loop between live load and the paper's
// δ knob: a feedback controller watches windowed p99 latency, queue
// occupancy and pJ/image and degrades requests without an explicit
// policy to shallower exits under load instead of shedding them:
//
//	cdlserve -model model.cdln -slo p99=15ms,queue=0.8
//	curl -s localhost:8080/v2/models/default/slo            # controller state
//	curl -s -X PUT localhost:8080/v2/models/default/slo -d '{"energy_budget_pj": 2.5e9}'
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cdl/internal/control"
	"cdl/internal/core"
	"cdl/internal/modelio"
	"cdl/internal/obs"
	"cdl/internal/serve"
)

// modelFlag collects repeatable -model values: either a bare path (entry
// name "default") or name=path.
type modelFlag struct {
	entries []modelEntry
}

type modelEntry struct{ name, path string }

func (f *modelFlag) String() string {
	parts := make([]string, len(f.entries))
	for i, e := range f.entries {
		parts[i] = e.name + "=" + e.path
	}
	return strings.Join(parts, ",")
}

func (f *modelFlag) Set(v string) error {
	name, path := serve.DefaultModelName, v
	if i := strings.IndexByte(v, '='); i >= 0 {
		name, path = v[:i], v[i+1:]
	}
	if path == "" {
		return fmt.Errorf("empty model path in %q", v)
	}
	for _, e := range f.entries {
		if e.name == name {
			return fmt.Errorf("duplicate model name %q", name)
		}
	}
	f.entries = append(f.entries, modelEntry{name, path})
	return nil
}

func main() {
	var models modelFlag
	flag.Var(&models, "model", "model file to serve: path (entry \"default\") or name=path (repeatable; the first is what /healthz and /statsz describe)")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "replica pool size per model (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "work queue depth in images per model (0 = default 1024)")
	batch := flag.Int("batch", 0, "micro-batch size B (0 = default 32)")
	delta := flag.Float64("delta", -1, "override every model's trained δ at load (-1 keeps them)")
	slo := flag.String("slo", "", `attach an SLO controller to every model: "p99=15ms,queue=0.8,energy=2.5e9,floor=0.5" (see internal/control.ParseSLO); requests without an explicit δ/policy degrade to shallower exits under load instead of shedding`)
	sloInterval := flag.Duration("slo-interval", 0, "SLO controller tick period (0 = default 200ms)")
	adminAddr := flag.String("admin-addr", "", "separate listen address for the admin/debug surface (pprof, expvar, phase profile); empty = disabled")
	profile := flag.Bool("profile", false, "enable the per-phase (im2col/gemm/epilogue/classifier/decode) time breakdown from startup; also toggleable at runtime via POST /debug/phaseprof on -admin-addr")
	flag.Parse()

	if len(models.entries) == 0 {
		models.entries = []modelEntry{{serve.DefaultModelName, "model.cdln"}}
	}
	obs.SetProfiling(*profile)
	if err := run(models.entries, *addr, *adminAddr, *workers, *queue, *batch, *delta, *slo, *sloInterval); err != nil {
		fmt.Fprintln(os.Stderr, "cdlserve:", err)
		os.Exit(1)
	}
}

func run(models []modelEntry, addr, adminAddr string, workers, queue, batch int, delta float64, slo string, sloInterval time.Duration) error {
	reg := serve.NewRegistry(serve.Config{
		Workers:         workers,
		QueueDepth:      queue,
		MaxBatch:        batch,
		ModelName:       models[0].path,
		ControlInterval: sloInterval,
	})
	for _, e := range models {
		var m *serve.Model
		var err error
		if delta >= 0 {
			// Apply the load-time δ override before registration, so the
			// replica pool clones the mutated thresholds.
			var cdln *core.CDLN
			if cdln, err = modelio.LoadFile(e.path); err != nil {
				return err
			}
			cdln.Delta = delta
			cdln.StageDeltas = nil
			m, err = reg.RegisterAt(e.name, e.path, cdln)
		} else {
			m, err = reg.Load(e.name, e.path)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cdlserve: loaded %s v%d from %s (%s, %d stages)\n",
			e.name, m.Version(), e.path, m.CDLN().Arch.Name, len(m.CDLN().Stages))
	}
	if slo != "" {
		target, err := control.ParseSLO(slo)
		if err != nil {
			return err
		}
		for _, m := range reg.Models() {
			if err := reg.SetSLO(m.Name(), target); err != nil {
				return fmt.Errorf("attach SLO to %q: %w", m.Name(), err)
			}
		}
		fmt.Fprintf(os.Stderr, "cdlserve: SLO %s attached to %d model(s)\n", target, len(reg.Models()))
	}
	srv, err := serve.NewWithRegistry(reg)
	if err != nil {
		return err
	}
	if adminAddr != "" {
		// The admin listener carries the observability query surfaces
		// alongside pprof/expvar: the flight recorder and the burn-rate
		// state stay reachable even when the data listener is saturated.
		go func() {
			fmt.Fprintf(os.Stderr, "cdlserve: admin surface on %s\n", adminAddr)
			if err := obs.ListenAdmin(adminAddr, srv.AdminRoutes()...); err != nil {
				fmt.Fprintln(os.Stderr, "cdlserve: admin listener:", err)
			}
		}()
	}

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "cdlserve: %v, shutting down\n", s)
		close(stop)
	}()

	fmt.Fprintf(os.Stderr, "cdlserve: %d model(s) on %s (default %q)\n",
		len(models), addr, reg.DefaultName())
	if err := srv.ListenAndServe(addr, stop); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "cdlserve: default model served %d images in %d requests (%.2fx OPS, %.2fx energy improvement)\n",
		st.Images, st.Requests, st.OpsSpeedup, st.EnergySpeedup)
	return nil
}
