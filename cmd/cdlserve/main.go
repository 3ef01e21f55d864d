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
//
// A split entry, name=path@k, is the edge half of an edge–cloud split
// (internal/edgecloud): it runs the first k trunk stages, answers the
// inputs that exit there, and resumes the rest on the -cloud server's
// entry of its own name. -encoding fixed ships Q2.13 activations at a
// quarter of the bytes; the float64 default answers bit for bit as a local
// entry does:
//
//	cdlserve -model accurate=b.cdln -addr :8080                            # the cloud
//	cdlserve -model accurate=b.cdln@1 -addr :8081 -cloud http://localhost:8080
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"cdl/internal/control"
	"cdl/internal/edgecloud"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/modelio"
	"cdl/internal/obs"
	"cdl/internal/serve"
)

// modelFlag collects repeatable -model values: a bare path (entry name
// "default") or name=path, either with an optional @k that makes the
// entry a split entry running the first k trunk stages.
type modelFlag []modelEntry

// modelEntry is one -model value; split is -1 for a local entry.
type modelEntry struct {
	name, path string
	split      int
}

func (f *modelFlag) String() string { return fmt.Sprint(*f) }

func (f *modelFlag) Set(v string) error {
	name, path, split := serve.DefaultModelName, v, -1
	if i := strings.IndexByte(v, '='); i >= 0 {
		name, path = v[:i], v[i+1:]
	}
	if i := strings.LastIndexByte(path, '@'); i >= 0 {
		k, err := strconv.Atoi(path[i+1:])
		if err != nil || k < 0 {
			return fmt.Errorf("split %q in %q: want a trunk stage count ≥ 0", path[i+1:], v)
		}
		path, split = path[:i], k
	}
	if path == "" {
		return fmt.Errorf("empty model path in %q", v)
	}
	for _, e := range *f {
		if e.name == name {
			return fmt.Errorf("duplicate model name %q", name)
		}
	}
	*f = append(*f, modelEntry{name, path, split})
	return nil
}

// options are the flags that shape the registry beyond its entries.
type options struct {
	serve.Config
	delta                float64
	slo, cloud, encoding string
}

func main() {
	var models modelFlag
	var o options
	flag.Var(&models, "model", "model file to serve: path (entry \"default\") or name=path, with @k for a split entry that runs the first k trunk stages and resumes the rest on -cloud's entry of its own name (repeatable; the first is what /healthz and /statsz describe)")
	addr := flag.String("addr", ":8080", "listen address")
	flag.IntVar(&o.Workers, "workers", 0, "replica pool size per model (0 = GOMAXPROCS)")
	flag.IntVar(&o.QueueDepth, "queue", 0, "work queue depth in images per model (0 = default 1024)")
	flag.IntVar(&o.MaxBatch, "batch", 0, "micro-batch size B (0 = default 32)")
	flag.Float64Var(&o.delta, "delta", -1, "override every model's trained δ at load; a split entry runs it as the δ of every request that sets none and forwards it with each offload (-1 keeps them)")
	flag.StringVar(&o.slo, "slo", "", `attach an SLO controller to every model: "p99=15ms,queue=0.8,energy=2.5e9,floor=0.5" (see internal/control.ParseSLO); requests without an explicit δ/policy degrade to shallower exits under load instead of shedding, and a split entry resolves them below its split instead of queueing on the cloud`)
	flag.DurationVar(&o.ControlInterval, "slo-interval", 0, "SLO controller tick period (0 = default 200ms)")
	flag.StringVar(&o.cloud, "cloud", "", "base URL of the cdlserve tier that runs the split entries' tails (required with a split entry)")
	flag.StringVar(&o.encoding, "encoding", "float64", `split entries' offload payload encoding: "float64" (lossless) or "fixed" (Q2.13, 4x smaller)`)
	adminAddr := flag.String("admin-addr", "", "separate listen address for the admin/debug surface (pprof, expvar, phase profile); empty = disabled")
	profile := flag.Bool("profile", false, "enable the per-phase (im2col/gemm/epilogue/classifier/decode) time breakdown from startup; also toggleable at runtime via POST /debug/phaseprof on -admin-addr")
	flag.Parse()

	if len(models) == 0 {
		models = modelFlag{{serve.DefaultModelName, "model.cdln", -1}}
	}
	obs.SetProfiling(*profile)
	if err := run(models, o, *addr, *adminAddr); err != nil {
		fmt.Fprintln(os.Stderr, "cdlserve:", err)
		os.Exit(1)
	}
}

// newServer loads every entry into one registry, attaches the SLO and
// builds the server. Under -delta a local entry's thresholds, every
// node's, are overridden before its replicas clone them. A split entry is
// an edgecloud entry that resumes on the -cloud entry of its own name;
// -delta is its policy, forwarded with each offload, and its model stays
// untouched, since the cloud's tail runs the δ it is sent.
func newServer(models []modelEntry, o options) (srv *serve.Server, err error) {
	enc := wire.EncodingFloat64
	if o.encoding == "fixed" {
		enc = wire.EncodingFixed
	} else if o.encoding != "float64" {
		return nil, fmt.Errorf("unknown -encoding %q (want float64 or fixed)", o.encoding)
	}
	if slices.ContainsFunc(models, func(e modelEntry) bool { return e.split >= 0 }) != (o.cloud != "") {
		return nil, fmt.Errorf("-cloud %q: a split -model entry (name=path@k) needs -cloud, and -cloud a split entry", o.cloud)
	}
	reg := serve.NewRegistry(o.Config)
	defer func() {
		if err != nil {
			reg.Close()
		}
	}()
	for _, e := range models {
		g, err := modelio.LoadGraphFile(e.path)
		var m *serve.Model
		switch {
		case err != nil:
		case e.split >= 0:
			t := edgecloud.NewHTTPModelTransport(o.cloud, e.name)
			m, err = edgecloud.Register(reg, e.name, g, func() (edgecloud.Transport, error) { return t, nil },
				edgecloud.Config{SplitStage: e.split, Delta: o.delta, Encoding: enc})
		default:
			if o.delta >= 0 {
				for _, n := range g.Nodes {
					n.Model.Delta, n.Model.StageDeltas = o.delta, nil
				}
			}
			m, err = reg.RegisterAt(e.name, e.path, g)
		}
		if err != nil {
			return nil, fmt.Errorf("model %q: %w", e.name, err)
		}
		fmt.Fprintf(os.Stderr, "cdlserve: loaded %s v%d from %s (%s, %d stages)\n",
			e.name, m.Version(), e.path, m.CDLN().Arch.Name, len(m.CDLN().Stages))
	}
	if o.slo != "" {
		target, err := control.ParseSLO(o.slo)
		if err != nil {
			return nil, err
		}
		for _, m := range reg.Models() {
			if err := reg.SetSLO(m.Name(), target); err != nil {
				return nil, fmt.Errorf("attach SLO to %q: %w", m.Name(), err)
			}
		}
		fmt.Fprintf(os.Stderr, "cdlserve: SLO %s attached to %d model(s)\n", target, len(reg.Models()))
	}
	return serve.NewWithRegistry(reg)
}

func run(models []modelEntry, o options, addr, adminAddr string) error {
	srv, err := newServer(models, o)
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
		len(models), addr, srv.Registry().DefaultName())
	if err := srv.ListenAndServe(addr, stop); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "cdlserve: default model served %d images in %d requests (%.2fx OPS, %.2fx energy improvement)\n",
		st.Images, st.Requests, st.OpsSpeedup, st.EnergySpeedup)
	return nil
}
