// Command cdledge runs the edge half of a split CDLN deployment: a serve
// front whose one model, "default", owns the cascade prefix up to -split
// stages, answers locally when the δ-rule fires, and offloads the hard
// residue as wire-encoded activations to a cdlserve backend's
// /v2/models/{name}/resume, where -cloud-model names the registry entry
// this edge's cascade belongs to (default "default", the name cdlserve
// gives a bare -model path). One cloud tier can so back heterogeneous
// edge splits. Clients post to POST /v1/classify (images and a bare δ) or
// to POST /v2/models/default/classify (any policy cdlserve answers, and
// timeout_ms: each offload carries the request's whole policy); the ops
// routes are cdlserve's.
//
// Usage (cloud first, then the edge against it):
//
//	cdlserve -model model.cdln -addr :8080
//	cdledge  -model model.cdln -addr :8081 -cloud http://localhost:8080 -split 1
//	cdlserve -model fast=a.cdln -model accurate=b.cdln -addr :8080
//	cdledge  -model b.cdln -addr :8081 -cloud http://localhost:8080 -cloud-model accurate
//
//	curl -s -X POST localhost:8081/v1/classify -d '{"images": [[...784 floats...]]}'
//	curl -s localhost:8081/statsz   # tier: offload fraction, edge/link/cloud pJ
//
// -encoding fixed ships Q2.13-quantized activations (4x smaller payloads,
// no bit-identity guarantee); the default float64 encoding keeps split
// results bit-identical to a monolithic server.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"cdl/internal/control"
	"cdl/internal/edgecloud"
	"cdl/internal/edgecloud/wire"
	"cdl/internal/energy"
	"cdl/internal/modelio"
	"cdl/internal/obs"
	"cdl/internal/serve"
)

func main() {
	model := flag.String("model", "model.cdln", "model path written by cdltrain")
	addr := flag.String("addr", ":8081", "listen address")
	cloud := flag.String("cloud", "http://localhost:8080", "cloud cdlserve base URL for offloads")
	cloudModel := flag.String("cloud-model", serve.DefaultModelName, "cloud registry entry to resume on, POST /v2/models/{name}/resume (cdlserve names a bare -model path \"default\")")
	split := flag.Int("split", 1, "cascade stages owned by this edge node (0 = offload everything)")
	delta := flag.Float64("delta", -1, "δ override for the local exit rule (-1 keeps the trained thresholds)")
	workers := flag.Int("workers", 0, "edge runtime pool size, one pool worker each (0 = GOMAXPROCS)")
	encoding := flag.String("encoding", "float64", `offload payload encoding: "float64" (lossless) or "fixed" (Q2.13, 4x smaller)`)
	pjByte := flag.Float64("pjbyte", energy.DefaultLink().PJPerByte, "link energy model: pJ per transmitted byte")
	pjOffload := flag.Float64("pjoffload", energy.DefaultLink().PerOffloadPJ, "link energy model: fixed pJ per transfer")
	slo := flag.String("slo", "", `adapt the offload split to an SLO: "p99=20ms,queue=0.8,energy=2.5e9" — under pressure the controller caps the cascade's depth, from the deepest exit down, and below the split resolves inputs locally instead of queueing on the cloud (requests with an explicit δ bypass it); "queue" is the bounded queue's occupancy`)
	adminAddr := flag.String("admin-addr", "", "separate listen address for the admin/debug surface (pprof, expvar, phase profile); empty = disabled")
	profile := flag.Bool("profile", false, "enable the per-phase (im2col/gemm/epilogue/classifier/decode) time breakdown from startup; also toggleable at runtime via POST /debug/phaseprof on -admin-addr")
	flag.Parse()

	obs.SetProfiling(*profile)
	if err := run(*model, *addr, *adminAddr, *cloud, *cloudModel, *encoding, *slo, *split, *workers, *delta, *pjByte, *pjOffload); err != nil {
		fmt.Fprintln(os.Stderr, "cdledge:", err)
		os.Exit(1)
	}
}

func run(model, addr, adminAddr, cloud, cloudModel, encoding, slo string, split, workers int, delta, pjByte, pjOffload float64) error {
	cdln, err := modelio.LoadFile(model)
	if err != nil {
		return err
	}
	var target control.SLO
	if slo != "" {
		if target, err = control.ParseSLO(slo); err != nil {
			return err
		}
	}
	var enc wire.Encoding
	switch encoding {
	case "float64", "f64":
		enc = wire.EncodingFloat64
	case "fixed", "q2.13":
		enc = wire.EncodingFixed
	default:
		return fmt.Errorf("unknown -encoding %q (want float64 or fixed)", encoding)
	}

	if cloudModel == "" {
		return fmt.Errorf("empty -cloud-model: name the cloud registry entry to resume on")
	}
	srv, err := edgecloud.NewServer(cdln,
		func() (edgecloud.Transport, error) { return edgecloud.NewHTTPModelTransport(cloud, cloudModel), nil },
		edgecloud.Config{
			SplitStage: split,
			Delta:      delta,
			Encoding:   enc,
			Link:       energy.Link{PJPerByte: pjByte, PerOffloadPJ: pjOffload},
		},
		edgecloud.ServerConfig{Workers: workers, ModelName: model, SLO: target})
	if err != nil {
		return err
	}
	if adminAddr != "" {
		// The admin listener carries the observability query surfaces
		// alongside pprof/expvar: the flight recorder and the burn-rate
		// state stay reachable even when the data listener is saturated.
		go func() {
			fmt.Fprintf(os.Stderr, "cdledge: admin surface on %s\n", adminAddr)
			if err := obs.ListenAdmin(adminAddr, srv.AdminRoutes()...); err != nil {
				fmt.Fprintln(os.Stderr, "cdledge: admin listener:", err)
			}
		}()
	}

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "cdledge: %v, shutting down\n", s)
		close(stop)
	}()

	fmt.Fprintf(os.Stderr, "cdledge: %s on %s, split=%d/%d stages, %s offload to %s\n",
		cdln.Arch.Name, addr, split, len(cdln.Stages), enc, cloud)
	if err := srv.ListenAndServe(addr, stop); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "cdledge: served %d images, %.1f%% offloaded (%.0f edge / %.0f link / %.0f cloud pJ per image)\n",
		st.Images, 100*st.Tier.OffloadFraction, st.Tier.MeanEdgePJ, st.Tier.MeanLinkPJ, st.Tier.MeanCloudPJ)
	return nil
}
