// Command seneca-study serves both inference tiers from one listener: the
// synchronous slice API (internal/serve) and the asynchronous whole-volume
// study pipeline (internal/study) backed by a durable on-disk job store.
// Volume jobs survive restarts — a job interrupted by a crash or redeploy
// resumes at its last completed stage when the process comes back up.
//
// Usage:
//
//	seneca-study -xmodel 1m.xmodel -store /var/lib/seneca/jobs -addr :8080
//
// With no -xmodel it serves a small built-in demo network (shape-only
// quantized, untrained weights) so the volume pipeline can be exercised
// without running the training pipeline first:
//
//	seneca-study -store ./jobs -addr :8080 -size 64
//
// Endpoints:
//
//	POST /v1/segment            synchronous single-slice inference
//	POST /v1/volumes            submit a NIfTI CT volume (async, 202 + id)
//	GET  /v1/volumes            list volume jobs
//	GET  /v1/volumes/{id}       job status / progress / volumetric report
//	GET  /v1/volumes/{id}/mask  download the segmented NIfTI label volume
//	GET  /healthz, /statz, /metrics
package main

import (
	"context"
	"flag"
	"net/http"
	"time"

	"seneca/internal/dpu"
	"seneca/internal/hostmain"
	"seneca/internal/obs"
	"seneca/internal/quant"
	"seneca/internal/serve"
	"seneca/internal/study"
)

func main() {
	xmodelPath := flag.String("xmodel", "", "compiled xmodel (empty: built-in demo network)")
	store := flag.String("store", "seneca-jobs", "durable job store directory")
	addr := flag.String("addr", ":8080", "listen address")
	size := flag.Int("size", 64, "demo network input size (only without -xmodel)")
	cfg := hostmain.ServeFlags()
	flag.Lookup("queue").Usage = "slice admission queue depth"
	workers := flag.Int("workers", 2, "concurrent volume jobs")
	sliceParallel := flag.Int("slice-parallel", 4, "in-flight slices per volume job")
	jobQueue := flag.Int("job-queue", 64, "volume job queue depth")
	attempts := flag.Int("attempts", 3, "per-stage attempt budget")
	faults := flag.String("faults", "", `fault-injection spec, e.g. "study.blob.write,p=0.05;backend.execute,p=0.02" (chaos testing)`)
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	lg := obs.SetupDefault("seneca-study", obs.ParseLevel(*logLevel))
	hostmain.ArmFaults(lg, *faults, cfg.Seed)
	prog := hostmain.Program(lg, *xmodelPath, *size)

	dev := dpu.New(dpu.ZCU104B4096())
	cfg.Metrics = obs.Default
	srv, err := serve.New(dev, prog, *cfg)
	if err != nil {
		hostmain.Fatal(lg, "starting inference server", "err", err)
	}

	svc, err := study.New(srv, study.Config{
		Dir:           *store,
		Workers:       *workers,
		SliceParallel: *sliceParallel,
		QueueDepth:    *jobQueue,
		MaxAttempts:   *attempts,
		Seed:          cfg.Seed,
		MaxBodyBytes:  cfg.MaxBodyBytes,
		Metrics:       obs.Default,
	})
	if err != nil {
		hostmain.Fatal(lg, "starting study service", "err", err)
	}
	if n := svc.Store().CountState(study.StateQueued); n > 0 {
		lg.Info("resuming incomplete volume jobs", "jobs", n)
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	svc.Routes(mux)
	g := prog.Graph
	lg.Info("serving",
		"model", prog.Name,
		"shape", []int{g.InC, g.InH, g.InW},
		"addr", *addr,
		"store", *store,
		"workers", *workers,
		"slice_parallel", *sliceParallel,
		"kernel_isa", quant.KernelISA(),
		"runner_widths", srv.Health().Widths)
	hostmain.Serve(lg, *addr, mux, 30*time.Second, func(ctx context.Context) error {
		// Stop taking volume work first (in-flight jobs stay resumable),
		// then drain the slice tier.
		svc.Close()
		return srv.Shutdown(ctx)
	})
	lg.Info("stopped",
		"done", svc.Store().CountState(study.StateDone),
		"failed", svc.Store().CountState(study.StateFailed))
}
