// Package hostmain is the start-up and shutdown the server mains
// (seneca-serve, seneca-cluster, seneca-study) share: the serving flags they
// all take, loading the served model, arming -faults, and an HTTP listener
// that drains on SIGINT/SIGTERM. DemoProgram is also the examples' network.
package hostmain

import (
	"context"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seneca/internal/fault"
	"seneca/internal/quant"
	"seneca/internal/serve"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

// Fatal logs msg at error level and exits with status 1.
func Fatal(lg *slog.Logger, msg string, args ...any) {
	lg.Error(msg, args...)
	os.Exit(1)
}

// ServeFlags declares the serving flags all three server mains take —
// -runners, -threads, -max-batch, -max-delay, -queue, -seed and -max-body —
// on the default flag set, and returns the serve.Config that flag.Parse fills
// in. A main adds its own flags to that Config, and may extend a flag's help
// through flag.Lookup.
func ServeFlags() *serve.Config {
	c := new(serve.Config)
	flag.IntVar(&c.Runners, "runners", 1, "runner pool size")
	flag.IntVar(&c.Threads, "threads", 4, "host submission threads per runner (paper deploys 4); a runner gets one frame lane per frame its device model runs in the time of one, at most this many and no more than the host has cores (dpu-sim: 2 from 2 threads up)")
	flag.IntVar(&c.MaxBatch, "max-batch", 8, "micro-batch size cap")
	flag.DurationVar(&c.MaxDelay, "max-delay", 2*time.Millisecond, "ceiling on the micro-batch coalescing window (the wait used is 1/8 of the measured batch service time, capped here, and none at all below 1 ms — a shorter timer cannot be kept, so the batch takes what is queued and goes to the free lanes)")
	flag.IntVar(&c.QueueDepth, "queue", 64, "admission queue depth")
	flag.Int64Var(&c.Seed, "seed", 1, "simulation seed (0 = deterministic timing)")
	flag.Int64Var(&c.MaxBodyBytes, "max-body", 256<<20, "request body cap in bytes (413 beyond it)")
	return c
}

// ArmFaults applies a -faults spec seeded by seed; a malformed spec is fatal.
func ArmFaults(lg *slog.Logger, spec string, seed int64) {
	if spec == "" {
		return
	}
	if err := fault.Apply(spec); err != nil {
		Fatal(lg, "bad -faults spec", "err", err)
	}
	fault.Seed(seed)
	lg.Warn("fault injection armed", "points", fault.Active())
}

// DemoProgram compiles the untrained demo U-Net — depth 2, 8 base filters, six
// classes, seed 2, shape-only quantized — at size×size.
func DemoProgram(size int) (*xmodel.Program, error) {
	cfg := unet.Config{Name: "demo", Depth: 2, BaseFilters: 8, InChannels: 1, NumClasses: 6, Seed: 2}
	q, err := quant.QuantizeShapeOnly(unet.New(cfg).Export(size, size))
	if err != nil {
		return nil, err
	}
	return xmodel.Compile(q, cfg.Name)
}

// Program returns the compiled xmodel at path or, when path is empty, the
// DemoProgram at size×size, so a server can be exercised without a trained
// checkpoint. A failure is fatal.
func Program(lg *slog.Logger, path string, size int) *xmodel.Program {
	if path != "" {
		prog, err := xmodel.ReadFile(path)
		if err != nil {
			Fatal(lg, "loading xmodel", "path", path, "err", err)
		}
		return prog
	}
	prog, err := DemoProgram(size)
	if err != nil {
		Fatal(lg, "building demo network", "err", err)
	}
	lg.Info("no -xmodel given: serving built-in demo network (untrained weights)", "model", prog.Name)
	return prog
}

// Serve answers h on addr until SIGINT or SIGTERM, then runs drain within
// grace and closes the listener; it returns once the listener is closed. A
// connection may take 10 s to send its headers and 5 min its body
// (slowloris/credit hygiene; whole-volume uploads need the long body read,
// which -max-body caps inside the handlers), and idle keep-alives are reaped
// after 2 min. A listen failure is fatal.
func Serve(lg *slog.Logger, addr string, h http.Handler, grace time.Duration, drain func(context.Context) error) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		lg.Info("draining")
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := drain(ctx); err != nil {
			lg.Warn("drain incomplete", "err", err)
		}
		srv.Shutdown(ctx)
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		Fatal(lg, "listen", "err", err)
	}
}
