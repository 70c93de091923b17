// Package hostmain is the start-up and shutdown the server mains
// (seneca-serve, seneca-cluster, seneca-study) share: loading the served
// model, arming -faults, and an HTTP listener that drains on SIGINT/SIGTERM.
package hostmain

import (
	"context"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seneca/internal/fault"
	"seneca/internal/quant"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

// Fatal logs msg at error level and exits with status 1.
func Fatal(lg *slog.Logger, msg string, args ...any) {
	lg.Error(msg, args...)
	os.Exit(1)
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

// Program returns the compiled xmodel at path or, when path is empty, a
// compact untrained U-Net at size×size (shape-only quantized), so a server can
// be exercised without a trained checkpoint. A failure is fatal.
func Program(lg *slog.Logger, path string, size int) *xmodel.Program {
	if path != "" {
		prog, err := xmodel.ReadFile(path)
		if err != nil {
			Fatal(lg, "loading xmodel", "path", path, "err", err)
		}
		return prog
	}
	cfg := unet.Config{Name: "demo", Depth: 2, BaseFilters: 8, InChannels: 1, NumClasses: 6, Seed: 2}
	q, err := quant.QuantizeShapeOnly(unet.New(cfg).Export(size, size))
	var prog *xmodel.Program
	if err == nil {
		prog, err = xmodel.Compile(q, cfg.Name)
	}
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
