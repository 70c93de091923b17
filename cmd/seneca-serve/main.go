// Command seneca-serve deploys a compiled xmodel as an online inference
// service: an HTTP server with a bounded admission queue, dynamic
// micro-batching across a heterogeneous pool of execution backends
// (simulated DPU, host INT8 CPU, simulated GPU), cost-model routing under
// a latency SLO and energy budget, explicit backpressure (429 +
// Retry-After) and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	seneca-serve -xmodel 1m.xmodel -addr :8080 -runners 2 -threads 4
//	seneca-serve -backends dpu-sim:2,cpu-int8,gpu-sim -slo 50ms -energy-budget 0.5
//
// With no -xmodel it serves a small built-in demo network (shape-only
// quantized, untrained weights) so the serving path can be exercised
// without running the training pipeline first:
//
//	seneca-serve -addr :8080 -size 64
//
// Endpoints: POST /v1/segment, GET /healthz, GET /statz, GET /metrics
// (Prometheus text format, merged with the pipeline stage timers), and —
// with -pprof — the net/http/pprof suite under /debug/pprof/.
package main

import (
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"seneca/internal/dpu"
	"seneca/internal/hostmain"
	"seneca/internal/obs"
	"seneca/internal/quant"
	"seneca/internal/serve"
)

func main() {
	xmodelPath := flag.String("xmodel", "", "compiled xmodel (empty: built-in demo network)")
	addr := flag.String("addr", ":8080", "listen address")
	size := flag.Int("size", 64, "demo network input size (only without -xmodel)")
	cfg := hostmain.ServeFlags()
	flag.Lookup("runners").Usage += " (ignored when -backends is set)"
	flag.DurationVar(&cfg.Timeout, "timeout", 5*time.Second, "per-request deadline (0 = none)")
	flag.Float64Var(&cfg.SimPace, "sim-pace", 0, "pace batches to N× their simulated board time (0 = run at host speed)")
	flag.StringVar(&cfg.Backends, "backends", "", `heterogeneous pool spec, e.g. "dpu-sim:2,cpu-int8,gpu-sim" (empty: dpu-sim × -runners)`)
	flag.DurationVar(&cfg.LatencySLO, "slo", 0, "router latency SLO per micro-batch (0 = off)")
	flag.Float64Var(&cfg.EnergyBudget, "energy-budget", 0, "router energy budget in joules per frame (0 = off)")
	flag.IntVar(&cfg.Pipeline, "pipeline", 1, "lane sets per runner: a runner dispatches pipeline × width frame lanes, a batch holds one lane per frame and at most one width (1: lone frames run side by side, a larger batch owns the runner; 2 lets two full batches overlap)")
	flag.IntVar(&cfg.BreakerThreshold, "breaker-threshold", 3, "consecutive batch failures that trip a runner's circuit breaker")
	flag.DurationVar(&cfg.BreakerCooldown, "breaker-cooldown", 500*time.Millisecond, "open-breaker cooldown before a half-open probe")
	flag.DurationVar(&cfg.WatchdogTimeout, "watchdog", 30*time.Second, "per-batch watchdog deadline on a runner")
	flag.IntVar(&cfg.MaxRedispatch, "redispatch", 3, "times a request may ride a failed batch back into the queue")
	faults := flag.String("faults", "", `fault-injection spec, e.g. "backend.execute.dpu-sim,p=0.05;nifti.read,p=0.01" (chaos testing)`)
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	lg := obs.SetupDefault("seneca-serve", obs.ParseLevel(*logLevel))
	hostmain.ArmFaults(lg, *faults, cfg.Seed)
	prog := hostmain.Program(lg, *xmodelPath, *size)

	dev := dpu.New(dpu.ZCU104B4096())
	// Share the process-wide registry: one scrape shows the serving series
	// next to the pipeline stage timers (simulate spans etc).
	cfg.Metrics = obs.Default
	srv, err := serve.New(dev, prog, *cfg)
	if err != nil {
		hostmain.Fatal(lg, "starting server", "err", err)
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		lg.Info("pprof enabled", "path", "/debug/pprof/")
	}
	g := prog.Graph
	lg.Info("serving",
		"model", prog.Name,
		"shape", []int{g.InC, g.InH, g.InW},
		"addr", *addr,
		"device", dev.Cfg.Name,
		"backends", srv.Health().Backends,
		"runners", len(srv.Health().Backends),
		"threads", cfg.Threads,
		"max_batch", cfg.MaxBatch,
		"max_delay", cfg.MaxDelay,
		"queue", cfg.QueueDepth,
		"kernel_isa", quant.KernelISA(),
		"runner_widths", srv.Health().Widths)
	hostmain.Serve(lg, *addr, mux, 30*time.Second, srv.Shutdown)

	st := srv.Stats()
	lg.Info("served",
		"completed", st.Completed,
		"batches", st.Batches,
		"mean_occupancy", st.MeanBatch,
		"rejected", st.Rejected)
	if st.SimFPS > 0 {
		lg.Info("simulated deployment",
			slog.Float64("fps", st.SimFPS),
			slog.Float64("watts", st.SimWatts),
			slog.Float64("fps_per_watt", st.SimFPSPerWatt))
	}
}
