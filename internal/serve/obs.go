package serve

import (
	"strconv"

	"seneca/internal/obs"
	"seneca/internal/quant"
)

// initMetrics re-exports the server's internal counter block through an
// obs.Registry, so GET /metrics exposes the same numbers as GET /statz in
// Prometheus text format. Counters and gauges are callback-backed: request
// outcomes read the atomics in stats, and every series about the runners —
// pool-wide or per backend kind — reads the summed rows of its workers, as
// /statz does. The latency and batch-occupancy histograms are real obs
// histograms fed on the completion path. When several servers share one
// registry (e.g. obs.Default), the most recently constructed one owns the
// callbacks.
func (s *Server) initMetrics(reg *obs.Registry) {
	s.reg = reg
	sum := func(ws []*worker) BackendStats {
		_, sum, _ := s.rows(ws)
		return sum
	}
	gauge := func(ws []*worker, f func(BackendStats) float64) func() float64 {
		return func() float64 { return f(sum(ws)) }
	}
	count := func(ws []*worker, f func(BackendStats) uint64) func() uint64 {
		return func() uint64 { return f(sum(ws)) }
	}
	frames := func(b BackendStats) uint64 { return b.Frames }

	reg.GaugeFunc("seneca_serve_queue_depth",
		"Requests currently waiting in the admission queue.",
		func() float64 { return float64(s.stats.depth.Load()) })
	reg.GaugeFunc("seneca_serve_queue_capacity",
		"Admission queue capacity; beyond it requests are rejected with 429.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	reg.GaugeFunc("seneca_serve_inflight_batches",
		"Micro-batches currently executing on the runner pool.",
		gauge(s.pool, func(b BackendStats) float64 { return float64(b.InFlightBatches) }))

	reg.GaugeFunc("seneca_serve_batch_window_seconds",
		"How long a request is held back for its batch to fill: min(MaxDelay, batch service time / 8), 0 when that is below the runtime's 1 ms timer resolution.",
		func() float64 { return s.batchWindow().Seconds() })

	outcomes := map[string]func() uint64{
		"accepted":  s.stats.accepted.Load,
		"rejected":  s.stats.rejected.Load,
		"completed": s.stats.completed.Load,
		"expired":   s.stats.expired.Load,
		"failed":    s.stats.failed.Load,
	}
	for outcome, load := range outcomes {
		reg.CounterFunc("seneca_serve_requests_total",
			"Requests by terminal outcome (accepted counts admissions).",
			load, obs.L("outcome", outcome))
	}
	// Where in the pipeline expired requests died: admission (dead on
	// arrival), queue (dropped at batch formation) or dispatch (dropped on
	// the final pre-execution check). Together they prove expired requests
	// never reach backend simulation.
	stages := map[string]func() uint64{
		expireStageAdmission: s.stats.expiredAdmission.Load,
		expireStageQueue:     s.stats.expiredQueue.Load,
		expireStageDispatch:  s.stats.expiredDispatch.Load,
	}
	for stage, load := range stages {
		reg.CounterFunc("seneca_serve_expired_total",
			"Requests whose context expired or was cancelled, by pipeline stage.",
			load, obs.L("stage", stage))
	}
	reg.CounterFunc("seneca_serve_batches_total",
		"Micro-batches dispatched to the runner pool.",
		s.stats.batches.Load)
	reg.CounterFunc("seneca_serve_frames_total",
		"Frames completed across all batches (summed batch occupancy).",
		count(s.pool, frames))

	// Self-healing series: pool health, per-worker breaker position, and
	// the recovery counters (see health.go and the chaos tests).
	reg.GaugeFunc("seneca_serve_healthy_runners",
		"Runners serving regular traffic: breaker closed and backend self-check passing.",
		func() float64 {
			_, _, healthy := s.rows(s.pool)
			return float64(healthy)
		})
	for _, w := range s.pool {
		w := w
		reg.GaugeFunc("seneca_serve_breaker_state",
			"Per-worker breaker state: 0 closed, 1 open, 2 half-open.",
			func() float64 { return float64(w.br.State()) },
			obs.L("worker", strconv.Itoa(w.id)))
	}
	reg.CounterFunc("seneca_serve_runner_evictions_total",
		"Runners evicted and replaced after tripping their breaker.",
		s.stats.evictions.Load)
	reg.CounterFunc("seneca_serve_breaker_probes_total",
		"Half-open probe batches sent to recovering runners.",
		s.stats.probes.Load)
	reg.CounterFunc("seneca_serve_redispatches_total",
		"Jobs transparently re-queued out of failed or stalled batches.",
		s.stats.redispatched.Load)
	reg.CounterFunc("seneca_serve_watchdog_timeouts_total",
		"Batches reclaimed from a runner that stalled past WatchdogTimeout.",
		s.stats.watchdog.Load)

	// Per-backend series: workers of the same kind share one labelled
	// batch-latency histogram and the callback series read the kind's summed
	// rows, so a "dpu-sim:2" pool reports one dpu-sim row, not two.
	byKind := map[string][]*worker{}
	var kindOrder []string
	for _, w := range s.pool {
		if _, seen := byKind[w.kind]; !seen {
			kindOrder = append(kindOrder, w.kind)
		}
		byKind[w.kind] = append(byKind[w.kind], w)
	}
	for _, kind := range kindOrder {
		ws := byKind[kind]
		lbl := obs.L("backend", kind)
		reg.CounterFunc("seneca_backend_dispatch_total",
			"Micro-batches dispatched, by backend kind.",
			count(ws, func(b BackendStats) uint64 { return b.Dispatched }), lbl)
		mBatchLat := reg.Histogram("seneca_backend_batch_latency_seconds",
			"Simulated device latency per executed micro-batch, by backend kind.",
			obs.DefBuckets, lbl)
		for _, w := range ws {
			w.mBatchLat = mBatchLat
		}
		reg.CounterFunc("seneca_backend_frames_total",
			"Frames completed, by backend kind.", count(ws, frames), lbl)
		for _, g := range []struct {
			name, help string
			f          func(BackendStats) float64
		}{
			{"seneca_backend_inflight_batches", "Micro-batches currently held (staged or executing), by backend kind.",
				func(b BackendStats) float64 { return float64(b.InFlightBatches) }},
			{"seneca_serve_lanes", "Dispatch capacity in frame lanes (Pipeline × frames the device model runs in the time of one), by backend kind.",
				func(b BackendStats) float64 { return float64(b.Lanes) }},
			{"seneca_serve_lanes_busy", "Frame lanes held by staged or executing batches, by backend kind.",
				func(b BackendStats) float64 { return float64(b.LanesBusy) }},
			{"seneca_backend_queued_frames", "Frames routed to the backend kind but not yet executing.",
				func(b BackendStats) float64 { return float64(b.QueueDepth) }},
			{"seneca_backend_sim_fps", "Simulated throughput of the backend kind for its traffic so far.",
				func(b BackendStats) float64 { return b.SimFPS }},
			{"seneca_backend_sim_fps_per_watt", "Simulated energy efficiency of the backend kind (FPS per watt).",
				func(b BackendStats) float64 { return b.SimFPSPerWatt }},
		} {
			reg.GaugeFunc(g.name, g.help, gauge(ws, g.f), lbl)
		}
	}

	s.mLatency = reg.Histogram("seneca_serve_request_latency_seconds",
		"End-to-end request latency from admission to completion.",
		obs.DefBuckets)
	s.mOccupancy = reg.Histogram("seneca_serve_batch_occupancy",
		"Live requests per dispatched micro-batch.",
		obs.BatchBuckets)

	reg.GaugeFunc("seneca_serve_sim_fps",
		"Simulated deployment throughput for the traffic served so far (paper: 335.4 FPS).",
		gauge(s.pool, func(b BackendStats) float64 { return b.SimFPS }))
	reg.GaugeFunc("seneca_serve_sim_watts",
		"Simulated board power for the traffic served so far.",
		gauge(s.pool, func(b BackendStats) float64 { return b.SimWatts }))
	reg.GaugeFunc("seneca_serve_sim_fps_per_watt",
		"Simulated energy efficiency (paper: 11.81 FPS/W on the ZCU104).",
		gauge(s.pool, func(b BackendStats) float64 { return b.SimFPSPerWatt }))

	reg.Gauge("seneca_serve_info",
		"Serving configuration (constant 1; dimensions carry the config).",
		obs.L("model", s.prog.Name), obs.L("device", s.dev.Cfg.Name)).Set(1)
	quant.ExportKernelISA(reg)
}

// Metrics returns the registry this server reports into. It is the
// Config.Metrics registry when one was supplied, otherwise a private one
// created at construction.
func (s *Server) Metrics() *obs.Registry { return s.reg }
