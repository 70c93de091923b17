package main

// metricDef names one printed metric; BENCHMARK.json lists the same names,
// units and directions (TestBenchmarkJSONMatchesTables holds them together).
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd is what a user of the system sees. Every workload prints all of
// them from an untraced run; "op" is a mask, or one slice of a volume.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},               // exec → /healthz 200 → first correct mask; median of the cold starts
	{"ops_per_s", "1/s", "higher"},          // verified ops per wall second; median over the quietest half of the windows
	{"latency_p50_ms", "ms", "lower"},       // send (closed loop) or due time (open loop) → last verified byte
	{"server_cpu_ms_per_op", "ms", "lower"}, // child user+sys CPU per op; median over the same windows
	{"peak_rss_mb", "MiB", "lower"},         // child VmHWM at the end of the run
}

// perLayer is the layer ledger: in-process walk timings, /statz and /metrics
// deltas around the traced load, span self times, and the benchmark's own
// health. A metric that does not apply to the server under test prints 0.
var perLayer = []metricDef{
	{"xmodel.compile_ms", "ms", "lower"},
	{"xmodel.write_ms", "ms", "lower"},
	{"xmodel.read_ms", "ms", "lower"},
	{"xmodel.file_kb", "KiB", "lower"},

	{"quant.frame_ms", "ms", "lower"},
	{"quant.frame_serial_ms", "ms", "lower"},
	{"quant.first_frame_ms", "ms", "lower"},
	{"quant.gmacs_per_s", "GMAC/s", "higher"},
	{"quant.kb_moved_per_frame", "KiB", "lower"},
	{"quant.frame_allocs", "count", "lower"},
	{"quant.frame_alloc_kb", "KiB", "lower"},
	{"par.speedup", "x", "higher"},

	{"backend.dpu-sim.execute1_ms", "ms", "lower"},
	{"backend.dpu-sim.execute8_ms", "ms", "lower"},
	{"backend.dpu-sim.self_ms", "ms", "lower"},
	{"backend.cpu-int8.execute1_ms", "ms", "lower"},
	{"backend.gpu-sim.execute1_ms", "ms", "lower"},
	{"backend.cost_ns", "ns", "lower"},

	{"vart.sim_fps", "1/s", "higher"},
	{"vart.sim_watts", "W", "lower"},
	{"vart.sim_fps_per_watt", "1/s/W", "higher"},
	{"dpu.sim_frame_us", "us", "lower"},
	{"vart.host_us_per_sim_frame", "us", "lower"},
	{"dpu.time_frame_ns", "ns", "lower"},

	{"nifti.read_ms", "ms", "lower"},
	{"nifti.write_ms", "ms", "lower"},
	{"nifti.read_mb_per_s", "MiB/s", "higher"},
	{"nifti.read_allocs", "count", "lower"},

	{"serve.decode.octet_us", "us", "lower"},
	{"serve.decode.json_us", "us", "lower"},
	{"serve.decode.nifti_us", "us", "lower"},
	{"serve.decode.octet_allocs", "count", "lower"},
	{"serve.decode.json_allocs", "count", "lower"},
	{"serve.decode.nifti_allocs", "count", "lower"},
	{"serve.decode256.octet_us", "us", "lower"},
	{"serve.decode256.json_us", "us", "lower"},
	{"serve.decode256.nifti_us", "us", "lower"},

	{"serve.submit_ms", "ms", "lower"},
	{"serve.submit_self_ms", "ms", "lower"},
	{"serve.http_ms", "ms", "lower"},
	{"serve.http_self_ms", "ms", "lower"},
	{"serve.http_allocs", "count", "lower"},
	{"serve.http_alloc_kb", "KiB", "lower"},

	{"serve.accepted", "count", "higher"},
	{"serve.completed", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.expired", "count", "lower"},
	{"serve.failed", "count", "lower"},
	{"serve.redispatched", "count", "lower"},
	{"serve.batches", "count", "lower"},
	{"serve.mean_batch", "frames", "higher"},
	{"serve.server_p50_ms", "ms", "lower"},
	{"serve.server_p99_ms", "ms", "lower"},
	{"serve.outside_p50_ms", "ms", "lower"},

	{"cluster.segment_us", "us", "lower"},
	{"cluster.do_us", "us", "lower"},
	{"cluster.do_self_us", "us", "lower"},
	{"cluster.submitted", "count", "higher"},
	{"cluster.completed", "count", "higher"},
	{"cluster.shed", "count", "lower"},
	{"cluster.redispatches", "count", "lower"},
	{"cluster.hedges", "count", "lower"},
	{"cluster.node_share_max", "share", "lower"},

	{"study.stage.ingest_ms", "ms", "lower"},
	{"study.stage.preprocess_ms", "ms", "lower"},
	{"study.stage.infer_ms", "ms", "lower"},
	{"study.stage.reassemble_ms", "ms", "lower"},
	{"study.stage.postprocess_ms", "ms", "lower"},
	{"study.stage.report_ms", "ms", "lower"},
	{"study.lcc_ms", "ms", "lower"},
	{"study.store_update_us", "us", "lower"},
	{"study.upload_ms", "ms", "lower"},
	{"study.download_ms", "ms", "lower"},

	{"client.latency_p95_ms", "ms", "lower"},
	{"client.latency_p99_ms", "ms", "lower"},
	{"client.slo_met_share", "share", "higher"},
	{"client.send_us", "us", "lower"},
	{"client.wait_ms", "ms", "lower"},
	{"client.read_us", "us", "lower"},
	{"client.verify_us", "us", "lower"},

	{"bench.sentinel_ms", "ms", "lower"},
	{"bench.sentinel_ratio", "x", "lower"},
	{"bench.generator_lag_p99_ms", "ms", "lower"},
	{"bench.build_s", "s", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}
