// Package vart is the timing model of the SENECA deployment's runtime — the
// analog of the Vitis AI Runtime (paper Section III-E), which submits
// inference jobs asynchronously from N host threads to the dual-core DPU and
// collects the results, overlapping host-side pre/post-processing with
// accelerator execution.
//
// A discrete-event simulation over the DPU device model prices such a run,
// and reproduces the paper's thread-scaling behaviour: throughput grows up
// to 4 threads, then saturates while power keeps rising (Section IV-B). The
// masks themselves come from the program's INT8 graph (xmodel.Program.Run,
// or the dpu-sim backend for a batch); nothing here executes a frame.
package vart

import (
	"errors"
	"math/rand"
	"time"

	"seneca/internal/dpu"
	"seneca/internal/energy"
	"seneca/internal/obs"
	"seneca/internal/xmodel"
)

// Runner times one compiled program on one device with a fixed thread
// count. Build it with New, which times the program's frame once: Device,
// Program and Device.Cfg are fixed from then on (a change to them after New
// is not seen), while Threads and the host parameters may be set freely.
type Runner struct {
	Device  *dpu.Device
	Program *xmodel.Program
	// Threads is the number of host submission threads (the paper sweeps
	// 1, 2, 4 and observes no gain beyond 4).
	Threads int
	// HostOverhead is the per-job host cost (input scaling, submit,
	// collect, output conversion) on the ARM cores.
	HostOverhead time.Duration
	// HostJitter is the relative per-job host-time noise, producing the
	// run-to-run spread (µ±σ of 10 runs) the paper reports.
	HostJitter float64

	// frame is Device.TimeFrame(Program), timed by New; a copy keeps it.
	frame dpu.FrameTiming
}

// DefaultHostOverhead is the measured-equivalent per-job host cost on the
// ZCU104's ARM Cortex-A53 (preprocessing a 256×256 slice plus VART
// submit/collect bookkeeping).
const DefaultHostOverhead = 2200 * time.Microsecond

// New constructs a runner with default host parameters.
func New(dev *dpu.Device, prog *xmodel.Program, threads int) *Runner {
	return &Runner{
		Device:       dev,
		Program:      prog,
		Threads:      threads,
		HostOverhead: DefaultHostOverhead,
		HostJitter:   0.02,
		frame:        dev.TimeFrame(prog),
	}
}

// Result reports a simulated run.
type Result struct {
	energy.Report
	// FrameLatency is the single-frame DPU latency on one core.
	FrameLatency time.Duration
	// CoreBusyFrac is the mean fraction of cores kept busy.
	CoreBusyFrac float64
	// Utilization is the MAC array utilization while busy.
	Utilization float64
}

// jobTiming records one frame's simulated schedule, for tracing.
type jobTiming struct {
	Frame      int
	Thread     int
	Core       int
	PreStart   time.Duration
	ExecStart  time.Duration
	ExecFinish time.Duration
	PostFinish time.Duration
}

// ErrNoThreads reports a Runner configured with fewer than one host
// submission thread. It is returned (never panicked) so a misconfigured
// server cannot crash the process.
var ErrNoThreads = errors.New("vart: need at least one thread")

// SimulateThroughput runs the discrete-event model for the given number of
// frames. seed controls measurement jitter (0 = deterministic).
func (r *Runner) SimulateThroughput(frames int, seed int64) (Result, error) {
	return r.simulate(frames, seed, nil)
}

func (r *Runner) simulate(frames int, seed int64, record func(jobTiming)) (Result, error) {
	if r.Threads < 1 {
		return Result{}, ErrNoThreads
	}
	defer obs.Time("simulate")()
	ft := r.frame
	// Seed 0 draws nothing, so it builds no source (seeding one costs more
	// than the rest of a short run).
	var rng *rand.Rand
	if seed != 0 && r.HostJitter > 0 {
		rng = rand.New(rand.NewSource(seed))
	}

	// Discrete-event state: next-free times for each host thread and core.
	threadFree := make([]time.Duration, r.Threads)
	coreFree := make([]time.Duration, r.Device.Cfg.Cores)
	var coreBusy time.Duration
	var end time.Duration

	hostSplit := 0.6 // fraction of host overhead paid before submission
	for f := 0; f < frames; f++ {
		// Pick the thread that frees up first.
		ti := 0
		for i := 1; i < len(threadFree); i++ {
			if threadFree[i] < threadFree[ti] {
				ti = i
			}
		}
		host := float64(r.HostOverhead)
		if rng != nil {
			host *= 1 + r.HostJitter*(rng.Float64()*2-1)
		}
		pre := time.Duration(host * hostSplit)
		post := time.Duration(host * (1 - hostSplit))

		ready := threadFree[ti] + pre
		// Earliest-free core.
		ci := 0
		for c := 1; c < len(coreFree); c++ {
			if coreFree[c] < coreFree[ci] {
				ci = c
			}
		}
		start := ready
		if coreFree[ci] > start {
			start = coreFree[ci]
		}
		finish := start + ft.Latency
		coreFree[ci] = finish
		coreBusy += ft.Latency
		preStart := threadFree[ti]
		threadFree[ti] = finish + post
		if threadFree[ti] > end {
			end = threadFree[ti]
		}
		if record != nil {
			record(jobTiming{
				Frame: f, Thread: ti, Core: ci,
				PreStart: preStart, ExecStart: start,
				ExecFinish: finish, PostFinish: threadFree[ti],
			})
		}
	}

	busyFrac := 0.0
	if end > 0 {
		busyFrac = float64(coreBusy) / float64(end) / float64(r.Device.Cfg.Cores)
		if busyFrac > 1 {
			busyFrac = 1
		}
	}
	// Board power: static + threads + per-core draw weighted by busy time.
	watts := r.Device.Cfg.StaticWatts + float64(r.Threads)*r.Device.Cfg.ThreadWatts +
		busyFrac*float64(r.Device.Cfg.Cores)*(r.Device.Cfg.CoreBaseWatts+r.Device.Cfg.CoreActiveWatts*ft.Utilization)
	return Result{
		Report: energy.Report{
			Frames:   frames,
			Duration: end,
			Joules:   watts * end.Seconds(),
		},
		FrameLatency: ft.Latency,
		CoreBusyFrac: busyFrac,
		Utilization:  ft.Utilization,
	}, nil
}

// SweepThreads evaluates throughput and efficiency for each thread count —
// the experiment behind Figure 3's FPGA series and the ≥8-threads
// observation of Section IV-B. The receiver is never mutated: the sweep
// runs on a private copy, so a Runner shared by concurrent callers keeps
// pricing their runs while a sweep is in progress.
func (r *Runner) SweepThreads(threadCounts []int, frames int, seed int64) ([]Result, error) {
	out := make([]Result, len(threadCounts))
	rc := *r // Device, Program and the frame timing are read-only and safely shared
	for i, t := range threadCounts {
		rc.Threads = t
		res, err := rc.SimulateThroughput(frames, seed)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}
