// Package vart is the runtime layer of the SENECA deployment — the analog
// of the Vitis AI Runtime (paper Section III-E): it submits inference jobs
// asynchronously from N host threads to the dual-core DPU and collects the
// results, overlapping host-side pre/post-processing with accelerator
// execution.
//
// Functional execution is genuinely concurrent (goroutines and channels,
// bit-accurate INT8 masks); timing comes from a discrete-event simulation
// over the DPU device model, which reproduces the paper's thread-scaling
// behaviour: throughput grows up to 4 threads, then saturates while power
// keeps rising (Section IV-B).
package vart

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"seneca/internal/dpu"
	"seneca/internal/energy"
	"seneca/internal/fault"
	"seneca/internal/obs"
	"seneca/internal/quant"
	"seneca/internal/tensor"
	"seneca/internal/xmodel"
)

// Runner drives one compiled program on one device with a fixed thread
// count.
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
	}
}

// Result reports a simulated (or combined functional+simulated) run.
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
	ft := r.Device.TimeFrame(r.Program)
	rng := rand.New(rand.NewSource(seed))

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
		if seed != 0 && r.HostJitter > 0 {
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

// Run executes the images functionally (bit-accurate INT8 masks,
// order-preserving) and returns the masks together with the simulated timing
// for the same workload. Frames fan out over quant.ForFrames: up to Threads
// workers, never more than the host has cores, each frame on an executor of
// its own from the program graph's free list. The INT8 kernels' inner
// parallel loops degrade to serial under this outer parallelism via
// internal/par's worker budget, so the submission threads never oversubscribe
// the host cores. (Threads above the core count still shape the simulated
// timing; they just do not buy host goroutines.)
func (r *Runner) Run(images []*tensor.Tensor, seed int64) ([][]uint8, Result, error) {
	if r.Threads < 1 {
		return nil, Result{}, ErrNoThreads
	}
	// Chaos seams: "vart.run.stall" models a hung runtime (the batch
	// blocks here past any serving-tier watchdog), "vart.run.error" a
	// runtime that dies mid-batch. Both are no-ops unless a fault program
	// armed them (one atomic load).
	if err := fault.Check("vart.run.stall"); err != nil {
		return nil, Result{}, err
	}
	if err := fault.Check("vart.run.error"); err != nil {
		return nil, Result{}, err
	}
	masks := make([][]uint8, len(images))
	err := quant.ForFrames(len(images), r.Threads, func(i int) (err error) {
		masks[i], err = r.Device.Execute(r.Program, images[i])
		return err
	})
	if err != nil {
		return nil, Result{}, fmt.Errorf("vart: %w", err)
	}
	res, err := r.SimulateThroughput(len(images), seed)
	if err != nil {
		return nil, Result{}, err
	}
	return masks, res, nil
}

// SweepThreads evaluates throughput and efficiency for each thread count —
// the experiment behind Figure 3's FPGA series and the ≥8-threads
// observation of Section IV-B. The receiver is never mutated: the sweep
// runs on a private copy, so a Runner shared by concurrent server workers
// can keep executing while a sweep is in progress.
func (r *Runner) SweepThreads(threadCounts []int, frames int, seed int64) ([]Result, error) {
	out := make([]Result, len(threadCounts))
	rc := *r // Device and Program are read-only and safely shared
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
