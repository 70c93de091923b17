// Package gpusim models the paper's GPU baseline: FP32 U-Net inference with
// TensorFlow 2 on an NVIDIA GeForce RTX 2060 Mobile (Section IV-A). Like
// the DPU model it is a first-order roofline: each layer costs
// max(FLOPs/effective-throughput, bytes/effective-bandwidth) plus a kernel
// launch overhead, and each frame pays a host-side overhead for the
// single-image Python/TF2 inference loop the paper measures. Power under
// load is essentially flat (~78 W across all five models in Table IV), so
// the power model is a constant load draw.
package gpusim

import (
	"time"

	"seneca/internal/energy"
	"seneca/internal/graph"
	"seneca/internal/xmodel"
)

// Config describes the GPU device and software stack.
type Config struct {
	Name string
	// EffFLOPS is the sustained FP32 throughput for these layer shapes
	// (well below peak for batch-1 convolutions).
	EffFLOPS float64
	// EffMemBW is the sustained DRAM bandwidth in bytes/s.
	EffMemBW float64
	// KernelOverhead is the per-kernel launch latency.
	KernelOverhead time.Duration
	// KernelsPerOp is the average number of CUDA kernels launched per graph
	// op (TF2 emits separate kernels for bias, activation fusion misses…).
	KernelsPerOp float64
	// HostPerFrame is the per-frame host-side cost of the single-image
	// inference loop (feed, fetch, Python dispatch).
	HostPerFrame time.Duration
	// LoadWatts / IdleWatts are the board draws under load and idle.
	LoadWatts, IdleWatts float64
}

// RTX2060Mobile returns the paper's GPU baseline configuration.
func RTX2060Mobile() Config {
	return Config{
		Name:           "NVIDIA GeForce RTX 2060 Mobile (TF2, FP32, batch 1)",
		EffFLOPS:       0.51e12,
		EffMemBW:       160e9,
		KernelOverhead: 20 * time.Microsecond,
		KernelsPerOp:   1.0,
		HostPerFrame:   8900 * time.Microsecond,
		LoadWatts:      78.0,
		IdleWatts:      12.0,
	}
}

// Device is a simulated GPU.
type Device struct {
	Cfg Config
}

// New constructs a device.
func New(cfg Config) *Device { return &Device{Cfg: cfg} }

// FrameLatency models one FP32 inference of the graph.
func (d *Device) FrameLatency(g *graph.Graph) time.Duration {
	var total time.Duration
	ops := 0
	for _, n := range g.Nodes {
		var flops float64
		var bytes float64
		// OutShape is CHW, so outElems counts all output values.
		outElems := float64(n.OutShape[0]) * float64(n.OutShape[1]) * float64(n.OutShape[2])
		switch n.Kind {
		case graph.KindInput:
			continue
		case graph.KindConv:
			inElems := float64(n.InC) * float64(n.OutShape[1]*n.Stride) * float64(n.OutShape[2]*n.Stride)
			flops = 2 * outElems * float64(n.InC) * float64(n.Kernel*n.Kernel)
			bytes = 4 * (inElems + outElems + float64(n.Weight.Len()))
		case graph.KindConvTranspose:
			inSpatial := float64(n.OutShape[1]/n.Stride) * float64(n.OutShape[2]/n.Stride)
			flops = 2 * inSpatial * float64(n.InC) * float64(n.OutC) * float64(n.Kernel*n.Kernel)
			bytes = 4 * (inSpatial*float64(n.InC) + outElems + float64(n.Weight.Len()))
		default:
			// Elementwise / pooling / concat / softmax: memory bound.
			bytes = 4 * 2 * outElems
		}
		compute := time.Duration(flops / d.Cfg.EffFLOPS * float64(time.Second))
		mem := time.Duration(bytes / d.Cfg.EffMemBW * float64(time.Second))
		layer := compute
		if mem > layer {
			layer = mem
		}
		total += layer
		ops++
	}
	total += time.Duration(float64(ops) * d.Cfg.KernelsPerOp * float64(d.Cfg.KernelOverhead))
	total += d.Cfg.HostPerFrame
	return total
}

// TimeProgram models one FP32 inference of a compiled program's instruction
// stream — the same network the DPU runs, re-exported to the GPU's FP32
// stack. It is FrameLatency's roofline priced from the xmodel workload
// descriptors (xmodel.Program.Roofline with FP32's 4-byte elements) plus the
// same launch and host overheads, so the serving tier's GPU backend can cost
// a batch from the deployed artifact without retaining the FP32 graph.
func (d *Device) TimeProgram(p *xmodel.Program) time.Duration {
	total, kernels := p.Roofline(d.Cfg.EffFLOPS, d.Cfg.EffMemBW, 4)
	total += time.Duration(float64(kernels) * d.Cfg.KernelsPerOp * float64(d.Cfg.KernelOverhead))
	return total + d.Cfg.HostPerFrame
}

// FrameJitter is the GPU's relative frame-to-frame time noise (thermals,
// scheduler): ±0.7 %.
const FrameJitter = 0.007

// RunResult is a measured throughput run.
type RunResult struct {
	energy.Report
}

// SimulateRun models a sequential inference run of the given frame count
// and returns the throughput/power/efficiency report: a steady run of
// FrameLatency at the load draw. jitterSeed adds the small run-to-run
// variation real measurements show (the µ±σ of ten runs in Table IV); pass 0
// for a deterministic run.
func (d *Device) SimulateRun(g *graph.Graph, frames int, jitterSeed int64) RunResult {
	return RunResult{Report: energy.Steady(frames, d.FrameLatency(g), d.Cfg.LoadWatts, FrameJitter, jitterSeed)}
}
