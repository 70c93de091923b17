package backend

import (
	"errors"
	"time"

	"seneca/internal/dpu"
	"seneca/internal/energy"
	"seneca/internal/gpusim"
	"seneca/internal/vart"
	"seneca/internal/xmodel"
)

// The built-in kinds. Each factory supplies only its price; the frame is
// the same INT8 graph on every kind.
const (
	// KindDPUSim is the simulated dual-core DPUCZDX8G deployment — the
	// paper's own substrate and the pool's reference executor, priced by the
	// VART runtime's discrete-event model, which reproduces the paper's
	// thread-scaling behaviour (Section IV-B).
	KindDPUSim = "dpu-sim"
	// KindCPUInt8 is the host-CPU INT8 deployment: the quantized network
	// executed by vectorized integer kernels on a general-purpose edge
	// server — the CPU column of the aerial-U-Net comparison.
	KindCPUInt8 = "cpu-int8"
	// KindGPUSim is the simulated GPU deployment: the paper's FP32 TF2
	// baseline on an RTX 2060 Mobile, running the batch-1 inference loop of
	// Section IV-A. It pays the GPU roofline, per-kernel launch overheads and
	// the host-side single-image loop (gpusim.TimeProgram), frame after
	// frame, at the ~78 W the paper measures under load.
	KindGPUSim = "gpu-sim"
)

// The cpu-int8 node: an 8-core x86 edge server running the INT8 network with
// AVX2 integer kernels. A frame is the instruction-stream roofline at INT8
// byte counts (the CPU runs the same quantized artifact) plus a fixed host
// cost; frames run back to back (the kernels already use every core inside
// one frame) at a constant draw under sustained vector load.
const (
	cpuOpsPerSec = 160e9                  // sustained INT8 ops/s across all cores
	cpuMemBW     = 20e9                   // sustained bytes/s
	cpuFrameHost = 800 * time.Microsecond // input scaling, setup, argmax write-back
	cpuWatts     = 38.0                   // package + DRAM under sustained vector load
	cpuJitter    = 0.01                   // ±1 % frame-to-frame noise
)

func init() {
	Register(KindDPUSim, func(dev *dpu.Device, prog *xmodel.Program, opt Options) (Backend, error) {
		if dev == nil {
			return nil, errors.New("backend: dpu-sim needs a device")
		}
		r := vart.New(dev, prog, opt.Threads)
		return &priced{KindDPUSim, prog.Graph, opt.Threads, func(frames int, seed int64) (energy.Report, error) {
			res, err := r.SimulateThroughput(frames, seed)
			return res.Report, err
		}}, nil
	})
	Register(KindCPUInt8, func(_ *dpu.Device, prog *xmodel.Program, opt Options) (Backend, error) {
		frame, _ := prog.Roofline(cpuOpsPerSec, cpuMemBW, 1)
		return steady(KindCPUInt8, prog, opt, frame+cpuFrameHost, cpuWatts, cpuJitter), nil
	})
	Register(KindGPUSim, func(_ *dpu.Device, prog *xmodel.Program, opt Options) (Backend, error) {
		gpu := gpusim.New(gpusim.RTX2060Mobile())
		return steady(KindGPUSim, prog, opt, gpu.TimeProgram(prog), gpu.Cfg.LoadWatts, gpusim.FrameJitter), nil
	})
}

// steady builds a kind priced as a steady run of one frame time at constant
// watts (energy.Steady): no batching, so n frames cost n frame times.
func steady(kind string, prog *xmodel.Program, opt Options, frame time.Duration, watts, jitter float64) Backend {
	return &priced{kind, prog.Graph, opt.Threads, func(frames int, seed int64) (energy.Report, error) {
		return energy.Steady(frames, frame, watts, jitter, seed), nil
	}}
}
