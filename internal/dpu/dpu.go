// Package dpu simulates the Xilinx DPUCZDX8G-B4096 soft-DSA on the ZCU104
// (paper Section III-E and Figure 2): a dual-core INT8 convolution engine
// with pixel/input-channel/output-channel parallelism 8×16×16 = 4096
// operations per cycle per core.
//
// This package is the device's temporal half: each instruction's latency
// comes from a first-order microarchitectural model — compute cycles from
// tiling occupancy of the 8×16×16 array, memory cycles from DDR traffic,
// plus a fixed issue overhead — and board power follows array utilization.
// The functional half is the program's own INT8 graph (internal/quant via
// xmodel.Program.Run), executed bit-accurately, so accuracy results are real
// measurements; the runtime that schedules frames onto the cores is
// internal/vart.
//
// The constants below are the published device parameters (cores, clock,
// array geometry) plus two effective-efficiency knobs (memory
// bytes-per-cycle, per-instruction overhead) calibrated once against paper
// Table IV and held fixed for every experiment (DESIGN.md §4.3).
package dpu

import (
	"time"

	"seneca/internal/quant"
	"seneca/internal/xmodel"
)

// Config describes a DPU device instance.
type Config struct {
	// Name identifies the configuration in reports.
	Name string
	// Cores is the number of DPU cores on the fabric (ZCU104 default: 2).
	Cores int
	// ClockHz is the DSP array clock.
	ClockHz float64
	// PixelPar, InChPar, OutChPar are the three parallelism degrees whose
	// product gives peak ops/cycle (2 ops per MAC).
	PixelPar, InChPar, OutChPar int
	// FMBytesPerCycle is the effective per-core DDR bandwidth for
	// feature-map traffic, in bytes per DPU cycle (burst-friendly).
	FMBytesPerCycle float64
	// WeightBytesPerCycle is the effective bandwidth for weight streaming;
	// much lower than feature maps because the on-chip weight buffer forces
	// re-fetches across output tiles.
	WeightBytesPerCycle float64
	// MisalignPenalty multiplies compute cycles of layers whose channel
	// counts are not multiples of the 8-channel vector granularity; the
	// array cannot fill its channel lanes on such layers. This single
	// mechanism reproduces Table IV's anomalies (the 6-filter 2M and the
	// 11-filter 8M models underperform their parameter counts).
	MisalignPenalty float64
	// InstrOverheadCycles is the fixed per-instruction issue/fetch cost.
	InstrOverheadCycles int64
	// StaticWatts is the board power with the fabric configured but idle
	// (PS + PL static + DDR).
	StaticWatts float64
	// CoreActiveWatts is the additional draw of a core executing at full
	// array utilization; actual draw scales with utilization.
	CoreActiveWatts float64
	// CoreBaseWatts is the additional draw of a core merely busy (clock
	// gating removed), independent of utilization.
	CoreBaseWatts float64
	// ThreadWatts is the host-side (ARM) power per active runtime thread.
	ThreadWatts float64
}

// ZCU104B4096 returns the paper's default deployment: the dual-core
// DPUCZDX8G-B4096 at 300 MHz on the ZCU104 evaluation board.
func ZCU104B4096() Config {
	return Config{
		Name:                "DPUCZDX8G-B4096 ×2 @ ZCU104",
		Cores:               2,
		ClockHz:             300e6,
		PixelPar:            8,
		InChPar:             16,
		OutChPar:            16,
		FMBytesPerCycle:     24.0,
		WeightBytesPerCycle: 4.0,
		MisalignPenalty:     2.0,
		InstrOverheadCycles: 4000,
		StaticWatts:         19.0,
		CoreActiveWatts:     14.0,
		CoreBaseWatts:       0.6,
		ThreadWatts:         0.35,
	}
}

// Family returns the whole DPUCZDX8G configuration family (B512…B4096) on
// the ZCU104, each with its published pixel/input-channel/output-channel
// parallelism. Dynamic power scales with the DSP array size. Used by the
// architecture design-space exploration in internal/experiments.
func Family() []Config {
	base := ZCU104B4096()
	mk := func(name string, pp, icp, ocp int) Config {
		c := base
		c.Name = name + " ×2 @ ZCU104"
		c.PixelPar, c.InChPar, c.OutChPar = pp, icp, ocp
		// Dynamic power ∝ MAC array size relative to the B4096.
		frac := float64(2*pp*icp*ocp) / 4096
		c.CoreActiveWatts = base.CoreActiveWatts * frac
		c.CoreBaseWatts = base.CoreBaseWatts * (0.4 + 0.6*frac)
		return c
	}
	return []Config{
		mk("DPUCZDX8G-B512", 4, 8, 8),
		mk("DPUCZDX8G-B800", 4, 10, 10),
		mk("DPUCZDX8G-B1024", 8, 8, 8),
		mk("DPUCZDX8G-B1152", 4, 12, 12),
		mk("DPUCZDX8G-B1600", 8, 10, 10),
		mk("DPUCZDX8G-B2304", 8, 12, 12),
		mk("DPUCZDX8G-B3136", 8, 14, 14),
		mk("DPUCZDX8G-B4096", 8, 16, 16),
	}
}

// Device is a simulated DPU.
type Device struct {
	Cfg Config
}

// New constructs a device.
func New(cfg Config) *Device { return &Device{Cfg: cfg} }

// PeakOpsPerCycle returns the array's peak (4096 for the B4096).
func (c Config) PeakOpsPerCycle() int { return 2 * c.PixelPar * c.InChPar * c.OutChPar }

// InstrTiming is the temporal cost of one instruction on one core.
type InstrTiming struct {
	ComputeCycles int64
	MemCycles     int64
	Cycles        int64 // max(compute, mem) + overhead
	// Utilization is actual MACs / (Cycles · array MACs-per-cycle); thin
	// layers under-fill the 8×16×16 tile grid and score low.
	Utilization float64
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// fp32CyclePenalty is the compute-cycle multiplier for FP32-fallback layers:
// they bypass the INT8 MAC array and run on the scalar/host datapath, which
// sustains roughly an eighth of the array's throughput on these shapes.
const fp32CyclePenalty = 8

// misaligned reports whether a convolution's channel counts break the
// 8-channel vector granularity (a 1-channel input image is handled by a
// dedicated first-layer path and does not count).
func misaligned(inC, outC int) bool {
	inBad := inC%8 != 0 && inC != 1
	return inBad || outC%8 != 0
}

// TimeInstruction models one instruction's latency on one core.
func (d *Device) TimeInstruction(in xmodel.Instruction) InstrTiming {
	cfg := d.Cfg
	var t InstrTiming
	switch in.Op {
	case xmodel.OpConv, xmodel.OpDConv:
		// Tiled execution: the array processes PixelPar pixels ×
		// InChPar input channels × OutChPar output channels per cycle;
		// partial tiles occupy a full slot.
		pixels := int64(in.OutH) * int64(in.OutW)
		if in.Op == xmodel.OpDConv {
			// Transpose conv iterates input pixels.
			pixels = pixels / int64(in.Stride*in.Stride)
			if pixels < 1 {
				pixels = 1
			}
		}
		kk := int64(in.Kernel * in.Kernel)
		t.ComputeCycles = ceilDiv(pixels, int64(cfg.PixelPar)) *
			ceilDiv(int64(in.InC), int64(cfg.InChPar)) *
			ceilDiv(int64(in.OutC), int64(cfg.OutChPar)) * kk
		if misaligned(in.InC, in.OutC) {
			t.ComputeCycles = int64(float64(t.ComputeCycles) * cfg.MisalignPenalty)
		}
		// Precision scaling (mixed-precision programs, internal/mpq): INT4
		// layers pack two MACs per DSP slot, doubling the array's effective
		// rate; FP32-fallback layers leave the INT8 array for the scalar
		// datapath at a heavy penalty. Byte counts are already scaled at
		// lowering.
		switch in.Bits {
		case quant.Bits4:
			t.ComputeCycles = ceilDiv(t.ComputeCycles, 2)
		case quant.BitsFP32:
			t.ComputeCycles *= fp32CyclePenalty
		}
		t.MemCycles = int64(float64(in.InBytes+in.OutBytes)/cfg.FMBytesPerCycle +
			float64(in.WeightBytes)/cfg.WeightBytesPerCycle)
	case xmodel.OpPool, xmodel.OpConcat, xmodel.OpSave, xmodel.OpLoad:
		// Data-movement ops: bandwidth bound.
		t.MemCycles = int64(float64(in.InBytes+in.OutBytes) / cfg.FMBytesPerCycle)
	}
	// Load/compute/save pipeline poorly at batch 1 for these layer shapes
	// (each instruction waits on its weights and flushes its output), so
	// compute and memory phases are additive rather than overlapped.
	t.Cycles = t.ComputeCycles + t.MemCycles + cfg.InstrOverheadCycles
	if t.Cycles > 0 {
		macsPerCycle := float64(cfg.PeakOpsPerCycle()) / 2
		t.Utilization = float64(in.MACs) / (float64(t.Cycles) * macsPerCycle)
		if t.Utilization > 1 {
			t.Utilization = 1
		}
	}
	return t
}

// FrameTiming aggregates a whole program's single-frame cost on one core.
type FrameTiming struct {
	Cycles      int64
	Latency     time.Duration
	Utilization float64 // MAC-weighted mean array utilization
}

// TimeFrame models one inference latency on one core.
func (d *Device) TimeFrame(p *xmodel.Program) FrameTiming {
	var ft FrameTiming
	var macs int64
	for _, in := range p.Instructions {
		t := d.TimeInstruction(in)
		ft.Cycles += t.Cycles
		macs += in.MACs
	}
	macsPerCycle := float64(d.Cfg.PeakOpsPerCycle()) / 2
	if ft.Cycles > 0 {
		ft.Utilization = float64(macs) / (float64(ft.Cycles) * macsPerCycle)
		if ft.Utilization > 1 {
			ft.Utilization = 1
		}
	}
	ft.Latency = d.CyclesToDuration(ft.Cycles)
	return ft
}

// CyclesToDuration converts DPU cycles to simulated time.
func (d *Device) CyclesToDuration(cycles int64) time.Duration {
	return time.Duration(float64(cycles) / d.Cfg.ClockHz * float64(time.Second))
}

// Power returns instantaneous board power with the given number of busy
// cores (each at the given mean array utilization) and active host threads.
func (d *Device) Power(busyCores int, util float64, threads int) float64 {
	if busyCores > d.Cfg.Cores {
		busyCores = d.Cfg.Cores
	}
	p := d.Cfg.StaticWatts + float64(threads)*d.Cfg.ThreadWatts
	p += float64(busyCores) * (d.Cfg.CoreBaseWatts + d.Cfg.CoreActiveWatts*util)
	return p
}
