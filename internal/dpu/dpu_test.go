package dpu

import (
	"testing"

	"seneca/internal/quant"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

func testProgram(t *testing.T, cfg unet.Config, size int) *xmodel.Program {
	t.Helper()
	m := unet.New(cfg)
	g := m.Export(size, size)
	q, err := quant.QuantizeShapeOnly(g)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := xmodel.Compile(q, cfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func tinyCfg() unet.Config {
	return unet.Config{Name: "tiny", Depth: 2, BaseFilters: 8, InChannels: 1, NumClasses: 6, DropoutRate: 0, Seed: 1}
}

func TestPeakOpsPerCycle(t *testing.T) {
	cfg := ZCU104B4096()
	if got := cfg.PeakOpsPerCycle(); got != 4096 {
		t.Fatalf("B4096 peak = %d ops/cycle, want 4096", got)
	}
	if cfg.Cores != 2 {
		t.Fatalf("ZCU104 default has %d cores, want 2 (dual-core DPUCZDX8G)", cfg.Cores)
	}
}

func TestInstrTimingPositiveAndBounded(t *testing.T) {
	dev := New(ZCU104B4096())
	prog := testProgram(t, tinyCfg(), 32)
	for _, in := range prog.Instructions {
		tm := dev.TimeInstruction(in)
		if tm.Cycles <= 0 {
			t.Fatalf("instruction %s %q has %d cycles", in.Op, in.Node, tm.Cycles)
		}
		if tm.Utilization < 0 || tm.Utilization > 1 {
			t.Fatalf("utilization %v out of range", tm.Utilization)
		}
		if tm.Cycles < tm.ComputeCycles || tm.Cycles < tm.MemCycles {
			t.Fatalf("total cycles below component")
		}
	}
}

func TestMisalignedChannelsCostMore(t *testing.T) {
	dev := New(ZCU104B4096())
	mk := func(inC, outC int) xmodel.Instruction {
		return xmodel.Instruction{
			Op: xmodel.OpConv, MACs: int64(64 * 64 * inC * outC * 9),
			InC: inC, OutC: outC, OutH: 64, OutW: 64, Kernel: 3, Stride: 1,
		}
	}
	aligned := dev.TimeInstruction(mk(8, 8))
	odd := dev.TimeInstruction(mk(6, 6))
	if odd.ComputeCycles <= aligned.ComputeCycles {
		t.Fatalf("6-channel conv (%d cycles) should cost more than 8-channel (%d)",
			odd.ComputeCycles, aligned.ComputeCycles)
	}
	// A 1-channel input image does not trigger the penalty.
	first := dev.TimeInstruction(mk(1, 8))
	if first.ComputeCycles != dev.TimeInstruction(mk(8, 8)).ComputeCycles {
		t.Fatal("first-layer 1-channel input should not be penalized")
	}
}

func TestLargerModelSlowerFrame(t *testing.T) {
	dev := New(ZCU104B4096())
	small := testProgram(t, tinyCfg(), 32)
	bigCfg := tinyCfg()
	bigCfg.BaseFilters = 32
	big := testProgram(t, bigCfg, 32)
	fs := dev.TimeFrame(small)
	fb := dev.TimeFrame(big)
	if fb.Latency <= fs.Latency {
		t.Fatalf("bigger model latency %v not above smaller %v", fb.Latency, fs.Latency)
	}
	// Bigger channel counts fill the array better.
	if fb.Utilization <= fs.Utilization {
		t.Fatalf("bigger model utilization %v not above smaller %v", fb.Utilization, fs.Utilization)
	}
}

func TestPowerModel(t *testing.T) {
	dev := New(ZCU104B4096())
	idle := dev.Power(0, 0, 0)
	if idle != dev.Cfg.StaticWatts {
		t.Fatalf("idle power %v", idle)
	}
	busy := dev.Power(2, 0.5, 4)
	if busy <= idle {
		t.Fatal("busy power must exceed idle")
	}
	// More threads draw more host power at equal core load (the ≥8-thread
	// effect of Section IV-B).
	if dev.Power(2, 0.5, 8) <= busy {
		t.Fatal("extra threads must add power")
	}
	// Clamps core count.
	if dev.Power(5, 1, 0) != dev.Power(2, 1, 0) {
		t.Fatal("busy cores not clamped to available cores")
	}
}

func TestCyclesToDuration(t *testing.T) {
	dev := New(ZCU104B4096())
	d := dev.CyclesToDuration(300e6)
	if d.Seconds() < 0.999 || d.Seconds() > 1.001 {
		t.Fatalf("300M cycles at 300MHz = %v, want 1s", d)
	}
}

// TestTableIVThroughputShape locks the calibrated model against the paper's
// Table IV: per-config FPS at 4 threads (2 cores saturated) within ±15% of
// the published values, preserving every ordering anomaly.
func TestTableIVThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution models")
	}
	dev := New(ZCU104B4096())
	paper := map[string]float64{"1M": 335.4, "2M": 254.87, "4M": 273.17, "8M": 127.91, "16M": 98.12}
	got := map[string]float64{}
	for _, cfg := range unet.TableII() {
		prog := testProgram(t, cfg, 256)
		ft := dev.TimeFrame(prog)
		// Saturated dual-core throughput.
		got[cfg.Name] = 2 / ft.Latency.Seconds()
	}
	for name, want := range paper {
		rel := (got[name] - want) / want
		if rel < -0.15 || rel > 0.15 {
			t.Errorf("%s: modeled %0.1f FPS vs paper %0.1f (%+.0f%%)", name, got[name], want, rel*100)
		}
	}
	// Orderings the paper's Table IV exhibits, including the anomalies.
	if !(got["1M"] > got["2M"] && got["4M"] > got["2M"] && got["4M"] > got["8M"] && got["8M"] > got["16M"]) {
		t.Errorf("Table IV FPS ordering violated: %v", got)
	}
}

// TestPrecisionTimingScaling pins the mixed-precision cycle model: relative
// to the same instruction at INT8, an INT4 layer must be faster (double MAC
// rate, halved traffic) and an FP32-fallback layer much slower (scalar
// path).
func TestPrecisionTimingScaling(t *testing.T) {
	d := New(ZCU104B4096())
	base := xmodel.Instruction{
		Op: xmodel.OpConv, Node: "c",
		MACs: 64 * 64 * 16 * 16 * 9, WeightBytes: 16 * 16 * 9, InBytes: 16 * 64 * 64, OutBytes: 16 * 64 * 64,
		InC: 16, OutC: 16, OutH: 64, OutW: 64, Kernel: 3, Stride: 1,
	}
	i8 := base
	i8.Bits = quant.Bits8
	i4 := base
	i4.Bits = quant.Bits4
	i4.WeightBytes = (base.WeightBytes + 1) / 2
	i4.OutBytes = (base.OutBytes + 1) / 2
	f32 := base
	f32.Bits = quant.BitsFP32
	f32.WeightBytes = 4 * base.WeightBytes

	t8, t4, tf := d.TimeInstruction(i8), d.TimeInstruction(i4), d.TimeInstruction(f32)
	if t4.ComputeCycles != (t8.ComputeCycles+1)/2 {
		t.Errorf("INT4 compute cycles %d, want half of %d", t4.ComputeCycles, t8.ComputeCycles)
	}
	if t4.Cycles >= t8.Cycles {
		t.Errorf("INT4 total cycles %d not below INT8's %d", t4.Cycles, t8.Cycles)
	}
	if tf.ComputeCycles != 8*t8.ComputeCycles {
		t.Errorf("FP32 compute cycles %d, want 8× %d", tf.ComputeCycles, t8.ComputeCycles)
	}
	if tf.Cycles <= t8.Cycles {
		t.Errorf("FP32 total cycles %d not above INT8's %d", tf.Cycles, t8.Cycles)
	}
	// The zero value (unset bits) must behave exactly like INT8 so every
	// pre-existing caller is untouched.
	unset := base
	if got := d.TimeInstruction(unset); got != t8 {
		t.Errorf("unset bits timing %+v differs from INT8 %+v", got, t8)
	}
}
