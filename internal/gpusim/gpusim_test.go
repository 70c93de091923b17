package gpusim

import (
	"testing"
	"time"

	"seneca/internal/unet"
)

func TestFrameLatencyGrowsWithModel(t *testing.T) {
	dev := New(RTX2060Mobile())
	small := unet.New(unet.Config{Name: "s", Depth: 2, BaseFilters: 4, InChannels: 1, NumClasses: 6, Seed: 1}).Export(64, 64)
	big := unet.New(unet.Config{Name: "b", Depth: 2, BaseFilters: 32, InChannels: 1, NumClasses: 6, Seed: 1}).Export(64, 64)
	if dev.FrameLatency(big) <= dev.FrameLatency(small) {
		t.Fatal("bigger model must be slower")
	}
}

func TestSimulateRunPower(t *testing.T) {
	dev := New(RTX2060Mobile())
	g := unet.New(unet.Config{Name: "s", Depth: 2, BaseFilters: 4, InChannels: 1, NumClasses: 6, Seed: 1}).Export(64, 64)
	r := dev.SimulateRun(g, 100, 0)
	if r.Frames != 100 {
		t.Fatalf("frames %d", r.Frames)
	}
	if w := r.Watts(); w < 77.9 || w > 78.1 {
		t.Fatalf("GPU load power %v, want ≈78 W (Table IV)", w)
	}
	if r.FPS() <= 0 {
		t.Fatal("no throughput")
	}
}

func TestJitterChangesRunsButNotMuch(t *testing.T) {
	dev := New(RTX2060Mobile())
	g := unet.New(unet.Config{Name: "s", Depth: 2, BaseFilters: 4, InChannels: 1, NumClasses: 6, Seed: 1}).Export(64, 64)
	a := dev.SimulateRun(g, 50, 1)
	b := dev.SimulateRun(g, 50, 2)
	det := dev.SimulateRun(g, 50, 0)
	if a.FPS() == b.FPS() {
		t.Fatal("different seeds should produce slightly different runs")
	}
	for _, r := range []RunResult{a, b} {
		rel := (r.FPS() - det.FPS()) / det.FPS()
		if rel < -0.02 || rel > 0.02 {
			t.Fatalf("jitter moved FPS by %.1f%%, want <2%%", rel*100)
		}
	}
}

// TestTableIVGPUShape locks the calibrated GPU model against the paper's
// FP32 column of Table IV (within ±10%), including the 2M > 1M inversion.
func TestTableIVGPUShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution models")
	}
	dev := New(RTX2060Mobile())
	paper := map[string]float64{"1M": 72.20, "2M": 77.45, "4M": 65.90, "8M": 52.22, "16M": 37.23}
	got := map[string]float64{}
	for _, cfg := range unet.TableII() {
		g := unet.New(cfg).Export(256, 256)
		got[cfg.Name] = dev.SimulateRun(g, 50, 0).FPS()
	}
	for name, want := range paper {
		rel := (got[name] - want) / want
		if rel < -0.10 || rel > 0.10 {
			t.Errorf("%s: modeled %0.1f FPS vs paper %0.1f (%+.0f%%)", name, got[name], want, rel*100)
		}
	}
	if !(got["2M"] > got["1M"] && got["1M"] > got["4M"] && got["4M"] > got["8M"] && got["8M"] > got["16M"]) {
		t.Errorf("GPU FPS ordering violated: %v", got)
	}
}

// TestSimulateRunReportsUnchanged pins SimulateRun's report — a steady run of
// FrameLatency through energy.Steady — at seeds 0, 1 and 2 to the values the
// GPU baseline has always produced: the jitter draws, their order and the
// per-frame energy sum all stay as they were.
func TestSimulateRunReportsUnchanged(t *testing.T) {
	dev := New(RTX2060Mobile())
	g := unet.New(unet.Config{Name: "s", Depth: 2, BaseFilters: 4, InChannels: 1, NumClasses: 6, Seed: 1}).Export(64, 64)
	for _, want := range []struct {
		seed     int64
		duration time.Duration
		joules   float64
	}{
		{0, 489282650, 38.16404670000003},
		{1, 488853647, 38.130584465999995},
		{2, 488980080, 38.140446239999996},
	} {
		r := dev.SimulateRun(g, 50, want.seed)
		if r.Frames != 50 || r.Duration != want.duration || r.Joules != want.joules {
			t.Errorf("seed %d: %d frames, %d ns, %v J; want 50, %d ns, %v J",
				want.seed, r.Frames, r.Duration, r.Joules, want.duration, want.joules)
		}
	}
}
