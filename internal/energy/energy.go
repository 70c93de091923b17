// Package energy measures simulated power and energy — the stand-in for the
// Voltcraft 4000 energy logger (FPGA board power) and nvidia-smi (GPU board
// power) used in the paper's Section IV-A1. Device simulators emit a
// piecewise-constant power trace over *simulated* time; Steady integrates
// it into Joules and Report gives the Energy Efficiency of Eq. (3),
// EE = FPS/Watt = frames/Joule.
package energy

import (
	"fmt"
	"math/rand"
	"time"
)

// Steady integrates a steady run — frames back to back, perFrame each, at
// constant watts — into a report. A nonzero seed perturbs every frame's time
// uniformly within ±rel, the frame-to-frame noise (thermals, scheduler)
// behind the µ±σ of repeated runs the paper's tables report; seed 0 is the
// deterministic run and draws nothing. It is the one steady-run model: the
// GPU baseline and the cpu-int8 and gpu-sim backends all price through it.
func Steady(frames int, perFrame time.Duration, watts, rel float64, seed int64) Report {
	var rng *rand.Rand
	if seed != 0 && rel > 0 {
		rng = rand.New(rand.NewSource(seed))
	}
	r := Report{Frames: frames}
	for i := 0; i < frames; i++ {
		f := perFrame
		if rng != nil {
			f = time.Duration(float64(perFrame) * (1 + rel*(rng.Float64()*2-1)))
		}
		r.Duration += f
		r.Joules += watts * f.Seconds()
	}
	return r
}

// Report is the throughput/power/efficiency triple the paper's tables use.
type Report struct {
	Frames   int
	Duration time.Duration
	Joules   float64
}

// FPS returns frames per (simulated) second.
func (r Report) FPS() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Frames) / r.Duration.Seconds()
}

// Watts returns the mean power draw.
func (r Report) Watts() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return r.Joules / r.Duration.Seconds()
}

// EnergyEfficiency returns Eq. (3): FPS/Watt ≡ frames/Joule.
func (r Report) EnergyEfficiency() float64 {
	if r.Joules <= 0 {
		return 0
	}
	return float64(r.Frames) / r.Joules
}

// Add returns the report of both workloads together: frames, simulated time
// and energy summed.
func (r Report) Add(o Report) Report {
	return Report{Frames: r.Frames + o.Frames, Duration: r.Duration + o.Duration, Joules: r.Joules + o.Joules}
}

// String renders the triple.
func (r Report) String() string {
	return fmt.Sprintf("%.1f FPS, %.2f W, %.2f FPS/W", r.FPS(), r.Watts(), r.EnergyEfficiency())
}
