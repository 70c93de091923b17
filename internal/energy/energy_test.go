package energy

import (
	"math"
	"testing"
	"time"
)

func TestReportEquivalence(t *testing.T) {
	// EE = FPS/W must equal frames/J exactly (Eq. 3).
	r := Report{Frames: 500, Duration: 2 * time.Second, Joules: 100}
	fps := r.FPS()     // 250
	watts := r.Watts() // 50
	if fps != 250 || watts != 50 {
		t.Fatalf("FPS/W = %v/%v", fps, watts)
	}
	if ee := r.EnergyEfficiency(); math.Abs(ee-fps/watts) > 1e-12 || ee != 5 {
		t.Fatalf("EE = %v", ee)
	}
}

func TestReportZeroSafety(t *testing.T) {
	var r Report
	if r.FPS() != 0 || r.Watts() != 0 || r.EnergyEfficiency() != 0 {
		t.Fatal("zero report must not divide by zero")
	}
}

func TestReportAdd(t *testing.T) {
	a := Report{Frames: 3, Duration: time.Second, Joules: 20}
	b := Report{Frames: 5, Duration: 3 * time.Second, Joules: 60}
	if got := a.Add(b); got != (Report{Frames: 8, Duration: 4 * time.Second, Joules: 80}) || got.EnergyEfficiency() != 0.1 {
		t.Fatalf("Add = %+v", got)
	}
	if got := (Report{}).Add(a); got != a {
		t.Fatalf("zero + a = %+v, want %+v", got, a)
	}
}

func TestReportString(t *testing.T) {
	r := Report{Frames: 100, Duration: time.Second, Joules: 50}
	if got := r.String(); got != "100.0 FPS, 50.00 W, 2.00 FPS/W" {
		t.Fatalf("String = %q", got)
	}
}

func TestSteady(t *testing.T) {
	// Seed 0: exactly frames × perFrame, energy summed frame by frame.
	r := Steady(4, 250*time.Millisecond, 20, 0.5, 0)
	if r != (Report{Frames: 4, Duration: time.Second, Joules: 20}) {
		t.Fatalf("Steady at seed 0 = %+v", r)
	}
	// A nonzero seed jitters every frame within ±rel, reproducibly.
	a, b := Steady(100, time.Millisecond, 10, 0.01, 7), Steady(100, time.Millisecond, 10, 0.01, 7)
	if a != b {
		t.Fatalf("same seed, different runs: %+v vs %+v", a, b)
	}
	if a.Duration == 100*time.Millisecond || a.Duration < 99*time.Millisecond || a.Duration > 101*time.Millisecond {
		t.Fatalf("jittered run %v, want within ±1%% of 100ms and not exactly it", a.Duration)
	}
	if got := Steady(3, time.Second, 5, 0, 7); got != (Report{Frames: 3, Duration: 3 * time.Second, Joules: 15}) {
		t.Fatalf("rel 0 must not jitter: %+v", got)
	}
}
