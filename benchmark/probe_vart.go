package main

// Probe surface — vart and dpu:
//
//	dpu.New, dpu.ZCU104B4096, (*dpu.Device).TimeFrame → dpu.FrameTiming.Latency
//	vart.New, (*vart.Runner).SimulateThroughput → vart.Result (energy.Report:
//	.FPS, .Watts, .EnergyEfficiency)

import (
	"time"

	"seneca/internal/dpu"
	"seneca/internal/vart"
)

// simFrames is the paper's evaluation length: FPS and W over 2000 frames.
const simFrames = 2000

// simValues are the simulated-board numbers of a model — the paper's own
// metrics. They come from the device model alone, so they must repeat
// exactly on every host and every run.
type simValues struct {
	FPS        float64 `json:"vart.sim_fps"`
	Watts      float64 `json:"vart.sim_watts"`
	FPSPerWatt float64 `json:"vart.sim_fps_per_watt"`
	FrameUS    float64 `json:"dpu.sim_frame_us"`
}

// probeVART reads the simulated deployment figures (values named sim_) and
// times what the host pays to compute them (values not so named).
func probeVART(wk *walk, m *model) (simValues, error) {
	dev := dpu.New(dpu.ZCU104B4096())
	runner := vart.New(dev, m.prog, 4)
	var res vart.Result
	if err := wk.sampleEach(timing{"vart.host_us_per_sim_frame", simFrames, func() error {
		var err error
		res, err = runner.SimulateThroughput(simFrames, 0)
		return err
	}}); err != nil {
		return simValues{}, err
	}
	const frameReps = 1000
	var ft dpu.FrameTiming
	if err := wk.sampleEach(timing{"dpu.time_frame_ns", frameReps, func() error {
		for range frameReps {
			ft = dev.TimeFrame(m.prog)
		}
		return nil
	}}); err != nil {
		return simValues{}, err
	}
	sim := simValues{
		FPS:        res.FPS(),
		Watts:      res.Watts(),
		FPSPerWatt: res.EnergyEfficiency(),
		FrameUS:    float64(ft.Latency) / float64(time.Microsecond),
	}
	wk.set("vart.sim_fps", sim.FPS)
	wk.set("vart.sim_watts", sim.Watts)
	wk.set("vart.sim_fps_per_watt", sim.FPSPerWatt)
	wk.set("dpu.sim_frame_us", sim.FrameUS)
	return sim, nil
}
