package main

// Probe surface — backend:
//
//	backend.New, backend.Options{Threads}
//	backend.Backend.Execute, .Cost
//	backend.KindDPUSim, backend.KindCPUInt8, backend.KindGPUSim
//	dpu.New, dpu.ZCU104B4096
//	tensor.FromSlice

import (
	"seneca/internal/backend"
	"seneca/internal/dpu"
	"seneca/internal/tensor"
)

// probeBackend times each registered executor on one frame, the default
// executor on a full micro-batch, and the router's cost prediction.
func probeBackend(wk *walk, m *model, inputs [][]float32) error {
	dev := dpu.New(dpu.ZCU104B4096())
	imgs := make([]*tensor.Tensor, 8)
	for i := range imgs {
		imgs[i] = tensor.FromSlice(inputs[i%len(inputs)], 1, m.size, m.size)
	}
	var dpuSim backend.Backend
	for _, kind := range []string{backend.KindDPUSim, backend.KindCPUInt8, backend.KindGPUSim} {
		b, err := backend.New(kind, dev, m.prog, backend.Options{Threads: 4})
		if err != nil {
			return err
		}
		if kind == backend.KindDPUSim {
			dpuSim = b
		}
		i := 0
		if err := wk.sample("backend."+kind+".execute1_ms", func() error {
			i++
			_, _, err := b.Execute(imgs[i%len(imgs):][:1], 0)
			return err
		}); err != nil {
			return err
		}
	}
	if err := wk.sample("backend.dpu-sim.execute8_ms", func() error {
		_, _, err := dpuSim.Execute(imgs, 0)
		return err
	}); err != nil {
		return err
	}
	wk.set("backend.dpu-sim.self_ms", wk.get("backend.dpu-sim.execute1_ms")-wk.get("quant.frame_ms"))

	const costReps = 1000
	return wk.sampleEach(timing{"backend.cost_ns", costReps, func() error {
		for range costReps {
			dpuSim.Cost(8)
		}
		return nil
	}})
}
