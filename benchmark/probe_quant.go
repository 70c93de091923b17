package main

// Probe surface — quant and par (quant is reached through the compiled
// program, as every server reaches it):
//
//	(*xmodel.Program).Run, .Stats → xmodel.Stats.{MACs,WeightBytes,FeatureMapBytes}
//	par.SetMaxWorkers

import (
	"time"

	"seneca/internal/par"
)

// probeQuant times one INT8 frame on the workload's model: cold, warm on
// every core, and warm on one core.
func probeQuant(wk *walk, m *model, inputs [][]float32) error {
	// A fresh compile, so the first frame pays the lazy weight packing a
	// cold server pays.
	cold, err := buildModel(m.name, m.size)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := cold.run(inputs[0]); err != nil {
		return err
	}
	wk.setDuration("quant.first_frame_ms", time.Since(start))

	i := 0
	frame := func() error {
		i++
		_, err := m.run(inputs[i%len(inputs)])
		return err
	}
	if err := wk.sample("quant.frame_ms", frame); err != nil {
		return err
	}
	prev := par.SetMaxWorkers(1)
	err = wk.sample("quant.frame_serial_ms", frame)
	par.SetMaxWorkers(prev)
	if err != nil {
		return err
	}
	parallelMS, serialMS := wk.get("quant.frame_ms"), wk.get("quant.frame_serial_ms")

	st := m.prog.Stats()
	wk.set("quant.gmacs_per_s", float64(st.MACs)/1e9/(serialMS/1e3))
	// Computed from tensor sizes, not measured: every weight and feature-map
	// byte the program's instructions name, once per frame.
	wk.set("quant.kb_moved_per_frame", float64(st.WeightBytes+st.FeatureMapBytes)/1024)
	wk.set("par.speedup", serialMS/parallelMS)

	allocs, bytes := allocsPer(5, func() { frame() })
	wk.set("quant.frame_allocs", allocs)
	wk.set("quant.frame_alloc_kb", bytes/1024)
	return nil
}
