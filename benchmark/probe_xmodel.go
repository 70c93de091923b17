package main

// Probe surface — xmodel (plus the model-construction recipe it needs):
//
//	unet.ConfigByName, unet.New, (*unet.Model).Export
//	quant.QuantizeShapeOnly
//	xmodel.Compile, xmodel.ReadFile
//	(*xmodel.Program).Run, .Stats, .WriteFile, .Graph.{InC,InH,InW,NumClasses}
//	tensor.FromSlice

import (
	"fmt"
	"os"

	"seneca/internal/quant"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

// model is the compiled program a workload serves, plus the in-process
// oracle every response is compared with.
type model struct {
	prog *xmodel.Program
	name string
	size int
}

// modelConfig returns the network a workload names: a Table II
// configuration, or "tiny" — the two-level, eight-filter demo network the
// server binaries fall back to without -xmodel.
func modelConfig(name string) (unet.Config, error) {
	if name == "tiny" {
		return unet.Config{Name: "tiny", Depth: 2, BaseFilters: 8, InChannels: 1, NumClasses: 6, Seed: 2}, nil
	}
	return unet.ConfigByName(name)
}

// buildModel compiles name at size×size with the recipe of the root
// package's bench_test.go benchProgram: untrained weights, shape-only
// quantization, depth clamped so the bottleneck is at least 1×1... the masks
// are meaningless as anatomy but exercise exactly the deployed arithmetic.
func buildModel(name string, size int) (*model, error) {
	cfg, err := modelConfig(name)
	if err != nil {
		return nil, err
	}
	for (1 << (cfg.Depth + 1)) > size {
		cfg.Depth--
	}
	q, err := quant.QuantizeShapeOnly(unet.New(cfg).Export(size, size))
	if err != nil {
		return nil, fmt.Errorf("quantizing %s@%d: %w", name, size, err)
	}
	prog, err := xmodel.Compile(q, name)
	if err != nil {
		return nil, fmt.Errorf("compiling %s@%d: %w", name, size, err)
	}
	return &model{prog: prog, name: name, size: size}, nil
}

// pixels is the number of values in one input slice and bytes in one mask.
func (m *model) pixels() int { return m.size * m.size }

func (m *model) numClasses() int { return m.prog.Graph.NumClasses }

// run is the oracle: the mask Program.Run gives for one input slice.
func (m *model) run(input []float32) ([]uint8, error) {
	return m.prog.Run(tensor.FromSlice(input, 1, m.size, m.size))
}

func (m *model) writeFile(path string) error { return m.prog.WriteFile(path) }

// probeXmodel times the compile → write → read path a server start pays.
func probeXmodel(wk *walk, m *model, dir string) error {
	path := dir + "/walk.xmodel"
	var rebuilt *model
	err := wk.sample("xmodel.compile_ms", func() error {
		var err error
		rebuilt, err = buildModel(m.name, m.size)
		return err
	})
	if err != nil {
		return err
	}
	if err := wk.sample("xmodel.write_ms", func() error { return rebuilt.writeFile(path) }); err != nil {
		return err
	}
	if err := wk.sample("xmodel.read_ms", func() error {
		_, err := xmodel.ReadFile(path)
		return err
	}); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	wk.set("xmodel.file_kb", float64(st.Size())/1024)
	return nil
}
