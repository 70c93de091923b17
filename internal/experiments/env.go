package experiments

import (
	"fmt"
	"io"
	"sync"

	"seneca/internal/core"
	"seneca/internal/ctorg"
	"seneca/internal/dpu"
	"seneca/internal/gpusim"
	"seneca/internal/graph"
	"seneca/internal/phantom"
	"seneca/internal/quant"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

// Env carries the datasets, devices and caches shared by all experiments at
// one scale.
type Env struct {
	Scale Scale
	Train *ctorg.Dataset
	Test  *ctorg.Dataset

	// Log receives progress lines (nil silences).
	Log io.Writer

	DPU *dpu.Device
	GPU *gpusim.Device

	mu             sync.Mutex
	timingPrograms map[string]*xmodel.Program
	timingGraphs   map[string]*graph.Graph
	trained        map[string]*Trained
}

// Trained is one configuration's pipeline artifacts and its test-set
// evaluation at both precisions, each made by one pass over the test set.
type Trained struct {
	*core.Artifacts
	FP32, INT8 core.Evaluation
}

// NewEnv generates the phantom cohort, builds the preprocessed datasets and
// instantiates the device models.
func NewEnv(s Scale, log io.Writer) *Env {
	vols := phantom.GenerateDataset(s.Patients, phantom.Options{
		Size:       s.VolumeSize,
		Slices:     s.SlicesPerVolume,
		Seed:       s.Seed,
		NoiseSigma: 12,
	})
	ds := ctorg.Build(vols, s.ImageSize)
	train, _, test := ds.Split(0.75, 0, s.Seed+1)
	return &Env{
		Scale:          s,
		Train:          train,
		Test:           test,
		Log:            log,
		DPU:            dpu.New(dpu.ZCU104B4096()),
		GPU:            gpusim.New(gpusim.RTX2060Mobile()),
		timingPrograms: make(map[string]*xmodel.Program),
		timingGraphs:   make(map[string]*graph.Graph),
		trained:        make(map[string]*Trained),
	}
}

func (e *Env) logf(format string, args ...any) {
	if e.Log != nil {
		fmt.Fprintf(e.Log, format, args...)
	}
}

// TimingProgram returns (building and caching on first use) the compiled
// full-resolution program for a Table II configuration — the workload the
// performance models time. Weights are shape-only quantized; instruction
// timing depends only on geometry.
func (e *Env) TimingProgram(cfg unet.Config) (*xmodel.Program, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.timingPrograms[cfg.Name]; ok {
		return p, nil
	}
	m := unet.New(cfg)
	g := m.Export(e.Scale.TimingImageSize, e.Scale.TimingImageSize)
	q, err := quant.QuantizeShapeOnly(g)
	if err != nil {
		return nil, err
	}
	p, err := xmodel.Compile(q, cfg.Name)
	if err != nil {
		return nil, err
	}
	e.timingPrograms[cfg.Name] = p
	return p, nil
}

// TimingGraph returns (building and caching on first use) the FP32
// inference graph at timing resolution — the workload the GPU model times.
func (e *Env) TimingGraph(cfg unet.Config) *graph.Graph {
	e.mu.Lock()
	defer e.mu.Unlock()
	if g, ok := e.timingGraphs[cfg.Name]; ok {
		return g
	}
	g := unet.New(cfg).Export(e.Scale.TimingImageSize, e.Scale.TimingImageSize)
	e.timingGraphs[cfg.Name] = g
	return g
}

// Trained returns (training, evaluating and caching on first use) the
// full pipeline artifacts for a configuration at accuracy scale.
func (e *Env) Trained(cfg unet.Config) (*Trained, error) {
	e.mu.Lock()
	if t, ok := e.trained[cfg.Name]; ok {
		e.mu.Unlock()
		return t, nil
	}
	e.mu.Unlock()

	pcfg := core.DefaultPipelineConfig(cfg)
	pcfg.Train.Epochs = e.Scale.TrainEpochs
	pcfg.Train.BatchSize = e.Scale.BatchSize
	pcfg.CalibSize = e.Scale.CalibSize
	pcfg.Seed = e.Scale.Seed
	e.logf("training %s at %d×%d (%d epochs)...\n", cfg.Name, e.Scale.ImageSize, e.Scale.ImageSize, pcfg.Train.Epochs)
	art, err := core.RunPipeline(e.Train, pcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: pipeline for %s: %w", cfg.Name, err)
	}
	t := &Trained{Artifacts: art}
	t.FP32, _ = core.Evaluate(e.Test, core.PredictFP32(art.Model))
	if t.INT8, err = core.Evaluate(e.Test, art.Program.Run); err != nil {
		return nil, fmt.Errorf("experiments: evaluating %s: %w", cfg.Name, err)
	}
	e.mu.Lock()
	e.trained[cfg.Name] = t
	e.mu.Unlock()
	return t, nil
}
