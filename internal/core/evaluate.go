package core

import (
	"fmt"
	"maps"
	"slices"

	"seneca/internal/ctorg"
	"seneca/internal/metrics"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

// EvaluateFP32 runs the FP32 model over a dataset and accumulates the pixel
// confusion statistics.
func EvaluateFP32(m *unet.Model, ds *ctorg.Dataset, batchSize int) *metrics.Confusion {
	conf := metrics.NewConfusion(ctorg.NumClasses)
	if batchSize < 1 {
		batchSize = 4
	}
	for at := 0; at < ds.Len(); at += batchSize {
		hi := at + batchSize
		if hi > ds.Len() {
			hi = ds.Len()
		}
		idx := make([]int, 0, hi-at)
		for i := at; i < hi; i++ {
			idx = append(idx, i)
		}
		x, labels := ds.Batch(idx)
		pred := m.Predict(x)
		conf.Add(pred, labels)
	}
	return conf
}

// EvaluateINT8 runs the compiled program (bit-accurate INT8) over a dataset.
func EvaluateINT8(p *xmodel.Program, ds *ctorg.Dataset) (*metrics.Confusion, error) {
	conf := metrics.NewConfusion(ctorg.NumClasses)
	img := tensor.New(1, ds.Size, ds.Size)
	for _, s := range ds.Slices {
		copy(img.Data, s.Image)
		pred, err := p.Run(img)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating %q: %w", p.Name, err)
		}
		conf.Add(pred, s.Labels)
	}
	return conf, nil
}

// PerPatientOrganDice computes, for every organ class, the distribution of
// per-patient Dice scores under the compiled INT8 program — the data behind
// the Figure 6 boxplots.
func PerPatientOrganDice(p *xmodel.Program, ds *ctorg.Dataset) (map[uint8][]float64, error) {
	perPatient := make(map[int]*metrics.Confusion)
	img := tensor.New(1, ds.Size, ds.Size)
	for _, s := range ds.Slices {
		copy(img.Data, s.Image)
		pred, err := p.Run(img)
		if err != nil {
			return nil, err
		}
		conf := perPatient[s.Patient]
		if conf == nil {
			conf = metrics.NewConfusion(ctorg.NumClasses)
			perPatient[s.Patient] = conf
		}
		conf.Add(pred, s.Labels)
	}
	out := make(map[uint8][]float64)
	for _, pid := range slices.Sorted(maps.Keys(perPatient)) {
		conf := perPatient[pid]
		for cls := uint8(1); cls < ctorg.NumClasses; cls++ {
			// Only count patients in whom the organ actually appears.
			if conf.TP[cls]+conf.FN[cls] == 0 {
				continue
			}
			out[cls] = append(out[cls], conf.Dice(int(cls)))
		}
	}
	return out, nil
}
