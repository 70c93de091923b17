package core

import (
	"fmt"

	"seneca/internal/ctorg"
	"seneca/internal/metrics"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

// Predictor segments one preprocessed 1×S×S slice into an S×S class map.
// The input is reused across calls. xmodel.Program.Run is the INT8
// predictor; PredictFP32 wraps an FP32 model.
type Predictor func(img *tensor.Tensor) ([]uint8, error)

// PredictFP32 returns the FP32 model's predictor: one slice per forward.
func PredictFP32(m *unet.Model) Predictor {
	return func(img *tensor.Tensor) ([]uint8, error) {
		return m.Predict(img.Reshape(1, 1, img.Shape[1], img.Shape[2])), nil
	}
}

// Evaluation is one segmentation pass over a dataset: the pixel confusion
// of every patient, in ascending patient order (Dataset.Patients). Every
// accuracy figure of Section IV-A2 — totals, per-patient µ±σ, per-organ
// boxplots — reads it.
type Evaluation []*metrics.Confusion

// Evaluate segments every slice of ds once and accumulates the confusions
// per patient.
func Evaluate(ds *ctorg.Dataset, predict Predictor) (Evaluation, error) {
	patients := ds.Patients()
	ev := make(Evaluation, len(patients))
	byPatient := make(map[int]*metrics.Confusion, len(patients))
	for i, pid := range patients {
		ev[i] = metrics.NewConfusion(ctorg.NumClasses)
		byPatient[pid] = ev[i]
	}
	img := tensor.New(1, ds.Size, ds.Size)
	for _, s := range ds.Slices {
		copy(img.Data, s.Image)
		pred, err := predict(img)
		if err != nil {
			return nil, err
		}
		byPatient[s.Patient].Add(pred, s.Labels)
	}
	return ev, nil
}

// Total is the dataset-wide confusion.
func (ev Evaluation) Total() *metrics.Confusion {
	total := metrics.NewConfusion(ctorg.NumClasses)
	for _, c := range ev {
		for k := range total.TP {
			total.TP[k] += c.TP[k]
			total.FP[k] += c.FP[k]
			total.FN[k] += c.FN[k]
			total.TN[k] += c.TN[k]
		}
	}
	return total
}

// GlobalDice is every patient's global Dice, the distribution whose µ±σ
// Tables IV and V report.
func (ev Evaluation) GlobalDice() []float64 {
	out := make([]float64, len(ev))
	for i, c := range ev {
		out[i] = c.GlobalDice()
	}
	return out
}

// OrganDice is, per organ class, the Dice of every patient in whom that
// organ appears — the data behind Table V's organ rows and the Figure 6
// boxplots.
func (ev Evaluation) OrganDice() map[uint8][]float64 {
	out := make(map[uint8][]float64)
	for _, c := range ev {
		for cls := uint8(1); cls < ctorg.NumClasses; cls++ {
			if c.TP[cls]+c.FN[cls] > 0 {
				out[cls] = append(out[cls], c.Dice(int(cls)))
			}
		}
	}
	return out
}

// EvaluateFP32 measures the FP32 model over a dataset.
func EvaluateFP32(m *unet.Model, ds *ctorg.Dataset) *metrics.Confusion {
	ev, _ := Evaluate(ds, PredictFP32(m))
	return ev.Total()
}

// EvaluateINT8 measures the compiled program (bit-accurate INT8) over a
// dataset.
func EvaluateINT8(p *xmodel.Program, ds *ctorg.Dataset) (*metrics.Confusion, error) {
	ev, err := Evaluate(ds, p.Run)
	if err != nil {
		return nil, fmt.Errorf("core: evaluating %q: %w", p.Name, err)
	}
	return ev.Total(), nil
}
