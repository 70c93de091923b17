package experiments

import (
	"fmt"
	"io"
	"time"

	"seneca/internal/core"
	"seneca/internal/ctorg"
	"seneca/internal/imaging"
	"seneca/internal/metrics"
	"seneca/internal/nn"
	"seneca/internal/phantom"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/unet3d"
)

// Baseline3DResult compares the trained 2D SENECA model against the 3D
// U-Net baseline of the CT-ORG paper [17] on the same cohort — the
// comparison behind paper Table V's last column and the Section III-B claim
// that 2D matches 3D accuracy at a fraction of the cost.
type Baseline3DResult struct {
	// Global per-patient Dice distributions.
	Global2D, Global3D metrics.Summary
	// Per-organ Dice summaries.
	Organ2D, Organ3D map[uint8]metrics.Summary
	// TrainTime2D/3D is the wall-clock training cost at this scale.
	TrainTime2D, TrainTime3D time.Duration
	// Params2D/3D are model sizes.
	Params2D, Params3D int
}

// volume3D is one downsampled patient volume ready for the 3D network.
type volume3D struct {
	x      *tensor.Tensor // [1, 1, D, S, S]
	labels []uint8        // D*S*S
}

// Baseline3D trains the 3D baseline on downsampled whole volumes and the
// (already trained) 2D SENECA model at accuracy scale, and evaluates both
// per patient.
func (e *Env) Baseline3D(w io.Writer, cfgName string) (*Baseline3DResult, error) {
	base, err := unet.ConfigByName(cfgName)
	if err != nil {
		return nil, err
	}
	// 2D side: reuse the trained pipeline; measure its training (and
	// evaluation) time fresh only if not cached (time reported as 0 when
	// cached — noted in output).
	t2Start := time.Now()
	art, err := e.Trained(accuracyConfig(base, e.Scale))
	if err != nil {
		return nil, err
	}
	t2 := time.Since(t2Start)

	// Build the volumetric dataset: same phantom cohort, downsampled to
	// size/2 in-plane with a fixed even depth.
	size := e.Scale.ImageSize / 2
	if size < 16 {
		size = 16
	}
	depth := 8
	vols := phantom.GenerateDataset(e.Scale.Patients, phantom.Options{
		Size:       e.Scale.VolumeSize,
		Slices:     e.Scale.SlicesPerVolume,
		Seed:       e.Scale.Seed,
		NoiseSigma: 12,
	})
	var train3, test3 []*volume3D
	trainPatients := map[int]bool{}
	for _, s := range e.Train.Slices {
		trainPatients[s.Patient] = true
	}
	for _, v := range vols {
		v3 := downsampleVolume(v, size, depth)
		if trainPatients[v.Patient] {
			train3 = append(train3, v3)
		} else {
			test3 = append(test3, v3)
		}
	}

	// Train the 3D baseline.
	cfg3 := unet3d.CTORGBaseline()
	cfg3.Seed = e.Scale.Seed
	model3 := unet3d.New(cfg3)
	freq := e.Train.ClassPixelFractions()
	weights := nn.InverseFrequencyWeightsPow(freq, 0.25, 0.5)
	loss := nn.NewFocalTversky(weights)
	opt := nn.NewAdam(2e-3)
	epochs := e.Scale.TrainEpochs
	t3Start := time.Now()
	for epoch := 0; epoch < epochs; epoch++ {
		for _, v := range train3 {
			loss.Forward(model3.Forward(v.x, true), v.labels)
			model3.Backward(loss.Backward())
			nn.ClipGradNorm(model3.Params(), 5)
			opt.Step(model3.Params())
		}
		e.logf("3d baseline epoch %d/%d\n", epoch+1, epochs)
	}
	t3 := time.Since(t3Start)

	// Evaluate both per patient: the 2D side is the trained model's INT8
	// pass, the 3D side one whole-volume prediction per test patient.
	var ev3 core.Evaluation
	for _, v3 := range test3 {
		conf := metrics.NewConfusion(ctorg.NumClasses)
		conf.Add(model3.Predict(v3.x), v3.labels)
		ev3 = append(ev3, conf)
	}
	res := &Baseline3DResult{
		Global2D: metrics.Summarize(art.INT8.GlobalDice()), Global3D: metrics.Summarize(ev3.GlobalDice()),
		Organ2D: map[uint8]metrics.Summary{}, Organ3D: map[uint8]metrics.Summary{},
		TrainTime2D: t2, TrainTime3D: t3,
		Params2D: art.Model.ParamCount(), Params3D: model3.ParamCount(),
	}
	organ2, organ3 := art.INT8.OrganDice(), ev3.OrganDice()
	for cls := uint8(1); cls < ctorg.NumClasses; cls++ {
		res.Organ2D[cls] = metrics.Summarize(organ2[cls])
		res.Organ3D[cls] = metrics.Summarize(organ3[cls])
	}

	fmt.Fprintf(w, "Baseline — 2D SENECA (INT8) vs 3D U-Net [17]-style, same cohort\n")
	fmt.Fprintf(w, "%-12s %16s %16s\n", "", "2D (SENECA)", "3D baseline")
	fmt.Fprintf(w, "%-12s %16d %16d\n", "params", res.Params2D, res.Params3D)
	fmt.Fprintf(w, "%-12s %16s %16s\n", "train time", res.TrainTime2D.Round(time.Second), res.TrainTime3D.Round(time.Second))
	pct := func(s metrics.Summary) string { return fmt.Sprintf("%.2f±%.2f", s.Mean*100, s.Std*100) }
	fmt.Fprintf(w, "%-12s %16s %16s\n", "global DSC", pct(res.Global2D), pct(res.Global3D))
	for cls := uint8(1); cls < ctorg.NumClasses; cls++ {
		fmt.Fprintf(w, "%-12s %16s %16s\n", ctorg.ClassNames[cls], pct(res.Organ2D[cls]), pct(res.Organ3D[cls]))
	}
	return res, nil
}

// downsampleVolume resamples a phantom volume to size×size in-plane and a
// fixed even depth, applying the same intensity preprocessing as the 2D
// pipeline (per-volume percentile saturation + [-1,1] rescale).
func downsampleVolume(v *phantom.Volume, size, depth int) *volume3D {
	x := tensor.New(1, 1, depth, size, size)
	labels := make([]uint8, depth*size*size)
	for z := 0; z < depth; z++ {
		// Nearest source slice.
		sz := (z*2 + 1) * v.CT.Nz / (depth * 2)
		if sz >= v.CT.Nz {
			sz = v.CT.Nz - 1
		}
		raw := v.CT.Slice(sz)
		img := imaging.ResizeBilinear(raw, v.CT.Ny, v.CT.Nx, size, size)
		copy(x.Data[z*size*size:(z+1)*size*size], img)

		rawLab := v.Labels.Slice(sz)
		lab8 := make([]uint8, len(rawLab))
		for i, f := range rawLab {
			lab8[i] = uint8(f)
		}
		lab := imaging.ResizeNearestLabels(lab8, v.Labels.Ny, v.Labels.Nx, size, size)
		copy(labels[z*size*size:(z+1)*size*size], lab)
	}
	imaging.SaturatePercentiles(x.Data, 0.01, 0.99)
	imaging.RescaleToUnit(x.Data)
	return &volume3D{x: x, labels: labels}
}
