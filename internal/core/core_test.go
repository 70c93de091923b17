package core

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"seneca/internal/ctorg"
	"seneca/internal/metrics"
	"seneca/internal/phantom"
	"seneca/internal/tensor"
	"seneca/internal/unet"
)

// fastDataset builds a small phantom dataset shared by the integration
// tests (cached across tests within the run).
var cachedTrain, cachedTest *ctorg.Dataset

func fastDataset(t *testing.T) (*ctorg.Dataset, *ctorg.Dataset) {
	t.Helper()
	if cachedTrain != nil {
		return cachedTrain, cachedTest
	}
	opt := phantom.Options{Size: 96, Slices: 14, Seed: 3, NoiseSigma: 10}
	vols := phantom.GenerateDataset(8, opt)
	ds := ctorg.Build(vols, 48)
	train, _, test := ds.Split(0.75, 0, 9)
	cachedTrain, cachedTest = train, test
	return train, test
}

func fastModelConfig() unet.Config {
	return unet.Config{Name: "fast-1M", Depth: 2, BaseFilters: 8, InChannels: 1, NumClasses: 6, DropoutRate: 0.05, Seed: 4}
}

func fastTrainConfig() TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	cfg.BatchSize = 6
	return cfg
}

// cachedArtifacts trains the shared pipeline once for all tests that only
// need a trained+compiled model.
var cachedArt *Artifacts

func fastArtifacts(t *testing.T) *Artifacts {
	t.Helper()
	if raceEnabled {
		t.Skip("training pipeline is too slow under the race detector")
	}
	if cachedArt != nil {
		return cachedArt
	}
	train, _ := fastDataset(t)
	cfg := DefaultPipelineConfig(fastModelConfig())
	cfg.Train = fastTrainConfig()
	cfg.CalibSize = 40
	art, err := RunPipeline(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cachedArt = art
	return art
}

func TestTrainRejectsEmptyDataset(t *testing.T) {
	if _, _, err := Train(fastModelConfig(), &ctorg.Dataset{Size: 48}, fastTrainConfig()); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestTrainUnknownLoss(t *testing.T) {
	train, _ := fastDataset(t)
	cfg := fastTrainConfig()
	cfg.Loss = "hinge"
	if _, _, err := Train(fastModelConfig(), train, cfg); err == nil {
		t.Fatal("unknown loss accepted")
	}
}

// TestEndToEndPipeline is the central integration test: train a small
// U-Net on the phantom, quantize with the manual calibration set, compile,
// and verify (a) the FP32 model actually learned, (b) the INT8 program
// tracks the FP32 accuracy closely — the paper's key accuracy claim
// ("PTQ ... with no global performance losses", Section III-D).
func TestEndToEndPipeline(t *testing.T) {
	_, test := fastDataset(t)
	art := fastArtifacts(t)
	if len(art.Report.EpochLoss) != fastTrainConfig().Epochs {
		t.Fatalf("epoch losses %v", art.Report.EpochLoss)
	}
	first, last := art.Report.EpochLoss[0], art.Report.EpochLoss[len(art.Report.EpochLoss)-1]
	if !(last < first) {
		t.Errorf("training did not reduce loss: %v → %v", first, last)
	}

	fp32 := EvaluateFP32(art.Model, test)
	int8c, err := EvaluateINT8(art.Program, test)
	if err != nil {
		t.Fatal(err)
	}
	gFP := fp32.GlobalDice()
	gI8 := int8c.GlobalDice()
	t.Logf("global DSC: FP32 %.4f, INT8 %.4f", gFP, gI8)
	if gFP < 0.60 {
		t.Errorf("FP32 model failed to learn: global DSC %.3f", gFP)
	}
	if math.Abs(gFP-gI8) > 0.05 {
		t.Errorf("INT8/FP32 global DSC gap %.4f too large (paper: negligible)", math.Abs(gFP-gI8))
	}

	// Big, high-contrast lungs must beat the small low-contrast bladder
	// (Figure 6's difficulty ordering).
	lungs := int8c.Dice(int(phantom.ClassLungs))
	bladder := int8c.Dice(int(phantom.ClassBladder))
	if lungs <= bladder {
		t.Errorf("difficulty ordering violated: lungs %.3f ≤ bladder %.3f", lungs, bladder)
	}

	// Specificity must be high (paper: global TNR 99.75% on the fully
	// trained model; this fast-mode model trains for a fraction of that).
	if spec := int8c.GlobalSpecificity(); spec < 0.95 {
		t.Errorf("global specificity %.4f, want ≥0.95", spec)
	}
}

// TestPerPatientOrganDice checks the per-patient grouping of the one
// evaluation pass on the two test patients: each patient's confusion is a
// separate pass over that patient's slices, the total is one pass over the
// whole set, and the organ distribution holds each patient's organ Dice,
// only for patients whose ground truth shows the organ.
func TestPerPatientOrganDice(t *testing.T) {
	_, test := fastDataset(t)
	art := fastArtifacts(t)
	ev, err := Evaluate(test, art.Program.Run)
	if err != nil {
		t.Fatal(err)
	}
	patients := test.Patients()
	if len(patients) != 2 || len(ev) != 2 {
		t.Fatalf("%d confusions for test patients %v, want 2", len(ev), patients)
	}
	present := make([][ctorg.NumClasses]bool, len(patients))
	for i, pid := range patients {
		var idx []int
		for j, s := range test.Slices {
			if s.Patient == pid {
				idx = append(idx, j)
				for cls, n := range s.ClassPixels {
					present[i][cls] = present[i][cls] || n > 0
				}
			}
		}
		alone, err := Evaluate(test.Subset(idx), art.Program.Run)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ev[i], alone[0]) {
			t.Errorf("patient %d: confusion %+v, a pass over its own slices gives %+v", pid, ev[i], alone[0])
		}
	}
	whole := metrics.NewConfusion(ctorg.NumClasses)
	img := tensor.New(1, test.Size, test.Size)
	for _, s := range test.Slices {
		copy(img.Data, s.Image)
		pred, err := art.Program.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		whole.Add(pred, s.Labels)
	}
	if !reflect.DeepEqual(ev.Total(), whole) {
		t.Errorf("total %+v, one pass over the whole set gives %+v", ev.Total(), whole)
	}

	dist := ev.OrganDice()
	for cls := uint8(1); cls < ctorg.NumClasses; cls++ {
		var want []float64
		for i, c := range ev {
			if present[i][cls] {
				want = append(want, c.Dice(int(cls)))
			}
		}
		if len(want) == 0 || !slices.Equal(dist[cls], want) {
			t.Errorf("%s: Dice values %v, want %v", ctorg.ClassNames[cls], dist[cls], want)
		}
		for _, d := range dist[cls] {
			if d < 0 || d > 1 {
				t.Errorf("%s Dice %v out of range", ctorg.ClassNames[cls], d)
			}
		}
	}
}

func TestDeployCalibrationModes(t *testing.T) {
	train, _ := fastDataset(t)
	art := fastArtifacts(t)
	model, report := art.Model, art.Report
	for _, mode := range []CalibrationMode{CalibRandom, CalibManual} {
		cfg := DefaultPipelineConfig(fastModelConfig())
		cfg.CalibSize = 30
		cfg.CalibMode = mode
		art, err := Deploy(model, train, cfg, report)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(art.CalibIndices) != 30 {
			t.Fatalf("%s: calibration size %d", mode, len(art.CalibIndices))
		}
	}
	cfg := DefaultPipelineConfig(fastModelConfig())
	cfg.CalibMode = "bogus"
	if _, err := Deploy(model, train, cfg, report); err == nil {
		t.Fatal("bogus calibration mode accepted")
	}
	cfg = DefaultPipelineConfig(fastModelConfig())
	cfg.QuantMode = "bogus"
	if _, err := Deploy(model, train, cfg, report); err == nil {
		t.Fatal("bogus quant mode accepted")
	}
}

func TestQuantModesAllRun(t *testing.T) {
	if raceEnabled {
		t.Skip("training pipeline is too slow under the race detector")
	}
	train, test := fastDataset(t)
	base := DefaultPipelineConfig(fastModelConfig())
	base.Train = fastTrainConfig()
	base.Train.Epochs = 2
	base.CalibSize = 20
	results := map[QuantMode]float64{}
	for _, mode := range []QuantMode{QuantPTQ, QuantFFQ, QuantQAT} {
		cfg := base
		cfg.QuantMode = mode
		art, err := RunPipeline(train, cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		conf, err := EvaluateINT8(art.Program, test)
		if err != nil {
			t.Fatal(err)
		}
		results[mode] = conf.GlobalDice()
	}
	t.Logf("quant mode DSC: %v", results)
	// All three modes must produce sane segmenters (the paper finds no
	// significant differences among them).
	for mode, d := range results {
		if d < 0.3 {
			t.Errorf("%s produced unusable model: DSC %.3f", mode, d)
		}
	}
}

func TestTrainDetectsDivergence(t *testing.T) {
	train, _ := fastDataset(t)
	cfg := fastTrainConfig()
	cfg.Epochs = 3
	// A float32-edge learning rate overflows the activations and the loss
	// goes NaN within the first steps; the loop must stop at the
	// poisoned step with a typed error, not return a NaN-weighted model.
	cfg.LearningRate = 1e38
	cfg.ClipNorm = 0
	model, report, err := Train(fastModelConfig(), train, cfg)
	if err == nil {
		t.Fatal("Train returned no error despite a 1e38 learning rate")
	}
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("error does not match ErrDiverged: %v", err)
	}
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("error is not a *DivergenceError: %v", err)
	}
	if de.Epoch < 1 || de.Step < 1 {
		t.Errorf("divergence location not recorded: epoch %d step %d", de.Epoch, de.Step)
	}
	if !math.IsNaN(de.Loss) && !math.IsInf(de.Loss, 0) {
		t.Errorf("recorded loss %v is finite", de.Loss)
	}
	if model != nil {
		t.Error("diverged training still returned a model")
	}
	// The report keeps the epochs completed before the blow-up (possibly
	// none), never a poisoned value.
	for i, l := range report.EpochLoss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Errorf("report.EpochLoss[%d] = %v", i, l)
		}
	}
}
