package seneca_test

import (
	"testing"

	"seneca"
	"seneca/internal/core"
	"seneca/internal/experiments"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

func TestFacadeTableII(t *testing.T) {
	configs := seneca.TableII()
	if len(configs) != 5 {
		t.Fatalf("%d configurations", len(configs))
	}
	cfg, err := seneca.ConfigByName("1M")
	if err != nil || cfg.Name != "1M" {
		t.Fatalf("ConfigByName: %v %v", cfg, err)
	}
}

func TestFacadeDeviceConstruction(t *testing.T) {
	dpu := seneca.NewZCU104()
	if dpu.Cfg.Cores != 2 || dpu.Cfg.PeakOpsPerCycle() != 4096 {
		t.Fatalf("ZCU104 config %+v", dpu.Cfg)
	}
	gpu := seneca.NewRTX2060Mobile()
	if gpu.Cfg.LoadWatts != 78 {
		t.Fatalf("GPU config %+v", gpu.Cfg)
	}
}

// TestFacadeWorkflow exercises the full public API path end to end on a
// deliberately tiny problem.
func TestFacadeWorkflow(t *testing.T) {
	vols := seneca.GeneratePhantomCohort(4, seneca.PhantomOptions{
		Size: 64, Slices: 8, Seed: 5, NoiseSigma: 8,
	})
	if len(vols) != 4 {
		t.Fatalf("%d volumes", len(vols))
	}
	ds := seneca.BuildDataset(vols, 32)
	train, _, test := ds.Split(0.75, 0, 5)
	if train.Len() == 0 || test.Len() == 0 {
		t.Fatal("empty split")
	}

	cfg, _ := seneca.ConfigByName("1M")
	cfg.Depth = 2
	pipe := seneca.DefaultPipelineConfig(cfg)
	pipe.Train.Epochs = 2
	pipe.CalibSize = 8
	art, err := seneca.RunPipeline(train, pipe)
	if err != nil {
		t.Fatal(err)
	}

	conf, err := seneca.EvaluateINT8(art.Program, test)
	if err != nil {
		t.Fatal(err)
	}
	if d := conf.GlobalDice(); d < 0 || d > 1 {
		t.Fatalf("global dice %v", d)
	}
	fp := seneca.EvaluateFP32(art.Model, test)
	if d := fp.GlobalDice(); d < 0 || d > 1 {
		t.Fatalf("fp32 dice %v", d)
	}

	runner := seneca.NewRunner(seneca.NewZCU104(), art.Program, 4)
	res, err := runner.SimulateThroughput(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FPS() <= 0 || res.Watts() <= 0 || res.EnergyEfficiency() <= 0 {
		t.Fatalf("implausible run result %+v", res)
	}

	// Checkpoint + xmodel round trips.
	dir := t.TempDir()
	if err := art.Model.SaveFile(dir + "/m.model"); err != nil {
		t.Fatal(err)
	}
	if _, err := unet.LoadFile(dir + "/m.model"); err != nil {
		t.Fatal(err)
	}
	if err := art.Program.WriteFile(dir + "/m.xmodel"); err != nil {
		t.Fatal(err)
	}
	prog, err := xmodel.ReadFile(dir + "/m.xmodel")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Stats().MACs != art.Program.Stats().MACs {
		t.Fatal("xmodel stats changed across round trip")
	}
}

func TestFacadeDeploySeparateFromTraining(t *testing.T) {
	vols := seneca.GeneratePhantomCohort(3, seneca.PhantomOptions{Size: 64, Slices: 8, Seed: 6, NoiseSigma: 8})
	ds := seneca.BuildDataset(vols, 32)

	cfg, _ := seneca.ConfigByName("2M")
	cfg.Depth = 2
	tc := seneca.DefaultTrainConfig()
	tc.Epochs = 1
	model, _, err := seneca.Train(cfg, ds, tc)
	if err != nil {
		t.Fatal(err)
	}
	pipe := seneca.DefaultPipelineConfig(cfg)
	pipe.CalibSize = 6
	pipe.QuantMode = core.QuantFFQ
	art, err := core.Deploy(model, ds, pipe, core.TrainReport{})
	if err != nil {
		t.Fatal(err)
	}
	if art.Program == nil || art.QGraph == nil {
		t.Fatal("missing artifacts")
	}
}

func TestScalesAreDistinct(t *testing.T) {
	f, p, tn := experiments.FastScale(), experiments.PaperScale(), experiments.TinyScale()
	if !(tn.Patients < f.Patients && f.Patients < p.Patients) {
		t.Fatal("scales not ordered by cohort size")
	}
	if p.ImageSize != 256 || p.CalibSize != 500 || p.EvalFrames != 2000 || p.Runs != 10 {
		t.Fatalf("paper scale does not match Section IV geometry: %+v", p)
	}
	for _, s := range []experiments.Scale{f, p, tn} {
		if s.TimingImageSize != 256 {
			t.Fatalf("%s scale times at %d, want 256", s.Name, s.TimingImageSize)
		}
	}
}
