// Quickstart: the complete SENECA workflow in one file — generate a small
// synthetic CT cohort, train a compact U-Net in FP32 with the weighted
// Focal Tversky loss, quantize it to INT8 with a curated calibration set,
// compile it for the DPU, deploy it on the simulated ZCU104, and compare
// accuracy and efficiency against the GPU baseline.
//
//	go run ./examples/quickstart
//
// Runtime: a couple of minutes on a laptop CPU.
package main

import (
	"fmt"
	"log"
	"os"

	"seneca"
)

func main() {
	log.SetFlags(0)

	// (A) Data preparation: a 10-patient synthetic CT-ORG-like cohort,
	// preprocessed to 48×48 slices (downsample + contrast saturation +
	// [-1,1] rescale).
	fmt.Println("generating cohort...")
	vols := seneca.GeneratePhantomCohort(10, seneca.PhantomOptions{
		Size: 96, Slices: 14, Seed: 7, NoiseSigma: 10,
	})
	ds := seneca.BuildDataset(vols, 48)
	train, _, test := ds.Split(0.8, 0, 7)
	fmt.Printf("dataset: %d train / %d test slices\n", train.Len(), test.Len())

	// (B+C) Model definition and FP32 training. The "1M" Table II
	// configuration, reduced to depth 2 for the small input.
	cfg, err := seneca.ConfigByName("1M")
	if err != nil {
		log.Fatal(err)
	}
	cfg.Depth = 2

	pipe := seneca.DefaultPipelineConfig(cfg)
	pipe.Train.Epochs = 10
	pipe.Train.Log = os.Stdout
	pipe.CalibSize = 40
	pipe.CalibMode = seneca.CalibManual // Table III curated sampling

	// (D+E) Quantize with PTQ and compile to an xmodel.
	fmt.Println("training + quantizing + compiling...")
	art, err := seneca.RunPipeline(train, pipe)
	if err != nil {
		log.Fatal(err)
	}

	// Accuracy: FP32 vs bit-accurate INT8.
	fp32 := seneca.EvaluateFP32(art.Model, test)
	int8c, err := seneca.EvaluateINT8(art.Program, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nglobal DSC: FP32 %.4f → INT8 %.4f (paper: no global loss from PTQ)\n",
		fp32.GlobalDice(), int8c.GlobalDice())

	// Deployment: 4 runtime threads on the dual-core DPU.
	dev := seneca.NewZCU104()
	runner := seneca.NewRunner(dev, art.Program, 4)
	res, err := runner.SimulateThroughput(2000, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ZCU104 (4 threads): %s\n", res.Report)

	// GPU baseline on the same network.
	gpu := seneca.NewRTX2060Mobile()
	gres := gpu.SimulateRun(art.Graph, 2000, 1)
	fmt.Printf("RTX 2060 Mobile:    %s\n", gres.Report)
	fmt.Printf("\nspeedup %.2f×, energy-efficiency gain %.1f×\n",
		res.FPS()/gres.FPS(), res.EnergyEfficiency()/gres.EnergyEfficiency())
}
