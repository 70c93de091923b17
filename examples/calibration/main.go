// Calibration: the Table III study — how the composition of the PTQ
// calibration set steers INT8 accuracy. The paper observes that naive
// random sampling lets the quantizer optimize for the frequent organs
// (lungs, bones, liver) while the rare bladder "contributes very little to
// weights transformation", and counters it with a manually leveled
// calibration set.
//
// This example trains one model, quantizes it twice — once per sampling
// strategy — and compares per-organ INT8 Dice.
//
//	go run ./examples/calibration
package main

import (
	"fmt"
	"log"

	"seneca"
	"seneca/internal/core"
	"seneca/internal/ctorg"
)

func main() {
	log.SetFlags(0)

	fmt.Println("building cohort and training the FP32 model...")
	vols := seneca.GeneratePhantomCohort(12, seneca.PhantomOptions{
		Size: 96, Slices: 14, Seed: 21, NoiseSigma: 10,
	})
	ds := seneca.BuildDataset(vols, 48)
	train, _, test := ds.Split(0.75, 0, 21)

	cfg, _ := seneca.ConfigByName("1M")
	cfg.Depth = 2
	tc := seneca.DefaultTrainConfig()
	tc.Epochs = 18
	model, report, err := seneca.Train(cfg, train, tc)
	if err != nil {
		log.Fatal(err)
	}

	// Show the two calibration distributions (Table III).
	n := 50
	randIdx := ctorg.RandomCalibration(train, n, 21)
	manIdx := ctorg.ManualCalibration(train, n, ctorg.TableIIIManualTargets, 21)
	randF := ctorg.CalibrationFrequencies(train, randIdx)
	manF := ctorg.CalibrationFrequencies(train, manIdx)
	fmt.Printf("\ncalibration distributions (%d slices):\n", n)
	fmt.Printf("%-18s", "")
	for c := uint8(1); c < ctorg.NumClasses; c++ {
		fmt.Printf("%10s", ctorg.ClassNames[c])
	}
	fmt.Printf("\n%-18s", "random sampling")
	for c := uint8(1); c < ctorg.NumClasses; c++ {
		fmt.Printf("%9.2f%%", randF[c]*100)
	}
	fmt.Printf("\n%-18s", "manual sampling")
	for c := uint8(1); c < ctorg.NumClasses; c++ {
		fmt.Printf("%9.2f%%", manF[c]*100)
	}
	fmt.Println()

	// Quantize once per strategy and compare INT8 accuracy.
	evaluate := func(mode core.CalibrationMode) *seneca.Confusion {
		pcfg := seneca.DefaultPipelineConfig(cfg)
		pcfg.CalibSize = n
		pcfg.CalibMode = mode
		art, err := core.Deploy(model, train, pcfg, report)
		if err != nil {
			log.Fatal(err)
		}
		conf, err := seneca.EvaluateINT8(art.Program, test)
		if err != nil {
			log.Fatal(err)
		}
		return conf
	}
	fp32 := seneca.EvaluateFP32(model, test)
	randC := evaluate(core.CalibRandom)
	manC := evaluate(core.CalibManual)

	fmt.Printf("\n%-10s %10s %14s %14s\n", "organ", "FP32", "INT8 random", "INT8 manual")
	for c := 1; c < ctorg.NumClasses; c++ {
		fmt.Printf("%-10s %10.4f %14.4f %14.4f\n",
			ctorg.ClassNames[c], fp32.Dice(c), randC.Dice(c), manC.Dice(c))
	}
	fmt.Printf("%-10s %10.4f %14.4f %14.4f\n", "global",
		fp32.GlobalDice(), randC.GlobalDice(), manC.GlobalDice())
	fmt.Println("\nThe manually leveled set trades a sliver of big-organ accuracy for")
	fmt.Println("better small-organ generalization, with equal-or-better global DSC —")
	fmt.Println("the paper's Section III-D conclusion.")
}
