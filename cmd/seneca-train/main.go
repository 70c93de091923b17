// Command seneca-train trains one of the paper's Table II U-Net
// configurations in FP32 with the weighted Focal Tversky loss (Figure 1
// B–C) and writes a model checkpoint.
//
// Usage:
//
//	seneca-train -data ./data -model 1M -size 64 -epochs 10 -out 1m.model
//
// Omitting -data generates a phantom cohort in memory.
package main

import (
	"flag"
	"fmt"
	"os"

	"seneca/internal/core"
	"seneca/internal/ctorg"
	"seneca/internal/obs"
	"seneca/internal/phantom"
	"seneca/internal/unet"
)

func main() {
	dataDir := flag.String("data", "", "NIfTI cohort directory (empty: generate in memory)")
	modelName := flag.String("model", "1M", "Table II configuration: 1M, 2M, 4M, 8M or 16M")
	size := flag.Int("size", 64, "network input size (paper: 256)")
	epochs := flag.Int("epochs", 10, "training epochs")
	batch := flag.Int("batch", 6, "training batch size")
	lr := flag.Float64("lr", 2e-3, "Adam learning rate")
	lossName := flag.String("loss", "focal-tversky", "loss: focal-tversky, focal-tversky-unweighted, dice, cross-entropy")
	patients := flag.Int("patients", 10, "patients to generate when -data is empty")
	seed := flag.Int64("seed", 1, "seed")
	out := flag.String("out", "seneca.model", "checkpoint output path")
	metricsOut := flag.String("metrics-out", "", "write final Prometheus exposition to this file ('-' = stdout)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	lg := obs.SetupDefault("seneca-train", obs.ParseLevel(*logLevel))

	cfg, err := unet.ConfigByName(*modelName)
	if err != nil {
		lg.Error("config", "err", err)
		os.Exit(1)
	}
	for (1 << (cfg.Depth + 1)) > *size {
		cfg.Depth--
		lg.Warn("input too small for depth: reduced", "size", *size, "depth", cfg.Depth)
	}

	var vols []*phantom.Volume
	if *dataDir != "" {
		vols, err = phantom.LoadDataset(*dataDir)
		if err != nil {
			lg.Error("loading dataset", "dir", *dataDir, "err", err)
			os.Exit(1)
		}
	} else {
		vols = phantom.GenerateDataset(*patients, phantom.Options{Size: 2 * *size, Slices: 16, Seed: *seed, NoiseSigma: 12})
	}
	ds := ctorg.Build(vols, *size)
	train, _, test := ds.Split(0.8, 0, *seed)
	fmt.Printf("dataset: %d train / %d test slices at %d×%d\n", train.Len(), test.Len(), *size, *size)

	tc := core.DefaultTrainConfig()
	tc.Epochs = *epochs
	tc.BatchSize = *batch
	tc.LearningRate = float32(*lr)
	tc.Loss = *lossName
	tc.Seed = *seed
	tc.Log = os.Stdout
	// Per-epoch loss, step time and images/sec flow through the shared
	// registry alongside the stage timers.
	tc.Metrics = obs.Default

	model, _, err := core.Train(cfg, train, tc)
	if err != nil {
		lg.Error("training", "err", err)
		os.Exit(1)
	}
	conf := core.EvaluateFP32(model, test)
	fmt.Printf("test global DSC %.4f (TPR %.4f, TNR %.4f)\n",
		conf.GlobalDice(), conf.GlobalRecall(), conf.GlobalSpecificity())
	for c := 1; c < ctorg.NumClasses; c++ {
		fmt.Printf("  %-10s DSC %.4f\n", ctorg.ClassNames[c], conf.Dice(c))
	}
	if err := model.SaveFile(*out); err != nil {
		lg.Error("saving checkpoint", "path", *out, "err", err)
		os.Exit(1)
	}
	fmt.Printf("checkpoint written to %s\n", *out)

	if *metricsOut == "-" {
		fmt.Print(obs.Default.Expose())
	} else if *metricsOut != "" {
		if err := os.WriteFile(*metricsOut, []byte(obs.Default.Expose()), 0o644); err != nil {
			lg.Error("writing metrics", "path", *metricsOut, "err", err)
			os.Exit(1)
		}
		lg.Info("metrics written", "path", *metricsOut)
	}
}
