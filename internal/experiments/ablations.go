package experiments

import (
	"fmt"
	"io"

	"seneca/internal/core"
	"seneca/internal/ctorg"
	"seneca/internal/prune"
	"seneca/internal/quant"
	"seneca/internal/unet"
	"seneca/internal/vart"
	"seneca/internal/xmodel"
)

// QuantModeResult is one row of the PTQ/FFQ/QAT ablation (Section III-D:
// "We decide to test both the remaining FFQ and QAT, but without achieving
// improvements over PTQ").
type QuantModeResult struct {
	Mode      core.QuantMode
	GlobalDSC float64
	OrganDSC  map[uint8]float64
}

// AblationQuantModes trains the given configuration once per quantization
// mode and evaluates INT8 accuracy.
func (e *Env) AblationQuantModes(w io.Writer, cfgName string) ([]QuantModeResult, error) {
	base, err := unet.ConfigByName(cfgName)
	if err != nil {
		return nil, err
	}
	acfg := accuracyConfig(base, e.Scale)
	var out []QuantModeResult
	for _, mode := range []core.QuantMode{core.QuantPTQ, core.QuantFFQ, core.QuantQAT} {
		pcfg := core.DefaultPipelineConfig(acfg)
		pcfg.Train.Epochs = e.Scale.TrainEpochs
		pcfg.Train.BatchSize = e.Scale.BatchSize
		pcfg.CalibSize = e.Scale.CalibSize
		pcfg.Seed = e.Scale.Seed
		pcfg.QuantMode = mode
		e.logf("ablation: quant mode %s...\n", mode)
		art, err := core.RunPipeline(e.Train, pcfg)
		if err != nil {
			return nil, err
		}
		conf, err := core.EvaluateINT8(art.Program, e.Test)
		if err != nil {
			return nil, err
		}
		r := QuantModeResult{Mode: mode, GlobalDSC: conf.GlobalDice(), OrganDSC: map[uint8]float64{}}
		for cls := uint8(1); cls < ctorg.NumClasses; cls++ {
			r.OrganDSC[cls] = conf.Dice(int(cls))
		}
		out = append(out, r)
	}
	fmt.Fprintln(w, "Ablation — quantization procedure (Section III-D)")
	for _, r := range out {
		fmt.Fprintf(w, "%-4s global DSC %.4f\n", r.Mode, r.GlobalDSC)
	}
	return out, nil
}

// ThreadScalingPoint is one row of the 1..8 thread sweep (Section IV-B).
type ThreadScalingPoint struct {
	Threads int
	FPS     float64
	Watts   float64
	EE      float64
}

// AblationThreadScaling sweeps the runtime thread count on the given
// configuration, showing saturation at 4 threads and the power-only cost of
// 8+ threads.
func (e *Env) AblationThreadScaling(w io.Writer, cfgName string) ([]ThreadScalingPoint, error) {
	cfg, err := unet.ConfigByName(cfgName)
	if err != nil {
		return nil, err
	}
	prog, err := e.TimingProgram(cfg)
	if err != nil {
		return nil, err
	}
	runner := vart.New(e.DPU, prog, 1)
	var out []ThreadScalingPoint
	fmt.Fprintf(w, "Ablation — thread scaling (%s on ZCU104)\n", cfgName)
	fmt.Fprintf(w, "%8s %10s %8s %8s\n", "threads", "FPS", "W", "FPS/W")
	threadCounts := []int{1, 2, 3, 4, 5, 6, 8}
	swept, err := runner.SweepThreads(threadCounts, e.Scale.EvalFrames, 0)
	if err != nil {
		return nil, err
	}
	for i, t := range threadCounts {
		r := swept[i]
		p := ThreadScalingPoint{Threads: t, FPS: r.FPS(), Watts: r.Watts(), EE: r.EnergyEfficiency()}
		out = append(out, p)
		fmt.Fprintf(w, "%8d %10.1f %8.2f %8.2f\n", p.Threads, p.FPS, p.Watts, p.EE)
	}
	return out, nil
}

// PruningPoint is one row of the pruning study — the paper's stated future
// work (Section V: "we will evaluate some pruning techniques to
// additionally improve throughput and energy efficiency").
type PruningPoint struct {
	Fraction  float64
	FPS       float64
	EE        float64
	GlobalDSC float64
	Params    int64
}

// AblationPruning sweeps structured filter-pruning fractions on the trained
// best model: accuracy measured bit-accurately on the pruned+quantized
// graph, throughput on the timing-scale pruned program.
func (e *Env) AblationPruning(w io.Writer, cfgName string, fractions []float64) ([]PruningPoint, error) {
	base, err := unet.ConfigByName(cfgName)
	if err != nil {
		return nil, err
	}
	art, err := e.Trained(accuracyConfig(base, e.Scale))
	if err != nil {
		return nil, err
	}
	calib := e.Train.Images(art.CalibIndices)

	timingModel := unet.New(base)
	timingGraph := timingModel.Export(e.Scale.TimingImageSize, e.Scale.TimingImageSize)

	var out []PruningPoint
	fmt.Fprintf(w, "Ablation — structured pruning (%s, paper future work)\n", cfgName)
	fmt.Fprintf(w, "%10s %10s %8s %10s %12s\n", "pruned", "FPS(4t)", "FPS/W", "globalDSC", "conv params")
	for _, f := range append([]float64{0}, fractions...) {
		accGraph := art.Graph
		timGraph := timingGraph
		var params int64
		if f > 0 {
			var rep *prune.Report
			accGraph, _, err = prune.Prune(art.Graph, prune.Options{Fraction: f, Align: 8, MinChannels: 8})
			if err != nil {
				return nil, err
			}
			timGraph, rep, err = prune.Prune(timingGraph, prune.Options{Fraction: f, Align: 8, MinChannels: 8})
			if err != nil {
				return nil, err
			}
			params = rep.ParamsAfter
		}
		// Accuracy: quantize the (pruned) accuracy graph and evaluate.
		q, err := quant.PTQ(accGraph, calib, quant.Options{})
		if err != nil {
			return nil, err
		}
		prog, err := xmodel.Compile(q, cfgName)
		if err != nil {
			return nil, err
		}
		conf, err := core.EvaluateINT8(prog, e.Test)
		if err != nil {
			return nil, err
		}
		// Throughput: compile the timing-scale pruned graph.
		tq, err := quant.QuantizeShapeOnly(timGraph)
		if err != nil {
			return nil, err
		}
		tprog, err := xmodel.Compile(tq, cfgName)
		if err != nil {
			return nil, err
		}
		if params == 0 {
			params = tprog.Stats().WeightBytes
		}
		runner := vart.New(e.DPU, tprog, 4)
		r, err := runner.SimulateThroughput(e.Scale.EvalFrames, 0)
		if err != nil {
			return nil, err
		}
		p := PruningPoint{Fraction: f, FPS: r.FPS(), EE: r.EnergyEfficiency(), GlobalDSC: conf.GlobalDice(), Params: params}
		out = append(out, p)
		fmt.Fprintf(w, "%9.0f%% %10.1f %8.2f %10.4f %12d\n", f*100, p.FPS, p.EE, p.GlobalDSC, p.Params)
	}
	return out, nil
}

// LossResult is one row of the loss-function ablation (Section III-C
// motivates the weighted Focal Tversky loss against plainer choices).
type LossResult struct {
	Loss      string
	GlobalDSC float64
	// SmallOrganDSC is the mean Dice of bladder and kidneys — the classes
	// the weighted loss is designed to rescue.
	SmallOrganDSC float64
	// LargeOrganDSC is the mean Dice of liver, lungs and bones.
	LargeOrganDSC float64
}

// AblationLosses trains the configuration with each loss and compares
// small-organ accuracy.
func (e *Env) AblationLosses(w io.Writer, cfgName string) ([]LossResult, error) {
	base, err := unet.ConfigByName(cfgName)
	if err != nil {
		return nil, err
	}
	acfg := accuracyConfig(base, e.Scale)
	var out []LossResult
	for _, lossName := range []string{"focal-tversky", "focal-tversky-unweighted", "dice", "cross-entropy"} {
		cfg := core.DefaultTrainConfig()
		cfg.Epochs = e.Scale.TrainEpochs
		cfg.BatchSize = e.Scale.BatchSize
		cfg.Loss = lossName
		cfg.Seed = e.Scale.Seed
		e.logf("ablation: loss %s...\n", lossName)
		model, _, err := core.Train(acfg, e.Train, cfg)
		if err != nil {
			return nil, err
		}
		conf := core.EvaluateFP32(model, e.Test)
		r := LossResult{
			Loss:          lossName,
			GlobalDSC:     conf.GlobalDice(),
			SmallOrganDSC: (conf.Dice(2) + conf.Dice(4)) / 2,
			LargeOrganDSC: (conf.Dice(1) + conf.Dice(3) + conf.Dice(5)) / 3,
		}
		out = append(out, r)
	}
	fmt.Fprintln(w, "Ablation — training loss (Section III-C)")
	fmt.Fprintf(w, "%-26s %10s %12s %12s\n", "loss", "global", "small organs", "large organs")
	for _, r := range out {
		fmt.Fprintf(w, "%-26s %10.4f %12.4f %12.4f\n", r.Loss, r.GlobalDSC, r.SmallOrganDSC, r.LargeOrganDSC)
	}
	return out, nil
}
