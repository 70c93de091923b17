package experiments

import (
	"fmt"
	"io"

	"seneca/internal/ctorg"
	"seneca/internal/metrics"
	"seneca/internal/unet"
	"seneca/internal/vart"
)

// PaperTableI is the organ frequency distribution the paper measured on
// CT-ORG (Table I), brain excluded and renormalized over the five target
// organs for comparison with the phantom cohort.
var PaperTableI = map[uint8]float64{
	1: 0.2218 / 0.9982, // liver
	2: 0.0251 / 0.9982, // bladder
	3: 0.3417 / 0.9982, // lungs
	4: 0.0470 / 0.9982, // kidneys
	5: 0.3626 / 0.9982, // bones
}

// Table1 reports the dataset's labeled-pixel organ frequencies next to the
// paper's published values.
func (e *Env) Table1(w io.Writer) map[uint8]float64 {
	freqs := e.Train.OrganFrequencies()
	test := e.Test.OrganFrequencies()
	combined := make(map[uint8]float64, 5)
	// Weight by slice counts to approximate the whole-cohort statistic.
	tw := float64(e.Train.Len())
	sw := float64(e.Test.Len())
	for c := uint8(1); c < ctorg.NumClasses; c++ {
		combined[c] = (freqs[c]*tw + test[c]*sw) / (tw + sw)
	}
	fmt.Fprintln(w, "Table I — organ frequencies (% of labeled pixels)")
	fmt.Fprintf(w, "%-10s %10s %10s\n", "organ", "this repo", "paper")
	for c := uint8(1); c < ctorg.NumClasses; c++ {
		fmt.Fprintf(w, "%-10s %9.2f%% %9.2f%%\n", ctorg.ClassNames[c], combined[c]*100, PaperTableI[c]*100)
	}
	return combined
}

// Table2Row is one model-zoo line.
type Table2Row struct {
	Config     string
	Layers     int
	Filters    int
	Parameters int
	// PaperParameters is the count printed in the paper (×10⁶); see
	// DESIGN.md §4.1 on the constant-factor discrepancy.
	PaperParameters float64
}

var paperParams = map[string]float64{"1M": 1.034e6, "2M": 2.329e6, "4M": 4.136e6, "8M": 7.814e6, "16M": 16.522e6}

// Table2 builds every Table II configuration and reports layer/filter/
// parameter counts.
func Table2(w io.Writer) []Table2Row {
	fmt.Fprintln(w, "Table II — model configurations")
	fmt.Fprintf(w, "%-6s %7s %8s %12s %12s\n", "config", "layers", "filters", "params", "paper")
	var rows []Table2Row
	for _, cfg := range unet.TableII() {
		m := unet.New(cfg)
		r := Table2Row{
			Config:          cfg.Name,
			Layers:          cfg.Layers(),
			Filters:         cfg.BaseFilters,
			Parameters:      m.ParamCount(),
			PaperParameters: paperParams[cfg.Name],
		}
		rows = append(rows, r)
		fmt.Fprintf(w, "%-6s %7d %8d %12d %12.0f\n", r.Config, r.Layers, r.Filters, r.Parameters, r.PaperParameters)
	}
	return rows
}

// Table3Result holds the calibration-distribution comparison.
type Table3Result struct {
	Random, Manual [ctorg.NumClasses]float64
}

// Table3 builds random- and manual-sampled calibration sets and reports
// their organ distributions (paper Table III).
func (e *Env) Table3(w io.Writer) Table3Result {
	n := e.Scale.CalibSize
	randIdx := ctorg.RandomCalibration(e.Train, n, e.Scale.Seed)
	manIdx := ctorg.ManualCalibration(e.Train, n, ctorg.TableIIIManualTargets, e.Scale.Seed)
	res := Table3Result{
		Random: ctorg.CalibrationFrequencies(e.Train, randIdx),
		Manual: ctorg.CalibrationFrequencies(e.Train, manIdx),
	}
	fmt.Fprintf(w, "Table III — calibration set organ frequencies (%d slices)\n", n)
	fmt.Fprintf(w, "%-18s", "")
	for c := uint8(1); c < ctorg.NumClasses; c++ {
		fmt.Fprintf(w, "%10s", ctorg.ClassNames[c])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-18s", "Random Sampling")
	for c := uint8(1); c < ctorg.NumClasses; c++ {
		fmt.Fprintf(w, "%9.2f%%", res.Random[c]*100)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-18s", "Manual Sampling")
	for c := uint8(1); c < ctorg.NumClasses; c++ {
		fmt.Fprintf(w, "%9.2f%%", res.Manual[c]*100)
	}
	fmt.Fprintln(w)
	return res
}

// Table4Row is one line of the FP32-GPU vs INT8-FPGA comparison.
type Table4Row struct {
	Config string

	GPUFPS, GPUWatts, GPUEE    metrics.Summary
	FPGAFPS, FPGAWatts, FPGAEE metrics.Summary

	DSCFP32, DSCINT8 metrics.Summary
}

// Table4 reproduces Table IV: for every Table II configuration it measures
// GPU (FP32) and FPGA (INT8, 4 threads) throughput/power/efficiency over
// Scale.Runs jittered runs, and — when withAccuracy is set — trains the
// configuration at accuracy scale and evaluates FP32 and INT8 Dice.
func (e *Env) Table4(w io.Writer, withAccuracy bool) ([]Table4Row, error) {
	var rows []Table4Row
	for _, cfg := range e.Scale.TimingModels() {
		row := Table4Row{Config: cfg.Name}

		prog, err := e.TimingProgram(cfg)
		if err != nil {
			return nil, err
		}
		timingGraph := e.TimingGraph(cfg)

		var gFPS, gW, gEE, fFPS, fW, fEE []float64
		runner := vart.New(e.DPU, prog, 4)
		for run := 0; run < e.Scale.Runs; run++ {
			seed := e.Scale.Seed + int64(run) + 1
			gr := e.GPU.SimulateRun(timingGraph, e.Scale.EvalFrames, seed)
			gFPS = append(gFPS, gr.FPS())
			gW = append(gW, gr.Watts())
			gEE = append(gEE, gr.EnergyEfficiency())
			fr, err := runner.SimulateThroughput(e.Scale.EvalFrames, seed)
			if err != nil {
				return nil, err
			}
			fFPS = append(fFPS, fr.FPS())
			fW = append(fW, fr.Watts())
			fEE = append(fEE, fr.EnergyEfficiency())
		}
		row.GPUFPS = metrics.Summarize(gFPS)
		row.GPUWatts = metrics.Summarize(gW)
		row.GPUEE = metrics.Summarize(gEE)
		row.FPGAFPS = metrics.Summarize(fFPS)
		row.FPGAWatts = metrics.Summarize(fW)
		row.FPGAEE = metrics.Summarize(fEE)

		if withAccuracy {
			acfg := accuracyConfig(cfg, e.Scale)
			t, err := e.Trained(acfg)
			if err != nil {
				return nil, err
			}
			row.DSCFP32 = metrics.Summarize(t.FP32.GlobalDice())
			row.DSCINT8 = metrics.Summarize(t.INT8.GlobalDice())
		}
		rows = append(rows, row)
	}
	printTable4(w, rows, withAccuracy)
	return rows, nil
}

// accuracyConfig adapts a Table II config to the scale's accuracy image
// size (depth must fit the reduced resolution).
func accuracyConfig(cfg unet.Config, s Scale) unet.Config {
	for (1 << (cfg.Depth + 1)) > s.ImageSize {
		cfg.Depth--
	}
	return cfg
}

func printTable4(w io.Writer, rows []Table4Row, withAccuracy bool) {
	fmt.Fprintln(w, "Table IV — FP32 (RTX 2060 Mobile) vs INT8 (ZCU104, 4 threads), µ±σ")
	fmt.Fprintf(w, "%-6s %16s %16s %14s %14s %14s %14s", "config", "FPS fp32", "FPS int8", "W fp32", "W int8", "EE fp32", "EE int8")
	if withAccuracy {
		fmt.Fprintf(w, " %14s %14s", "DSC fp32", "DSC int8")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %16s %16s %14s %14s %14s %14s",
			r.Config, r.GPUFPS, r.FPGAFPS, r.GPUWatts, r.FPGAWatts, r.GPUEE, r.FPGAEE)
		if withAccuracy {
			fmt.Fprintf(w, " %14s %14s",
				fmt.Sprintf("%.2f±%.2f", r.DSCFP32.Mean*100, r.DSCFP32.Std*100),
				fmt.Sprintf("%.2f±%.2f", r.DSCINT8.Mean*100, r.DSCINT8.Std*100))
		}
		fmt.Fprintln(w)
	}
}

// CTORGReference is the comparison column of Table V, quoted from the
// CT-ORG paper [17] exactly as the SENECA paper quotes it.
type CTORGReference struct {
	FPSLow, FPSHigh float64
	GlobalDSC       metrics.Summary
	OrganDSC        map[uint8]metrics.Summary
}

// CTORGPaper returns the published CT-ORG 3D U-Net results [17].
func CTORGPaper() CTORGReference {
	return CTORGReference{
		FPSLow: 17, FPSHigh: 197,
		GlobalDSC: metrics.Summary{Mean: 0.8817, Std: 0.0516},
		OrganDSC: map[uint8]metrics.Summary{
			1: {Mean: 0.9200, Std: 0.036},
			2: {Mean: 0.5810, Std: 0.223},
			3: {Mean: 0.9380, Std: 0.059},
			4: {Mean: 0.8820, Std: 0.079},
			5: {Mean: 0.8270, Std: 0.076},
		},
	}
}

// Table5Result is the best-model deep dive.
type Table5Result struct {
	BestConfig string

	FPGAFPS, FPGAEE metrics.Summary
	GPUFPS, GPUEE   metrics.Summary
	GlobalFPGA      metrics.Summary
	GlobalGPU       metrics.Summary
	OrganFPGA       map[uint8]metrics.Summary
	OrganGPU        map[uint8]metrics.Summary
	GlobalTPR       float64
	GlobalTNR       float64
	Reference       CTORGReference
}

// Table5 reproduces Table V for the selected best configuration (the paper
// selects 1M on 4 threads, Section IV-C).
func (e *Env) Table5(w io.Writer, bestName string) (*Table5Result, error) {
	cfg, err := unet.ConfigByName(bestName)
	if err != nil {
		return nil, err
	}
	res := &Table5Result{
		BestConfig: bestName,
		OrganFPGA:  make(map[uint8]metrics.Summary),
		OrganGPU:   make(map[uint8]metrics.Summary),
		Reference:  CTORGPaper(),
	}

	// Performance (timing-exact).
	prog, err := e.TimingProgram(cfg)
	if err != nil {
		return nil, err
	}
	timingGraph := e.TimingGraph(cfg)
	var fFPS, fEE, gFPS, gEE []float64
	runner := vart.New(e.DPU, prog, 4)
	for run := 0; run < e.Scale.Runs; run++ {
		seed := e.Scale.Seed + int64(run) + 1
		fr, err := runner.SimulateThroughput(e.Scale.EvalFrames, seed)
		if err != nil {
			return nil, err
		}
		fFPS = append(fFPS, fr.FPS())
		fEE = append(fEE, fr.EnergyEfficiency())
		gr := e.GPU.SimulateRun(timingGraph, e.Scale.EvalFrames, seed)
		gFPS = append(gFPS, gr.FPS())
		gEE = append(gEE, gr.EnergyEfficiency())
	}
	res.FPGAFPS = metrics.Summarize(fFPS)
	res.FPGAEE = metrics.Summarize(fEE)
	res.GPUFPS = metrics.Summarize(gFPS)
	res.GPUEE = metrics.Summarize(gEE)

	// Accuracy (trained at accuracy scale).
	t, err := e.Trained(accuracyConfig(cfg, e.Scale))
	if err != nil {
		return nil, err
	}
	res.GlobalGPU = metrics.Summarize(t.FP32.GlobalDice())
	res.GlobalFPGA = metrics.Summarize(t.INT8.GlobalDice())
	for cls, vals := range t.INT8.OrganDice() {
		res.OrganFPGA[cls] = metrics.Summarize(vals)
	}
	for cls, vals := range t.FP32.OrganDice() {
		res.OrganGPU[cls] = metrics.Summarize(vals)
	}
	conf := t.INT8.Total()
	res.GlobalTPR = conf.GlobalRecall()
	res.GlobalTNR = conf.GlobalSpecificity()

	printTable5(w, res)
	return res, nil
}

func printTable5(w io.Writer, r *Table5Result) {
	pct := func(s metrics.Summary) string {
		return fmt.Sprintf("%.2f±%.2f", s.Mean*100, s.Std*100)
	}
	fmt.Fprintf(w, "Table V — SENECA (%s, FPGA 4 threads) vs GPU vs CT-ORG [17]\n", r.BestConfig)
	fmt.Fprintf(w, "%-18s %14s %14s %14s\n", "", "FPGA", "GPU", "CT-ORG [17]")
	fmt.Fprintf(w, "%-18s %14s %14s %9.0f-%.0f\n", "FPS", r.FPGAFPS, r.GPUFPS, r.Reference.FPSLow, r.Reference.FPSHigh)
	fmt.Fprintf(w, "%-18s %14s %14s %14s\n", "Energy Efficiency", r.FPGAEE, r.GPUEE, "n/a")
	fmt.Fprintf(w, "%-18s %14s %14s %14s\n", "Global DSC", pct(r.GlobalFPGA), pct(r.GlobalGPU), pct(r.Reference.GlobalDSC))
	for cls := uint8(1); cls < ctorg.NumClasses; cls++ {
		fmt.Fprintf(w, "%-18s %14s %14s %14s\n", ctorg.ClassNames[cls]+" DSC",
			pct(r.OrganFPGA[cls]), pct(r.OrganGPU[cls]), pct(r.Reference.OrganDSC[cls]))
	}
	fmt.Fprintf(w, "%-18s %13.2f%%\n", "Global TPR", r.GlobalTPR*100)
	fmt.Fprintf(w, "%-18s %13.2f%%\n", "Global TNR", r.GlobalTNR*100)
}
