package experiments

import (
	"fmt"
	"io"
	"strings"

	"seneca/internal/ctorg"
	"seneca/internal/metrics"
	"seneca/internal/unet"
	"seneca/internal/vart"
)

// Figure3Series is the energy-efficiency of one execution configuration
// across the five models (one plotted line of Figure 3).
type Figure3Series struct {
	Label string
	// EE maps model name → FPS/W.
	EE map[string]float64
}

// Figure3 reproduces the energy-efficiency comparison: for every Table II
// model, the GPU baseline and the ZCU104 at 1, 2 and 4 threads.
func (e *Env) Figure3(w io.Writer) ([]Figure3Series, error) {
	series := []Figure3Series{
		{Label: "ZCU104 1-Thread", EE: map[string]float64{}},
		{Label: "ZCU104 2-Thread", EE: map[string]float64{}},
		{Label: "ZCU104 4-Thread", EE: map[string]float64{}},
		{Label: "RTX2060 Mobile", EE: map[string]float64{}},
	}
	threads := []int{1, 2, 4}
	for _, cfg := range e.Scale.TimingModels() {
		prog, err := e.TimingProgram(cfg)
		if err != nil {
			return nil, err
		}
		runner := vart.New(e.DPU, prog, 1)
		swept, err := runner.SweepThreads(threads, e.Scale.EvalFrames, 0)
		if err != nil {
			return nil, err
		}
		for i := range threads {
			series[i].EE[cfg.Name] = swept[i].EnergyEfficiency()
		}
		g := e.TimingGraph(cfg)
		gr := e.GPU.SimulateRun(g, e.Scale.EvalFrames, 0)
		series[3].EE[cfg.Name] = gr.EnergyEfficiency()
	}
	fmt.Fprintln(w, "Figure 3 — average energy efficiency [FPS/W] per model")
	fmt.Fprintf(w, "%-18s", "")
	for _, cfg := range e.Scale.TimingModels() {
		fmt.Fprintf(w, "%8s", cfg.Name)
	}
	fmt.Fprintln(w)
	for _, s := range series {
		fmt.Fprintf(w, "%-18s", s.Label)
		for _, cfg := range e.Scale.TimingModels() {
			fmt.Fprintf(w, "%8.2f", s.EE[cfg.Name])
		}
		fmt.Fprintln(w)
	}
	return series, nil
}

// Figure4Point is one bar of Figure 4: DSC·EE for a model at 4 threads.
type Figure4Point struct {
	Config string
	DSC    float64
	EE     float64
	Score  float64 // DSC·EE, Eq. (7)
}

// Figure4 reproduces the accuracy-weighted efficiency figure (Eq. 7) for
// the FPGA 4-thread configurations. It trains every configuration at
// accuracy scale.
func (e *Env) Figure4(w io.Writer) ([]Figure4Point, error) {
	var pts []Figure4Point
	for _, cfg := range e.Scale.TimingModels() {
		prog, err := e.TimingProgram(cfg)
		if err != nil {
			return nil, err
		}
		runner := vart.New(e.DPU, prog, 4)
		fr, err := runner.SimulateThroughput(e.Scale.EvalFrames, 0)
		if err != nil {
			return nil, err
		}
		ee := fr.EnergyEfficiency()

		t, err := e.Trained(accuracyConfig(cfg, e.Scale))
		if err != nil {
			return nil, err
		}
		dsc := t.INT8.Total().GlobalDice()
		pts = append(pts, Figure4Point{Config: cfg.Name, DSC: dsc, EE: ee, Score: dsc * ee})
	}
	fmt.Fprintln(w, "Figure 4 — Dice·EnergyEfficiency (Eq. 7), ZCU104 4 threads")
	for _, p := range pts {
		fmt.Fprintf(w, "%-5s DSC=%.4f EE=%6.2f  DSC·EE=%6.2f %s\n",
			p.Config, p.DSC, p.EE, p.Score, strings.Repeat("█", int(p.Score)))
	}
	return pts, nil
}

// Figure6 reproduces the per-organ Dice boxplots of the deployed SENECA
// model.
func (e *Env) Figure6(w io.Writer, bestName string) (map[uint8]metrics.BoxStats, error) {
	cfg, err := unet.ConfigByName(bestName)
	if err != nil {
		return nil, err
	}
	t, err := e.Trained(accuracyConfig(cfg, e.Scale))
	if err != nil {
		return nil, err
	}
	dist := t.INT8.OrganDice()
	out := make(map[uint8]metrics.BoxStats, len(dist))
	fmt.Fprintln(w, "Figure 6 — per-organ Dice boxplots (per-patient, INT8 on ZCU104)")
	fmt.Fprintf(w, "%-10s %7s %7s %7s %7s %7s  %s\n", "organ", "min", "Q1", "median", "Q3", "max", "")
	for cls := uint8(1); cls < ctorg.NumClasses; cls++ {
		b := metrics.Boxplot(dist[cls])
		out[cls] = b
		fmt.Fprintf(w, "%-10s %7.3f %7.3f %7.3f %7.3f %7.3f  %s\n",
			ctorg.ClassNames[cls], b.Min, b.Q1, b.Median, b.Q3, b.Max, asciiBox(b))
	}
	return out, nil
}

// asciiBox renders a boxplot on a [0,1] axis 50 chars wide.
func asciiBox(b metrics.BoxStats) string {
	const width = 50
	pos := func(v float64) int {
		p := int(v * (width - 1))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	row := []byte(strings.Repeat(" ", width))
	for i := pos(b.WhiskerLow); i <= pos(b.WhiskerHigh); i++ {
		row[i] = '-'
	}
	for i := pos(b.Q1); i <= pos(b.Q3); i++ {
		row[i] = '='
	}
	row[pos(b.Median)] = '|'
	return "[" + string(row) + "]"
}
