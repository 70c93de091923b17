package mpq

import (
	"fmt"
	"sort"

	"seneca/internal/core"
	"seneca/internal/ctorg"
	"seneca/internal/graph"
	"seneca/internal/obs"
	"seneca/internal/quant"
	"seneca/internal/tensor"
	"seneca/internal/xmodel"
)

// Sensitivity is one probe of the per-layer analysis: the named layer moved
// alone to the candidate bitwidth, every other layer held at INT8.
type Sensitivity struct {
	// Layer is the folded-graph convolution name.
	Layer string `json:"layer"`
	// Bits is the probed bitwidth (4 or 32).
	Bits int `json:"bits"`
	// GlobalDice is the resulting validation global Dice in percent.
	GlobalDice float64 `json:"global_dice"`
	// Drop is the Dice drop in points versus the uniform-INT8 baseline
	// (negative: the probe helped).
	Drop float64 `json:"drop"`
	// OrganDice is the per-class Dice in percent (index 0 = background).
	OrganDice []float64 `json:"organ_dice"`
}

// Table is a deterministic sensitivity table: one entry per convolution
// layer (folded topological order) per candidate bitwidth.
type Table struct {
	// BaselineDice is the uniform-INT8 global Dice in percent.
	BaselineDice float64 `json:"baseline_dice"`
	// Entries holds every probe, in layer-major, candidate-order.
	Entries []Sensitivity `json:"entries"`
	// Evaluations counts the quantize-compile-evaluate passes performed.
	Evaluations int `json:"evaluations"`
}

// Int4Order returns the INT4-probed layers sorted by ascending Dice drop
// (least sensitive first) — the flip order the greedy search follows. Ties
// break on layer name so the order is total.
func (t *Table) Int4Order() []string {
	var probes []Sensitivity
	for _, e := range t.Entries {
		if e.Bits == quant.Bits4 {
			probes = append(probes, e)
		}
	}
	sort.SliceStable(probes, func(i, j int) bool {
		if probes[i].Drop != probes[j].Drop {
			return probes[i].Drop < probes[j].Drop
		}
		return probes[i].Layer < probes[j].Layer
	})
	names := make([]string, len(probes))
	for i, p := range probes {
		names[i] = p.Layer
	}
	return names
}

// calibrated bundles the one-time fold + calibration of a model, shared
// across every probe and search step.
type calibrated struct {
	folded *graph.Graph
	cal    *quant.Calibration
	layers []string // convolution names, topological order
}

func calibrate(g *graph.Graph, calib []*tensor.Tensor) (*calibrated, error) {
	folded, err := quant.Fold(g)
	if err != nil {
		return nil, err
	}
	cal, err := quant.Calibrate(folded, calib)
	if err != nil {
		return nil, err
	}
	c := &calibrated{folded: folded, cal: cal}
	for _, n := range folded.Nodes {
		if n.Kind == graph.KindConv || n.Kind == graph.KindConvTranspose {
			c.layers = append(c.layers, n.Name)
		}
	}
	return c, nil
}

// compile quantizes the calibrated graph under cfg and compiles it.
func (c *calibrated) compile(cfg *quant.QConfig, name string) (*xmodel.Program, error) {
	q, err := quant.Quantize(c.folded, c.cal, quant.Options{Config: cfg})
	if err != nil {
		return nil, err
	}
	return xmodel.Compile(q, name)
}

// Analyze measures, for every convolution layer and every candidate
// bitwidth, the validation Dice when that single layer changes precision
// and the rest of the network stays INT8. The fold and calibration run
// once; each probe is one quantize+compile+evaluate pass. The resulting
// table is a deterministic function of its inputs: layers in topological
// order, candidates in the given order, and every evaluation exact integer
// (or order-fixed float) arithmetic.
func Analyze(g *graph.Graph, calib []*tensor.Tensor, val *ctorg.Dataset, opt Options) (*Table, error) {
	opt = opt.withDefaults()
	c, err := calibrate(g, calib)
	if err != nil {
		return nil, err
	}
	return analyzeCalibrated(c, val, opt, opt.evalCounter())
}

func analyzeCalibrated(c *calibrated, val *ctorg.Dataset, opt Options, evals *obs.Counter) (*Table, error) {
	base, err := c.compile(nil, "int8-baseline")
	if err != nil {
		return nil, err
	}
	conf, err := core.EvaluateINT8(base, val)
	if err != nil {
		return nil, err
	}
	evals.Inc()
	t := &Table{BaselineDice: 100 * conf.GlobalDice(), Evaluations: 1}
	for _, layer := range c.layers {
		for _, bits := range opt.CandidateBits {
			if bits == quant.Bits8 {
				continue
			}
			cfg := &quant.QConfig{Layers: map[string]int{layer: bits}}
			prog, err := c.compile(cfg, fmt.Sprintf("probe-%s-%d", layer, bits))
			if err != nil {
				return nil, fmt.Errorf("mpq: probing %s@%d: %w", layer, bits, err)
			}
			pc, err := core.EvaluateINT8(prog, val)
			if err != nil {
				return nil, err
			}
			evals.Inc()
			t.Evaluations++
			dice := 100 * pc.GlobalDice()
			t.Entries = append(t.Entries, Sensitivity{
				Layer:      layer,
				Bits:       bits,
				GlobalDice: dice,
				Drop:       t.BaselineDice - dice,
				OrganDice:  organDicePercent(pc),
			})
		}
	}
	return t, nil
}
