package mpq

import (
	"fmt"

	"seneca/internal/core"
	"seneca/internal/ctorg"
	"seneca/internal/dpu"
	"seneca/internal/graph"
	"seneca/internal/obs"
	"seneca/internal/prune"
	"seneca/internal/quant"
	"seneca/internal/tensor"
)

// Frontier is the result of a mixed-precision search: every evaluated
// variant with the Pareto-optimal ones marked, plus the sensitivity table
// behind the flip order.
type Frontier struct {
	// BaselineDice is the uniform-INT8 global Dice in percent; drops are
	// measured against it.
	BaselineDice float64 `json:"baseline_dice"`
	// DiceFloorDrop is the constraint the search ran under, in points.
	DiceFloorDrop float64 `json:"dice_floor_drop"`
	// Variants holds every evaluated variant, frontier members first, then
	// by descending FPS/W.
	Variants []*Variant `json:"variants"`
	// Sensitivity is the per-layer table the greedy flip order came from.
	Sensitivity *Table `json:"sensitivity"`
	// Evaluations counts every quantize-compile-evaluate pass of the whole
	// search (analysis probes included).
	Evaluations int `json:"evaluations"`
}

// Registry compiles the frontier's variants into a serving registry, in
// the frontier's (deterministic) variant order.
func (f *Frontier) Registry() (*Registry, error) {
	reg := NewRegistry()
	for _, v := range f.Variants {
		if err := reg.Register(v); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// greedyInt4 flips layers to INT4 in the table's least-sensitive-first
// order, keeping each flip only if the measured global Dice stays within
// fastBudget points of the baseline. It returns the final config and, when
// balancedBudget < fastBudget, the last config that was also within the
// tighter balanced budget. Configs are nil when no flip survived the
// respective budget.
func greedyInt4(c *calibrated, val *ctorg.Dataset, order []string, baseline, fastBudget, balancedBudget float64, evals *obs.Counter, evalCount *int) (fast, balanced *quant.QConfig, err error) {
	cur := &quant.QConfig{Layers: map[string]int{}}
	for _, layer := range order {
		cur.Layers[layer] = quant.Bits4
		prog, err := c.compile(cur, "greedy")
		if err != nil {
			return nil, nil, err
		}
		conf, err := core.EvaluateINT8(prog, val)
		if err != nil {
			return nil, nil, err
		}
		evals.Inc()
		*evalCount++
		drop := baseline - 100*conf.GlobalDice()
		if drop > fastBudget {
			delete(cur.Layers, layer) // revert: this flip breaks the floor
			continue
		}
		fast = cur.Clone()
		if drop <= balancedBudget {
			balanced = cur.Clone()
		}
	}
	return fast, balanced, nil
}

// Search runs the full mixed-precision search on a trained FP32 graph:
// sensitivity analysis, greedy INT4 flipping under the Dice floor, optional
// pruned compositions, and Pareto marking over (Dice, FPS/W). The returned
// frontier always contains the fp32-ref and int8-uniform anchors; mixed
// and pruned variants appear when the search finds configs inside the
// floor. Everything is deterministic: same graph, calibration set and
// validation set give a bit-identical frontier.
func Search(g *graph.Graph, calib []*tensor.Tensor, val *ctorg.Dataset, opt Options) (*Frontier, error) {
	opt = opt.withDefaults()
	evals := opt.evalCounter()
	dev := dpu.New(opt.Device)

	c, err := calibrate(g, calib)
	if err != nil {
		return nil, err
	}
	table, err := analyzeCalibrated(c, val, opt, evals)
	if err != nil {
		return nil, err
	}
	f := &Frontier{
		BaselineDice:  table.BaselineDice,
		DiceFloorDrop: opt.DiceFloorDrop,
		Sensitivity:   table,
		Evaluations:   table.Evaluations,
	}

	add := func(name string, cfg *quant.QConfig, cc *calibrated, pruned bool) (*Variant, error) {
		prog, err := cc.compile(cfg, name)
		if err != nil {
			return nil, fmt.Errorf("mpq: compiling variant %q: %w", name, err)
		}
		v := &Variant{Name: name, Config: cfg, Pruned: pruned, Program: prog}
		if err := measure(v, val, dev, f.BaselineDice, evals); err != nil {
			return nil, err
		}
		f.Evaluations++
		f.Variants = append(f.Variants, v)
		return v, nil
	}

	if _, err := add("fp32-ref", &quant.QConfig{DefaultBits: quant.BitsFP32}, c, false); err != nil {
		return nil, err
	}
	if _, err := add("int8-uniform", nil, c, false); err != nil {
		return nil, err
	}

	fastCfg, balancedCfg, err := greedyInt4(c, val, table.Int4Order(),
		f.BaselineDice, opt.DiceFloorDrop, opt.DiceFloorDrop/2, evals, &f.Evaluations)
	if err != nil {
		return nil, err
	}
	if fastCfg != nil {
		if _, err := add("mpq-fast", fastCfg, c, false); err != nil {
			return nil, err
		}
	}
	if balancedCfg != nil && len(balancedCfg.Layers) != len(fastCfg.Layers) {
		if _, err := add("mpq-balanced", balancedCfg, c, false); err != nil {
			return nil, err
		}
	}

	if opt.PruneFraction > 0 {
		popt := prune.DefaultOptions()
		popt.Fraction = opt.PruneFraction
		pg, _, err := prune.Prune(g, popt)
		if err != nil {
			return nil, fmt.Errorf("mpq: pruning for composition variants: %w", err)
		}
		// The pruned topology has different activation ranges: recalibrate.
		pc, err := calibrate(pg, calib)
		if err != nil {
			return nil, err
		}
		if _, err := add("int8-pruned", nil, pc, true); err != nil {
			return nil, err
		}
		ptable, err := analyzeCalibrated(pc, val, Options{CandidateBits: []int{quant.Bits4}}, evals)
		if err != nil {
			return nil, err
		}
		f.Evaluations += ptable.Evaluations
		pFast, _, err := greedyInt4(pc, val, ptable.Int4Order(),
			f.BaselineDice, opt.DiceFloorDrop, 0, evals, &f.Evaluations)
		if err != nil {
			return nil, err
		}
		if pFast != nil {
			if _, err := add("mpq-fast-pruned", pFast, pc, true); err != nil {
				return nil, err
			}
		}
	}

	markFrontier(f.Variants)
	sortVariants(f.Variants)
	return f, nil
}
