// Package mpq searches mixed-precision quantization configurations for the
// SENECA U-Nets: which convolution layers can drop from INT8 to INT4 (two
// MACs per DSP slot, half the weight and activation traffic) and which need
// an FP32 fallback, under a global-Dice floor. The search composes per-layer
// bitwidths (internal/quant QConfig) with structured filter pruning
// (internal/prune) and scores every candidate against the DPU latency model
// (internal/dpu) and the board power model, producing an accuracy-versus-
// FPS/W Pareto frontier.
//
// The output is a Registry of named compiled variants ("fp32-ref",
// "int8-uniform", "mpq-fast", ...) that the serving layer loads so the
// admission router can answer each request tier with a different
// accuracy/latency trade-off (interactive → fast, batch → accurate).
package mpq

import (
	"fmt"
	"sort"

	"seneca/internal/core"
	"seneca/internal/ctorg"
	"seneca/internal/dpu"
	"seneca/internal/graph"
	"seneca/internal/metrics"
	"seneca/internal/obs"
	"seneca/internal/quant"
	"seneca/internal/xmodel"
)

// Options controls sensitivity analysis and search.
type Options struct {
	// Device is the DPU configuration the latency and power models price
	// against. The zero value means the paper's ZCU104 B4096 deployment.
	Device dpu.Config
	// DiceFloorDrop is the maximum tolerated global Dice drop, in points
	// (percent), relative to the uniform-INT8 baseline. Default 1.0.
	DiceFloorDrop float64
	// PruneFraction, when positive, adds pruned variant compositions at
	// this filter-pruning fraction. 0 means no pruned variants.
	PruneFraction float64
	// CandidateBits are the non-INT8 bitwidths the sensitivity analysis
	// probes per layer. Default {Bits4, BitsFP32}.
	CandidateBits []int
	// Metrics, when non-nil, receives the
	// seneca_mpq_search_evaluations_total counter.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Device.Cores == 0 {
		o.Device = dpu.ZCU104B4096()
	}
	if o.DiceFloorDrop == 0 {
		o.DiceFloorDrop = 1.0
	}
	if len(o.CandidateBits) == 0 {
		o.CandidateBits = []int{quant.Bits4, quant.BitsFP32}
	}
	return o
}

// evalCounter returns the search-evaluation counter, registered on the
// configured registry (or a throwaway one, so callers never nil-check).
func (o Options) evalCounter() *obs.Counter {
	r := o.Metrics
	if r == nil {
		r = obs.NewRegistry()
	}
	return r.Counter("seneca_mpq_search_evaluations_total",
		"Full quantize-compile-evaluate passes performed by mixed-precision analysis and search.")
}

// Variant is one named point of the search space: a precision config (and
// optionally a pruned topology), its compiled program, and its measured
// accuracy and modeled performance.
type Variant struct {
	// Name identifies the variant in the registry, the serving tier map and
	// experiment tables.
	Name string `json:"name"`
	// Config is the per-layer bitwidth assignment (nil means uniform INT8).
	Config *quant.QConfig `json:"-"`
	// Pruned reports whether the variant runs on the filter-pruned graph.
	Pruned bool `json:"pruned"`
	// Int4Layers / FP32Layers count the non-INT8 layers.
	Int4Layers int `json:"int4_layers"`
	FP32Layers int `json:"fp32_layers"`

	// GlobalDice is the validation global Dice in percent; DiceDrop is the
	// drop in points relative to the uniform-INT8 baseline (negative means
	// better than the baseline).
	GlobalDice float64 `json:"global_dice"`
	DiceDrop   float64 `json:"dice_drop"`
	// OrganDice is the per-class Dice in percent (index 0 = background).
	OrganDice []float64 `json:"organ_dice"`

	// FPS, Watts and FPSPerWatt come from the single-core DPU frame model
	// and the board power model.
	FPS        float64 `json:"fps"`
	Watts      float64 `json:"watts"`
	FPSPerWatt float64 `json:"fps_per_watt"`
	// OnFrontier marks Pareto-optimal variants (no other variant is at
	// least as good on both Dice and FPS/W and strictly better on one).
	OnFrontier bool `json:"on_frontier"`

	// Program is the compiled xmodel; excluded from JSON reports.
	Program *xmodel.Program `json:"-"`
}

// Registry holds the compiled variants of one search by name, in the order
// they were registered. It satisfies the serving layer's variant-provider
// interface, so a serve front can map request tiers onto registered
// variants directly.
type Registry struct {
	order    []string
	variants map[string]*Variant
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{variants: make(map[string]*Variant)}
}

// Register adds or replaces a variant. A variant without a name or a
// compiled program is rejected.
func (r *Registry) Register(v *Variant) error {
	if v == nil || v.Name == "" {
		return fmt.Errorf("mpq: variant without a name")
	}
	if v.Program == nil {
		return fmt.Errorf("mpq: variant %q has no compiled program", v.Name)
	}
	if _, ok := r.variants[v.Name]; !ok {
		r.order = append(r.order, v.Name)
	}
	r.variants[v.Name] = v
	return nil
}

// VariantNames lists registered variants in registration order.
func (r *Registry) VariantNames() []string {
	return append([]string(nil), r.order...)
}

// Program returns the compiled program of a registered variant, or nil.
func (r *Registry) Program(name string) *xmodel.Program {
	if v, ok := r.variants[name]; ok {
		return v.Program
	}
	return nil
}

// Variant returns the full record of a registered variant, or nil.
func (r *Registry) Variant(name string) *Variant { return r.variants[name] }

func organDicePercent(conf *metrics.Confusion) []float64 {
	out := make([]float64, ctorg.NumClasses)
	for c := 0; c < ctorg.NumClasses; c++ {
		out[c] = 100 * conf.Dice(c)
	}
	return out
}

// measure fills a variant's accuracy and modeled-performance fields.
func measure(v *Variant, val *ctorg.Dataset, dev *dpu.Device, baselineDice float64, evals *obs.Counter) error {
	conf, err := core.EvaluateINT8(v.Program, val)
	if err != nil {
		return err
	}
	evals.Inc()
	v.GlobalDice = 100 * conf.GlobalDice()
	v.DiceDrop = baselineDice - v.GlobalDice
	v.OrganDice = organDicePercent(conf)
	ft := dev.TimeFrame(v.Program)
	if sec := ft.Latency.Seconds(); sec > 0 {
		v.FPS = 1 / sec
	}
	v.Watts = dev.Power(1, ft.Utilization, 1)
	if v.Watts > 0 {
		v.FPSPerWatt = v.FPS / v.Watts
	}
	for _, n := range v.Program.Graph.Nodes {
		if n.Kind != graph.KindConv && n.Kind != graph.KindConvTranspose {
			continue
		}
		switch n.Bits {
		case quant.Bits4:
			v.Int4Layers++
		case quant.BitsFP32:
			v.FP32Layers++
		}
	}
	return nil
}

// markFrontier flags the Pareto-optimal variants over (GlobalDice,
// FPSPerWatt). Ties resolve in favor of keeping both points.
func markFrontier(vs []*Variant) {
	for _, v := range vs {
		v.OnFrontier = true
		for _, o := range vs {
			if o == v {
				continue
			}
			if o.GlobalDice >= v.GlobalDice && o.FPSPerWatt >= v.FPSPerWatt &&
				(o.GlobalDice > v.GlobalDice || o.FPSPerWatt > v.FPSPerWatt) {
				v.OnFrontier = false
				break
			}
		}
	}
}

// sortVariants orders a report deterministically: frontier first, then by
// descending FPS/W, then name.
func sortVariants(vs []*Variant) {
	sort.SliceStable(vs, func(i, j int) bool {
		if vs[i].OnFrontier != vs[j].OnFrontier {
			return vs[i].OnFrontier
		}
		if vs[i].FPSPerWatt != vs[j].FPSPerWatt {
			return vs[i].FPSPerWatt > vs[j].FPSPerWatt
		}
		return vs[i].Name < vs[j].Name
	})
}
