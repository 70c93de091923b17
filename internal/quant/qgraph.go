package quant

import (
	"fmt"
	"slices"
	"sync"

	"seneca/internal/graph"
	"seneca/internal/obs"
)

// QNode is one operator of the quantized inference graph.
type QNode struct {
	Name   string
	Kind   graph.Kind
	Inputs []string

	Kernel, Stride, Pad, OutPad int
	InC, OutC                   int

	// Weight is the quantized kernel (Conv: [OutC,InC,K,K] flattened;
	// ConvTranspose: [InC,OutC,K,K] flattened) at fix position WeightFP.
	// For an INT4 layer the codes live in [-8,7] (still one int8 each — the
	// reference path trades storage for simplicity; only the timing model
	// prices the packed 4-bit footprint). Nil for an FP32-fallback layer.
	Weight   []int8
	WeightFP FixPos
	// Bias is int32 at fix position InFP+WeightFP (the accumulator grid).
	Bias []int32

	// Bits is the layer's precision: 4, 8 or 32 (quant.Bits4/Bits8/
	// BitsFP32); 0 means 8 so pre-mixed-precision graphs keep working.
	// Convolutions take it from the QConfig; ReLU and max-pool inherit
	// their producer's so a 4-bit stack keeps a 4-bit activation grid.
	Bits int
	// WeightF/BiasF hold the retained float parameters of an FP32-fallback
	// layer (Bits == BitsFP32); Weight/Bias are nil for those nodes. The
	// layer dequantizes its int8 input, computes in float and requantizes
	// the output back onto the int8 grid at OutFP.
	WeightF []float32
	BiasF   []float32

	// InFP / OutFP are the activation fix positions at this node's input(s)
	// (after requantization to a common grid) and output.
	InFP, OutFP FixPos

	// FusedReLU marks a ReLU folded into this node's write-back path.
	FusedReLU bool

	// OutShape is the single-image CHW output geometry.
	OutShape [3]int

	// Store-target fusion (concat elision). When StoreTarget is non-empty,
	// this node's write-back lands directly in the named concat consumer's
	// buffer at channel offset StoreOffset, with StoreShift applied as a
	// second round-shift after the node's own requantization (two-step
	// rounding, preserving bit-identity with the unfused copy). The
	// annotations exist only on compiled graphs: xmodel.Compile derives them
	// deterministically and xmodel.Read recompiles, so they are never
	// serialized.
	StoreTarget string
	StoreOffset int
	StoreShift  int

	// packOnce guards the lazy lowering of Weight into the micro-kernel's
	// layout (packTileWeights). Weight is immutable once the graph is
	// quantized (FFQ bias correction touches Bias only), so the packed form
	// is computed once and shared read-only by every pooled executor running
	// this graph, including vart's concurrent threads.
	packOnce sync.Once
	phases   []phase
	accBound int64 // no accumulator's magnitude exceeds it: 128·max over lanes of Σ|w|
}

// Clone returns a copy of the node with a fresh (unstarted) packed-weight
// cache. Parameter slices are shared with the original; callers that mutate
// configuration on the copy (e.g. the compiler's ReLU-fusion pass) must not
// also mutate Weight. QNode contains a sync.Once, so it cannot be copied by
// plain assignment.
func (n *QNode) Clone() *QNode {
	return &QNode{
		Name:      n.Name,
		Kind:      n.Kind,
		Inputs:    n.Inputs,
		Kernel:    n.Kernel,
		Stride:    n.Stride,
		Pad:       n.Pad,
		OutPad:    n.OutPad,
		InC:       n.InC,
		OutC:      n.OutC,
		Weight:    n.Weight,
		WeightFP:  n.WeightFP,
		Bias:      n.Bias,
		InFP:      n.InFP,
		OutFP:     n.OutFP,
		Bits:      n.Bits,
		WeightF:   n.WeightF,
		BiasF:     n.BiasF,
		FusedReLU: n.FusedReLU,
		OutShape:  n.OutShape,

		StoreTarget: n.StoreTarget,
		StoreOffset: n.StoreOffset,
		StoreShift:  n.StoreShift,
	}
}

// tilePhases returns the node's INT8 weights as the phases the micro-kernel
// runs (see phase), packing them on first use: one phase of every tap for a
// convolution, stride² tap subsets for a transpose convolution.
func (n *QNode) tilePhases() []phase {
	n.packOnce.Do(func() {
		k, kk := n.Kernel, n.Kernel*n.Kernel
		// Weights are [OutC][InC·K²] for a convolution and [InC][OutC][K²] for
		// a transpose convolution: either way runs of run weights belong to
		// one output channel, and the channel advances every run.
		run := kk
		if n.Kind != graph.KindConvTranspose {
			run *= n.InC
		}
		sums := make([]int64, n.OutC)
		for i := 0; i < len(n.Weight); i += run {
			var sum int64
			for _, w := range n.Weight[i : i+run] {
				sum += max(int64(w), -int64(w))
			}
			sums[i/run%n.OutC] += sum
		}
		n.accBound = 128 * slices.Max(sums)
		if n.Kind != graph.KindConvTranspose {
			taps := make([]int, kk)
			for t := range taps {
				taps[t] = t
			}
			n.phases = []phase{{kh: k, kw: k, baseY: -n.Pad, baseX: -n.Pad,
				w: packTileWeights(n.Weight, n.OutC, n.InC, taps, n.InC*kk, kk)}}
			return
		}
		for ay := 0; ay < n.Stride; ay++ {
			rows, baseY := phaseTaps(k, n.Stride, n.Pad, ay)
			for ax := 0; ax < n.Stride; ax++ {
				cols, baseX := phaseTaps(k, n.Stride, n.Pad, ax)
				var taps []int
				for _, ty := range rows {
					for _, tx := range cols {
						taps = append(taps, ty*k+tx)
					}
				}
				n.phases = append(n.phases, phase{ay: ay, ax: ax, kh: len(rows), kw: len(cols), baseY: baseY, baseX: baseX,
					w: packTileWeights(n.Weight, n.OutC, n.InC, taps, kk, n.OutC*kk)})
			}
		}
	})
	return n.phases
}

// outStep is the distance between neighbouring outputs of one of the node's
// phases: the stride of a transpose convolution, 1 otherwise.
func (n *QNode) outStep() int {
	if n.Kind == graph.KindConvTranspose {
		return n.Stride
	}
	return 1
}

// ValidStride reports whether the executor runs a node of kind k at this
// stride: a transpose convolution upsamples at any stride, and a convolution
// runs at stride 1 only — every shipped model downsamples by max pooling.
// NewExecutor and the xmodel reader both refuse what it rejects.
func ValidStride(k graph.Kind, stride int) bool {
	return k != graph.KindConv || stride == 1
}

// QGraph is a fully-quantized inference graph — the in-memory form of the
// compiled "xmodel" (before instruction lowering in internal/xmodel).
type QGraph struct {
	Nodes  []*QNode
	byName map[string]*QNode

	InputName  string
	OutputName string

	InC, InH, InW int
	// InputFP is the input quantization factor "generated during
	// compilation and stored into the xmodel" (paper Section III-E): the
	// runtime scales incoming FP32 slices by 2^InputFP.
	InputFP FixPos
	// NumClasses is the channel count of the logit output.
	NumClasses int

	// free is the one list of idle scratch arenas (Executor) for this graph:
	// every Execute / ExecuteLabels call, from whichever tier, takes one and
	// puts it back, and concurrent callers each hold their own. It is a plain
	// bounded list rather than a sync.Pool because an arena is megabytes
	// (≈20 MiB for the 1M U-Net at 256², ≈1.2 MiB at 64²) and a pool drops its
	// contents every other GC cycle, so a server rebuilt its arenas about
	// once per volume job; the price is that up to GOMAXPROCS idle arenas per
	// graph stay resident for as long as the graph does. Weights and biases
	// are read at execution time, so later mutation (e.g. FFQ bias
	// correction) is picked up by recycled executors.
	freeMu sync.Mutex
	free   []*Executor
}

// Node returns the named node, or nil.
func (q *QGraph) Node(name string) *QNode { return q.byName[name] }

// RebuildIndex reconstructs the name index from Nodes. Callers that
// assemble or deserialize a QGraph outside this package (the compiler, the
// xmodel reader) must invoke it before Execute.
func (q *QGraph) RebuildIndex() {
	q.byName = make(map[string]*QNode, len(q.Nodes))
	for _, n := range q.Nodes {
		q.byName[n.Name] = n
	}
}

// Options controls quantization.
type Options struct {
	// PerChannelWeights quantizes convolution weights with one fix position
	// per output channel instead of per tensor. The DPU flow uses per-tensor
	// (the default); per-channel is provided for the ablation study.
	PerChannelWeights bool
	// Config assigns per-layer bitwidths (INT4 / INT8 / FP32 fallback) by
	// folded-graph convolution name. Nil keeps the uniform-INT8 flow
	// bit-identical to the pre-mixed-precision quantizer.
	Config *QConfig
}

// effBits normalizes a node's stored precision (0 means 8).
func effBits(n *QNode) int {
	if n.Bits == 0 {
		return Bits8
	}
	return n.Bits
}

// Quantize converts a folded FP32 graph into a QGraph using calibration
// statistics — the PTQ step of Figure 1(D).
func Quantize(g *graph.Graph, cal *Calibration, opt Options) (*QGraph, error) {
	defer obs.Time("quantize")()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("quant: quantizing invalid graph: %w", err)
	}
	if err := opt.Config.Validate(); err != nil {
		return nil, err
	}
	fps := cal.FixPositions()
	q := &QGraph{
		byName: make(map[string]*QNode),
		InC:    g.InC, InH: g.InH, InW: g.InW,
	}
	inputFP, ok := fps[g.InputName]
	if !ok {
		return nil, fmt.Errorf("quant: no calibration data for graph input")
	}
	q.InputFP = inputFP

	for _, n := range g.Nodes {
		qn := &QNode{
			Name: n.Name, Kind: n.Kind,
			Inputs: append([]string(nil), n.Inputs...),
			Kernel: n.Kernel, Stride: n.Stride, Pad: n.Pad, OutPad: n.OutPad,
			InC: n.InC, OutC: n.OutC,
			FusedReLU: n.FusedReLU,
			OutShape:  n.OutShape,
		}
		outFP, ok := fps[n.Name]
		if !ok {
			return nil, fmt.Errorf("quant: no calibration data for node %q", n.Name)
		}
		qn.OutFP = outFP
		switch n.Kind {
		case graph.KindInput:
			qn.OutFP = inputFP
			q.InputName = n.Name
		case graph.KindConv, graph.KindConvTranspose:
			inFP := q.byName[n.Inputs[0]].OutFP
			qn.InFP = inFP
			switch bits := opt.Config.BitsFor(n.Name); bits {
			case Bits8, Bits4:
				qn.Weight, qn.WeightFP = quantizeWeights(n, opt, bits)
				qn.Bias = quantizeBias(n.Bias, inFP+qn.WeightFP)
				if bits == Bits4 {
					// Narrow integer layer: a 4-bit output grid as well, so
					// the write-back clamp and every downstream
					// requantization remain plain shifts.
					qn.Bits = Bits4
					qn.OutFP = BestFixPos(cal.MaxAbs[n.Name], Bits4)
				}
			case BitsFP32:
				// Accuracy fallback: keep the float parameters; the
				// executor dequantizes the int8 input, computes in float
				// and requantizes onto the 8-bit OutFP grid, so the node
				// re-enters the integer domain immediately.
				qn.Bits = BitsFP32
				qn.WeightF = append([]float32(nil), n.Weight.Data...)
				qn.BiasF = append([]float32(nil), n.Bias...)
			default:
				return nil, fmt.Errorf("quant: layer %q: unsupported bitwidth %d", n.Name, bits)
			}
		case graph.KindConcat:
			// Common input grid: the coarser (smaller fp) of the two inputs
			// can represent both ranges; requantize to it, then to OutFP.
			a := q.byName[n.Inputs[0]].OutFP
			b := q.byName[n.Inputs[1]].OutFP
			inFP := a
			if b < inFP {
				inFP = b
			}
			qn.InFP = inFP
		case graph.KindMaxPool, graph.KindReLU:
			prod := q.byName[n.Inputs[0]]
			qn.InFP = prod.OutFP
			if effBits(prod) == Bits4 {
				// Stay on the producer's 4-bit grid: ReLU and pooling
				// preserve ranges, so the inherited narrow fix position
				// still covers the observed activations and a later
				// ReLU-into-conv fusion keeps the 4-bit write-back clamp
				// consistent.
				qn.Bits = Bits4
				qn.OutFP = BestFixPos(cal.MaxAbs[n.Name], Bits4)
			}
		case graph.KindSoftmax:
			// Executed in float on the host (argmax of logits in practice).
			qn.InFP = q.byName[n.Inputs[0]].OutFP
			qn.OutFP = qn.InFP
		case graph.KindBatchNorm:
			return nil, fmt.Errorf("quant: node %q: batch norm must be folded before quantization", n.Name)
		default:
			return nil, fmt.Errorf("quant: unsupported node kind %s", n.Kind)
		}
		q.Nodes = append(q.Nodes, qn)
		q.byName[qn.Name] = qn
	}
	q.OutputName = g.OutputName
	out := g.Output()
	q.NumClasses = out.OutShape[0]
	return q, nil
}

// quantizeWeights puts a convolution's weights on the bits-wide grid at the
// tensor's best fix position.
func quantizeWeights(n *graph.Node, opt Options, bits int) ([]int8, FixPos) {
	common := BestFixPos(n.Weight.MaxAbs(), bits)
	out := make([]int8, n.Weight.Len())
	if !opt.PerChannelWeights || n.Kind != graph.KindConv || bits != Bits8 {
		QuantizeSlice(n.Weight.Data, common, bits, out)
		return out, common
	}
	// Per-output-channel fix positions; the stored tensor uses the finest
	// common representable grid per channel, tracked via one fp per channel.
	// To keep the executor simple we still emit a single weight buffer and
	// pick the per-tensor fp as the min over channels — per-channel mode
	// only changes *rounding*: each channel is rounded on its own grid and
	// then re-expressed on the common grid, reducing rounding error for
	// small-magnitude channels. Only INT8 layers take it.
	kk := n.Kernel * n.Kernel
	per := n.InC * kk
	for oc := 0; oc < n.OutC; oc++ {
		row := n.Weight.Data[oc*per : (oc+1)*per]
		var m float32
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
		chFP := BestFixPos(m, Bits8)
		if chFP < common {
			chFP = common
		}
		// Round on the fine per-channel grid, then shift to the common grid.
		shift := int(chFP - common)
		dst := out[oc*per : (oc+1)*per]
		QuantizeSlice(row, chFP, Bits8, dst)
		for i, q := range dst {
			dst[i] = RoundShift(int64(q), shift, Bits8)
		}
	}
	return out, common
}

func quantizeBias(bias []float32, fp FixPos) []int32 {
	out := make([]int32, len(bias))
	scale := float64(fp.Scale())
	for i, b := range bias {
		v := float64(b) * scale
		switch {
		case v > 2147483000:
			out[i] = 2147483000
		case v < -2147483000:
			out[i] = -2147483000
		default:
			out[i] = int32(roundHalfAway(v))
		}
	}
	return out
}

func roundHalfAway(v float64) float64 {
	if v >= 0 {
		return float64(int64(v + 0.5))
	}
	return -float64(int64(-v + 0.5))
}
