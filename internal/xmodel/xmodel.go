// Package xmodel is the Go analog of the Vitis AI compiler VAI_C (paper
// Section III-E): it takes a quantized inference graph, applies
// compile-time optimizations (activation fusion into the convolution
// write-back path, elision of host-side nodes), lowers the result to a DPU
// instruction stream annotated with workload descriptors (MACs, bytes
// moved) for the timing model, and serializes the whole program as a binary
// "xmodel" file.
package xmodel

import (
	"fmt"
	"time"

	"seneca/internal/graph"
	"seneca/internal/obs"
	"seneca/internal/quant"
	"seneca/internal/tensor"
)

// OpCode enumerates DPU instruction kinds.
type OpCode uint8

// Instruction opcodes. LOAD fetches a layer's weights from DDR to the
// on-chip weight buffer; CONV/DCONV run the hybrid computing array; POOL
// and CONCAT run the lightweight datapath; SAVE writes the final feature
// map back to DDR.
const (
	OpLoad OpCode = iota
	OpConv
	OpDConv // transpose ("deconvolution") convolution
	OpPool
	OpConcat
	OpSave
)

var opNames = map[OpCode]string{
	OpLoad: "LOAD", OpConv: "CONV", OpDConv: "DCONV",
	OpPool: "POOL", OpConcat: "CONCAT", OpSave: "SAVE",
}

// String returns the mnemonic.
func (o OpCode) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Instruction is one scheduled DPU operation with its workload descriptor.
type Instruction struct {
	Op   OpCode
	Node string // source graph node (empty for SAVE)

	// Workload descriptor used by the cycle model.
	MACs        int64 // multiply-accumulates (0 for data movement)
	WeightBytes int64 // weight+bias traffic
	InBytes     int64 // input feature-map traffic
	OutBytes    int64 // output feature-map traffic

	// Geometry, used for the tiling-occupancy model.
	InC, OutC      int
	OutH, OutW     int
	Kernel, Stride int
	FusedReLU      bool

	// Bits is the operating precision (quant.Bits4/Bits8/BitsFP32; 0 means
	// 8). INT4 layers halve weight and output traffic and double the MAC
	// rate of the hybrid computing array; FP32-fallback layers run on the
	// scalar path at a heavy cycle penalty.
	Bits int
}

// Program is a compiled xmodel: the quantized graph (functional semantics)
// plus the scheduled instruction stream (performance semantics).
type Program struct {
	Name string
	// Graph carries the weights and fix positions; the DPU simulator
	// executes it bit-accurately.
	Graph *quant.QGraph
	// Instructions is the lowered schedule.
	Instructions []Instruction
}

// Compile optimizes and lowers a quantized graph. The input QGraph is not
// modified: fusion operates on a copy. Two fusion passes run: activation
// fusion (ReLU into the producing convolution's write-back) and store-target
// fusion (single-consumer convolutions feeding a concat write directly into
// the concat buffer, eliding the copy). Both are deterministic functions of
// the graph, so recompiling a deserialized xmodel reproduces them exactly.
func Compile(q *quant.QGraph, name string) (*Program, error) {
	defer obs.Time("compile")()
	fused, err := fuseActivations(q)
	if err != nil {
		return nil, err
	}
	fuseStoreTargets(fused)
	prog := &Program{Name: name, Graph: fused}
	for _, n := range fused.Nodes {
		switch n.Kind {
		case graph.KindInput:
			// Input load is accounted by the first consumer's InBytes.
		case graph.KindConv, graph.KindConvTranspose:
			prog.Instructions = append(prog.Instructions, loweredConv(n))
		case graph.KindMaxPool:
			bits := effNodeBits(n)
			inBytes := padC(n.OutShape[0]) * int64(n.OutShape[1]*2) * int64(n.OutShape[2]*2)
			prog.Instructions = append(prog.Instructions, Instruction{
				Op: OpPool, Node: n.Name,
				InBytes:  packBytes(inBytes, bits),
				OutBytes: packBytes(padC(n.OutShape[0])*int64(n.OutShape[1])*int64(n.OutShape[2]), bits),
				InC:      n.OutShape[0], OutC: n.OutShape[0],
				OutH: n.OutShape[1], OutW: n.OutShape[2],
				Kernel: 2, Stride: 2,
				Bits: bits,
			})
		case graph.KindConcat:
			// Store-target fusion: inputs whose producer writes directly into
			// the concat buffer cost this instruction nothing; only the copied
			// sides move bytes. A fully-fused concat lowers to no instruction
			// at all — the scheduler sees fewer, fatter ops.
			var bytes int64
			for _, inName := range n.Inputs {
				p := fused.Node(inName)
				if p == nil || p.StoreTarget == n.Name {
					continue
				}
				bytes += padC(p.OutShape[0]) * int64(n.OutShape[1]) * int64(n.OutShape[2])
			}
			if bytes == 0 {
				continue
			}
			prog.Instructions = append(prog.Instructions, Instruction{
				Op: OpConcat, Node: n.Name,
				InBytes: bytes, OutBytes: bytes,
				InC: n.OutShape[0], OutC: n.OutShape[0],
				OutH: n.OutShape[1], OutW: n.OutShape[2],
			})
		case graph.KindSoftmax:
			// Host-side op: not lowered (argmax of INT8 logits on the CPU).
		default:
			return nil, fmt.Errorf("xmodel: cannot lower node %q of kind %s", n.Name, n.Kind)
		}
	}
	out := fused.Node(fused.OutputName)
	var outBytes int64
	if out != nil {
		outBytes = int64(out.OutShape[0]) * int64(out.OutShape[1]) * int64(out.OutShape[2])
	}
	prog.Instructions = append(prog.Instructions, Instruction{Op: OpSave, OutBytes: outBytes})
	return prog, nil
}

func loweredConv(n *quant.QNode) Instruction {
	op := OpConv
	var macs int64
	var inBytes int64
	switch n.Kind {
	case graph.KindConv:
		// Output-centric: each output pixel needs InC·K² MACs.
		macs = int64(n.OutC) * int64(n.OutShape[1]) * int64(n.OutShape[2]) * int64(n.InC) * int64(n.Kernel*n.Kernel)
		ih := n.OutShape[1] * n.Stride
		iw := n.OutShape[2] * n.Stride
		inBytes = padC(n.InC) * int64(ih) * int64(iw)
		op = OpConv
	case graph.KindConvTranspose:
		// Input-centric: each input pixel scatters OutC·K² MACs.
		ih := n.OutShape[1] / n.Stride
		iw := n.OutShape[2] / n.Stride
		macs = int64(n.InC) * int64(ih) * int64(iw) * int64(n.OutC) * int64(n.Kernel*n.Kernel)
		inBytes = padC(n.InC) * int64(ih) * int64(iw)
		op = OpDConv
	}
	bits := effNodeBits(n)
	var weightBytes int64
	switch bits {
	case quant.BitsFP32:
		weightBytes = 4*int64(len(n.WeightF)) + 4*int64(len(n.BiasF))
	case quant.Bits4:
		// Two 4-bit codes pack per byte in DDR; biases stay 32-bit.
		weightBytes = (int64(len(n.Weight))+1)/2 + int64(len(n.Bias))*4
	default:
		weightBytes = int64(len(n.Weight)) + int64(len(n.Bias))*4
	}
	return Instruction{
		Op: op, Node: n.Name,
		MACs:        macs,
		WeightBytes: weightBytes,
		InBytes:     inBytes,
		OutBytes:    packBytes(padC(n.OutC)*int64(n.OutShape[1])*int64(n.OutShape[2]), bits),
		InC:         n.InC, OutC: n.OutC,
		OutH: n.OutShape[1], OutW: n.OutShape[2],
		Kernel: n.Kernel, Stride: n.Stride,
		FusedReLU: n.FusedReLU,
		Bits:      bits,
	}
}

// effNodeBits normalizes a node's precision (0 means INT8).
func effNodeBits(n *quant.QNode) int {
	if n.Bits == 0 {
		return quant.Bits8
	}
	return n.Bits
}

// packBytes scales a byte count that assumes one byte per element down to
// the packed size of a narrower grid. Only INT4 packs (two codes per byte);
// FP32-fallback activations re-enter the int8 grid at the layer boundary, so
// their traffic is unchanged.
func packBytes(b int64, bits int) int64 {
	if bits == quant.Bits4 {
		return (b + 1) / 2
	}
	return b
}

// padC returns the channel count padded to the DPU's feature-map bank
// granularity of 8 channels: feature maps are stored channel-padded in DDR,
// so non-multiple-of-8 widths (e.g. the 2M configuration's 6-filter stacks)
// pay extra memory traffic — the reason the 4M model outruns the 2M model
// on the DPU in paper Table IV despite having more parameters.
func padC(c int) int64 { return int64((c + 7) / 8 * 8) }

// fuseActivations folds every ReLU whose producer is a convolution into
// that convolution's write-back path (the DPU applies activations for free
// on store) and rewires consumers. It returns a new QGraph.
func fuseActivations(q *quant.QGraph) (*quant.QGraph, error) {
	out := &quant.QGraph{
		InC: q.InC, InH: q.InH, InW: q.InW,
		InputFP: q.InputFP, NumClasses: q.NumClasses,
	}
	rename := make(map[string]string, len(q.Nodes))
	byName := make(map[string]*quant.QNode, len(q.Nodes))
	add := func(n *quant.QNode) {
		out.Nodes = append(out.Nodes, n)
		byName[n.Name] = n
	}
	for _, n := range q.Nodes {
		if n.Kind == graph.KindReLU {
			prodName := rename[n.Inputs[0]]
			prod := byName[prodName]
			if prod != nil && (prod.Kind == graph.KindConv || prod.Kind == graph.KindConvTranspose) && !prod.FusedReLU {
				prod.FusedReLU = true
				// The fused output adopts the post-activation scale, which
				// is at least as fine as the pre-activation one.
				prod.OutFP = n.OutFP
				prod.OutShape = n.OutShape
				rename[n.Name] = prodName
				continue
			}
			// Standalone ReLU (no fusable producer): keep it.
		}
		c := n.Clone()
		c.Inputs = make([]string, len(n.Inputs))
		for i, in := range n.Inputs {
			m, ok := rename[in]
			if !ok {
				return nil, fmt.Errorf("xmodel: unmapped input %q of node %q", in, n.Name)
			}
			c.Inputs[i] = m
		}
		if n.Kind == graph.KindInput {
			c.Inputs = nil
			out.InputName = c.Name
		}
		add(c)
		rename[n.Name] = c.Name
	}
	mapped, ok := rename[q.OutputName]
	if !ok {
		return nil, fmt.Errorf("xmodel: output %q lost during fusion", q.OutputName)
	}
	out.OutputName = mapped
	out.RebuildIndex()
	return out, nil
}

// fuseStoreTargets annotates every convolution or transpose convolution
// whose sole consumer is a concat so that its write-back lands directly in
// the concat's buffer (see quant.QNode store-target fields): the executor
// aliases the producer's activation to the right channel slice and the
// concat copy for that side disappears. The producer's own requantization
// and the concat's are applied as two separate round-shifts inside the
// write-back, so the fused path is bit-identical to the copy it elides.
//
// The pass mutates the compiled graph in place and is a deterministic
// function of graph structure alone — deserialized xmodels are recompiled,
// so the annotations never need to be (and are not) serialized.
func fuseStoreTargets(q *quant.QGraph) {
	consumers := make(map[string]int, len(q.Nodes))
	for _, n := range q.Nodes {
		for _, in := range n.Inputs {
			consumers[in]++
		}
	}
	for _, n := range q.Nodes {
		if n.Kind != graph.KindConcat {
			continue
		}
		offset := 0
		for _, inName := range n.Inputs {
			p := q.Node(inName)
			if p == nil {
				return // malformed graph; leave lowering to report it
			}
			// Non-INT8 producers keep the concat copy: an INT4 layer's clamp
			// follows its write-back, so it cannot sit between the fused
			// double round-shift, and an FP32 layer has no such write-back.
			fusable := (p.Kind == graph.KindConv || p.Kind == graph.KindConvTranspose) &&
				consumers[inName] == 1 && inName != q.OutputName && p.StoreTarget == "" &&
				effNodeBits(p) == quant.Bits8
			if fusable {
				p.StoreTarget = n.Name
				p.StoreOffset = offset
				p.StoreShift = quant.RequantShift(p.OutFP, n.OutFP)
			}
			offset += p.OutShape[0]
		}
	}
}

// Run executes the program functionally on one FP32 CHW image, returning
// the INT8-argmax segmentation mask.
func (p *Program) Run(img *tensor.Tensor) ([]uint8, error) {
	return p.Graph.ExecuteLabels(img)
}

// Stats summarizes the program workload.
type Stats struct {
	MACs            int64
	WeightBytes     int64
	FeatureMapBytes int64
	Instructions    int
}

// Stats returns the aggregate workload of one inference.
func (p *Program) Stats() Stats {
	var s Stats
	for _, in := range p.Instructions {
		s.MACs += in.MACs
		s.WeightBytes += in.WeightBytes
		s.FeatureMapBytes += in.InBytes + in.OutBytes
		s.Instructions++
	}
	return s
}

// Roofline prices one frame of the instruction stream on a first-order
// roofline device: every compute or data-movement instruction costs
// max(2·MACs/opsPerSec, elemBytes·bytes/bytesPerSec), where bytes is its
// feature-map traffic plus, for a convolution, its weights, and elemBytes
// widens the stream's INT8 byte counts to the device's element size (1 for
// an INT8 device, 4 for FP32). It returns the summed time and how many
// instructions it priced, for a device that adds a launch cost per kernel.
// It is the one instruction-stream roofline: the cpu-int8 backend and
// gpusim.TimeProgram both call it with their own constants.
func (p *Program) Roofline(opsPerSec, bytesPerSec, elemBytes float64) (time.Duration, int) {
	var total time.Duration
	priced := 0
	for _, in := range p.Instructions {
		var ops, bytes float64
		switch in.Op {
		case OpConv, OpDConv:
			ops = 2 * float64(in.MACs)
			bytes = elemBytes * float64(in.InBytes+in.OutBytes+in.WeightBytes)
		case OpPool, OpConcat, OpSave, OpLoad:
			bytes = elemBytes * float64(in.InBytes+in.OutBytes)
		default:
			continue
		}
		compute := time.Duration(ops / opsPerSec * float64(time.Second))
		mem := time.Duration(bytes / bytesPerSec * float64(time.Second))
		total += max(compute, mem)
		priced++
	}
	return total, priced
}
