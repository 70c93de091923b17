package xmodel

import (
	"fmt"
	"io"
	"os"

	"seneca/internal/binio"
	"seneca/internal/graph"
	"seneca/internal/quant"
)

// Binary xmodel layout (little-endian):
//
//	magic "XMDL" | version u32 | name | inC,inH,inW i32 | inputFP i32 |
//	numClasses i32 | outputName | nodeCount u32 | nodes...
//
// Each node:
//
//	name | kind u8 | inputCount u32 | inputs... | kernel,stride,pad,outPad,
//	inC,outC i32 | inFP,outFP,weightFP i32 | fusedReLU u8 | bits u8 |
//	outShape 3×i32 | weightLen u32 | weights (int8) | biasLen u32 | bias (i32) |
//	weightFLen u32 | weightsF (f32) | biasFLen u32 | biasF (f32)
//
// Strings and payloads are a u32 count, then the elements (internal/binio).
// Instructions are not stored; they are deterministically re-derived from
// the graph on load.
//
// Version 2 added the per-node precision byte (bits: 4, 8 or 32; 0 means 8)
// and the trailing float payloads carried by FP32-fallback layers. Version 1
// files are still readable: every node loads as INT8 with no float payload.
const (
	magic   = "XMDL"
	version = 2
)

// Write serializes the program.
func (p *Program) Write(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Magic(magic)
	bw.U32(version)
	bw.String(p.Name)
	g := p.Graph
	for _, v := range []int{g.InC, g.InH, g.InW, int(g.InputFP), g.NumClasses} {
		bw.I32(int32(v))
	}
	bw.String(g.OutputName)
	bw.U32(uint32(len(g.Nodes)))
	for _, n := range g.Nodes {
		bw.String(n.Name)
		bw.U8(byte(n.Kind))
		bw.U32(uint32(len(n.Inputs)))
		for _, in := range n.Inputs {
			bw.String(in)
		}
		for _, v := range []int{
			n.Kernel, n.Stride, n.Pad, n.OutPad, n.InC, n.OutC,
			int(n.InFP), int(n.OutFP), int(n.WeightFP),
		} {
			bw.I32(int32(v))
		}
		relu := byte(0)
		if n.FusedReLU {
			relu = 1
		}
		bw.U8(relu)
		if !quant.ValidBits(n.Bits) {
			return fmt.Errorf("xmodel: node %q: unsupported bitwidth %d", n.Name, n.Bits)
		}
		bw.U8(byte(n.Bits))
		for _, v := range n.OutShape {
			bw.I32(int32(v))
		}
		bw.Int8s(n.Weight)
		bw.Int32s(n.Bias)
		bw.Float32s(n.WeightF)
		bw.Float32s(n.BiasF)
	}
	return bw.Flush()
}

// Read deserializes a program and re-derives its instruction schedule.
func Read(r io.Reader) (*Program, error) {
	br := binio.NewReader(r)
	br.Magic(magic)
	ver := br.U32()
	if br.Err() == nil && ver != 1 && ver != version {
		return nil, fmt.Errorf("xmodel: unsupported version %d", ver)
	}
	name := br.String("program name", 1<<20)
	g := &quant.QGraph{}
	g.InC, g.InH, g.InW = int(br.I32()), int(br.I32()), int(br.I32())
	g.InputFP = quant.FixPos(br.I32())
	g.NumClasses = int(br.I32())
	g.OutputName = br.String("output name", 1<<20)
	count := br.Count("node count", 1<<20)
	for i := 0; i < count && br.Err() == nil; i++ {
		n := &quant.QNode{Name: br.String("node name", 1<<20)}
		n.Kind = graph.Kind(br.U8())
		nIn := br.Count("input count", 1<<20)
		for j := 0; j < nIn && br.Err() == nil; j++ {
			n.Inputs = append(n.Inputs, br.String("input name", 1<<20))
		}
		n.Kernel, n.Stride, n.Pad, n.OutPad = int(br.I32()), int(br.I32()), int(br.I32()), int(br.I32())
		n.InC, n.OutC = int(br.I32()), int(br.I32())
		n.InFP, n.OutFP, n.WeightFP = quant.FixPos(br.I32()), quant.FixPos(br.I32()), quant.FixPos(br.I32())
		n.FusedReLU = br.U8() != 0
		if ver >= 2 {
			n.Bits = int(br.U8())
			if !quant.ValidBits(n.Bits) {
				return nil, fmt.Errorf("xmodel: node %q: unsupported bitwidth %d", n.Name, n.Bits)
			}
		}
		n.OutShape = [3]int{int(br.I32()), int(br.I32()), int(br.I32())}
		n.Weight = br.Int8s("weights", 1<<28)
		n.Bias = br.Int32s("bias", 1<<24)
		if ver >= 2 {
			n.WeightF = br.Float32s("float weights", 1<<26)
			n.BiasF = br.Float32s("float bias", 1<<26)
			if n.Bits != quant.BitsFP32 && len(n.WeightF)+len(n.BiasF) != 0 {
				return nil, fmt.Errorf("xmodel: node %q: float payload on a %d-bit node", n.Name, n.Bits)
			}
		}
		if n.Kind == graph.KindInput {
			g.InputName = n.Name
		}
		g.Nodes = append(g.Nodes, n)
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("xmodel: %w", err)
	}
	g.RebuildIndex()
	if err := validateLoaded(g); err != nil {
		return nil, err
	}
	// Re-derive the schedule: the stored graph is already fused, and
	// Compile's fusion pass is idempotent on fused graphs.
	prog, err := Compile(g, name)
	if err != nil {
		return nil, fmt.Errorf("xmodel: recompiling loaded graph: %w", err)
	}
	return prog, nil
}

// loadedArity is the required input count per operator kind for graphs
// arriving from disk. Kinds absent here (batch norm, dropout, unknown
// codes) cannot appear in a quantized graph and are rejected.
var loadedArity = map[graph.Kind]int{
	graph.KindInput:         0,
	graph.KindConv:          1,
	graph.KindConvTranspose: 1,
	graph.KindReLU:          1,
	graph.KindMaxPool:       1,
	graph.KindConcat:        2,
	graph.KindSoftmax:       1,
}

// maxLoadedDim bounds every geometry field of a deserialized node. Paper
// models top out at 512-pixel feature maps and 1024 channels.
const maxLoadedDim = 1 << 16

// validateLoaded rejects structurally-invalid graphs before they reach
// Compile or the executor, which assume well-formed input (e.g. fusion
// indexes a ReLU's first input; lowering divides by a transpose
// convolution's stride). Untrusted bytes must fail here with an error,
// never panic downstream.
func validateLoaded(g *quant.QGraph) error {
	seen := make(map[string]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Name == "" {
			return fmt.Errorf("xmodel: node with empty name")
		}
		if seen[n.Name] {
			return fmt.Errorf("xmodel: duplicate node %q", n.Name)
		}
		want, ok := loadedArity[n.Kind]
		if !ok {
			return fmt.Errorf("xmodel: node %q: kind %s not allowed in a compiled graph", n.Name, n.Kind)
		}
		if len(n.Inputs) != want {
			return fmt.Errorf("xmodel: node %q: %s wants %d inputs, has %d", n.Name, n.Kind, want, len(n.Inputs))
		}
		// Write stores nodes in topological order, so inputs must already
		// be defined; this also excludes self-references and cycles.
		for _, in := range n.Inputs {
			if !seen[in] {
				return fmt.Errorf("xmodel: node %q: input %q not defined before use", n.Name, in)
			}
		}
		for _, d := range n.OutShape {
			if d < 0 || d > maxLoadedDim {
				return fmt.Errorf("xmodel: node %q: output shape %v out of range", n.Name, n.OutShape)
			}
		}
		if !quant.ValidBits(n.Bits) {
			return fmt.Errorf("xmodel: node %q: unsupported bitwidth %d", n.Name, n.Bits)
		}
		if n.Kind == graph.KindConv || n.Kind == graph.KindConvTranspose {
			switch {
			case n.Kernel < 1 || n.Kernel > maxLoadedDim:
				return fmt.Errorf("xmodel: node %q: bad kernel %d", n.Name, n.Kernel)
			case n.Stride < 1 || n.Stride > maxLoadedDim:
				return fmt.Errorf("xmodel: node %q: bad stride %d", n.Name, n.Stride)
			case !quant.ValidStride(n.Kind, n.Stride):
				return fmt.Errorf("xmodel: node %q: convolution at stride %d; only stride 1 runs", n.Name, n.Stride)
			case n.Pad < 0 || n.OutPad < 0:
				return fmt.Errorf("xmodel: node %q: negative padding", n.Name)
			case n.InC < 1 || n.InC > maxLoadedDim || n.OutC < 1 || n.OutC > maxLoadedDim:
				return fmt.Errorf("xmodel: node %q: bad channels %d→%d", n.Name, n.InC, n.OutC)
			}
		}
		seen[n.Name] = true
	}
	if g.InputName == "" {
		return fmt.Errorf("xmodel: graph has no input node")
	}
	if !seen[g.OutputName] {
		return fmt.Errorf("xmodel: output %q not defined", g.OutputName)
	}
	return nil
}

// WriteFile serializes the program to path.
func (p *Program) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.Write(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile loads a program from path.
func ReadFile(path string) (*Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
