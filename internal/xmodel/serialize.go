package xmodel

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

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
// Strings are u32 length + bytes. Instructions are not stored; they are
// deterministically re-derived from the graph on load.
//
// Version 2 added the per-node precision byte (bits: 4, 8 or 32; 0 means 8)
// and the trailing float payloads carried by FP32-fallback layers. Version 1
// files are still readable: every node loads as INT8 with no float payload.
const (
	magic   = "XMDL"
	version = 2
)

// Write serializes the program. Scalars are encoded by hand into a small
// reused scratch buffer and weight/bias payloads stream through one chunk
// buffer — binary.Write's per-call reflection allocation made serialization
// cost ~1400 allocs per program; this path costs a handful.
func (p *Program) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	le := binary.LittleEndian
	scratch := make([]byte, 4)
	const chunk = 1 << 16
	payload := make([]byte, chunk)
	wu32 := func(v uint32) error {
		le.PutUint32(scratch, v)
		_, err := bw.Write(scratch)
		return err
	}
	wi32 := func(v int32) error { return wu32(uint32(v)) }
	wstr := func(s string) error {
		if err := wu32(uint32(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := wu32(version); err != nil {
		return err
	}
	if err := wstr(p.Name); err != nil {
		return err
	}
	g := p.Graph
	for _, v := range []int32{int32(g.InC), int32(g.InH), int32(g.InW), int32(g.InputFP), int32(g.NumClasses)} {
		if err := wi32(v); err != nil {
			return err
		}
	}
	if err := wstr(g.OutputName); err != nil {
		return err
	}
	if err := wu32(uint32(len(g.Nodes))); err != nil {
		return err
	}
	for _, n := range g.Nodes {
		if err := wstr(n.Name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(n.Kind)); err != nil {
			return err
		}
		if err := wu32(uint32(len(n.Inputs))); err != nil {
			return err
		}
		for _, in := range n.Inputs {
			if err := wstr(in); err != nil {
				return err
			}
		}
		ints := []int32{
			int32(n.Kernel), int32(n.Stride), int32(n.Pad), int32(n.OutPad),
			int32(n.InC), int32(n.OutC),
			int32(n.InFP), int32(n.OutFP), int32(n.WeightFP),
		}
		for _, v := range ints {
			if err := wi32(v); err != nil {
				return err
			}
		}
		relu := byte(0)
		if n.FusedReLU {
			relu = 1
		}
		if err := bw.WriteByte(relu); err != nil {
			return err
		}
		if !quant.ValidBits(n.Bits) {
			return fmt.Errorf("xmodel: node %q: unsupported bitwidth %d", n.Name, n.Bits)
		}
		if err := bw.WriteByte(byte(n.Bits)); err != nil {
			return err
		}
		for _, v := range n.OutShape {
			if err := wi32(int32(v)); err != nil {
				return err
			}
		}
		if err := wu32(uint32(len(n.Weight))); err != nil {
			return err
		}
		for off := 0; off < len(n.Weight); off += chunk {
			end := off + chunk
			if end > len(n.Weight) {
				end = len(n.Weight)
			}
			part := n.Weight[off:end]
			buf := payload[:len(part)]
			for i, q := range part {
				buf[i] = byte(q)
			}
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
		if err := wu32(uint32(len(n.Bias))); err != nil {
			return err
		}
		for off := 0; off < len(n.Bias); off += chunk / 4 {
			end := off + chunk/4
			if end > len(n.Bias) {
				end = len(n.Bias)
			}
			part := n.Bias[off:end]
			buf := payload[:4*len(part)]
			for i, b := range part {
				le.PutUint32(buf[4*i:], uint32(b))
			}
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
		for _, fs := range [][]float32{n.WeightF, n.BiasF} {
			if err := wu32(uint32(len(fs))); err != nil {
				return err
			}
			for off := 0; off < len(fs); off += chunk / 4 {
				end := off + chunk/4
				if end > len(fs) {
					end = len(fs)
				}
				part := fs[off:end]
				buf := payload[:4*len(part)]
				for i, f := range part {
					le.PutUint32(buf[4*i:], math.Float32bits(f))
				}
				if _, err := bw.Write(buf); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Read deserializes a program and re-derives its instruction schedule.
func Read(r io.Reader) (*Program, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("xmodel: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("xmodel: bad magic %q", head)
	}
	le := binary.LittleEndian
	ru32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, le, &v)
		return v, err
	}
	ri32 := func() (int32, error) {
		var v int32
		err := binary.Read(br, le, &v)
		return v, err
	}
	rstr := func() (string, error) {
		n, err := ru32()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("xmodel: implausible string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	ver, err := ru32()
	if err != nil {
		return nil, err
	}
	if ver != 1 && ver != version {
		return nil, fmt.Errorf("xmodel: unsupported version %d", ver)
	}
	name, err := rstr()
	if err != nil {
		return nil, err
	}
	g := &quant.QGraph{}
	var geo [5]int32
	for i := range geo {
		if geo[i], err = ri32(); err != nil {
			return nil, err
		}
	}
	g.InC, g.InH, g.InW = int(geo[0]), int(geo[1]), int(geo[2])
	g.InputFP = quant.FixPos(geo[3])
	g.NumClasses = int(geo[4])
	if g.OutputName, err = rstr(); err != nil {
		return nil, err
	}
	count, err := ru32()
	if err != nil {
		return nil, err
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("xmodel: implausible node count %d", count)
	}
	for i := uint32(0); i < count; i++ {
		n := &quant.QNode{}
		if n.Name, err = rstr(); err != nil {
			return nil, err
		}
		kind, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		n.Kind = graph.Kind(kind)
		nIn, err := ru32()
		if err != nil {
			return nil, err
		}
		for j := uint32(0); j < nIn; j++ {
			in, err := rstr()
			if err != nil {
				return nil, err
			}
			n.Inputs = append(n.Inputs, in)
		}
		var ints [9]int32
		for j := range ints {
			if ints[j], err = ri32(); err != nil {
				return nil, err
			}
		}
		n.Kernel, n.Stride, n.Pad, n.OutPad = int(ints[0]), int(ints[1]), int(ints[2]), int(ints[3])
		n.InC, n.OutC = int(ints[4]), int(ints[5])
		n.InFP, n.OutFP, n.WeightFP = quant.FixPos(ints[6]), quant.FixPos(ints[7]), quant.FixPos(ints[8])
		relu, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		n.FusedReLU = relu != 0
		if ver >= 2 {
			bits, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			if !quant.ValidBits(int(bits)) {
				return nil, fmt.Errorf("xmodel: node %q: unsupported bitwidth %d", n.Name, bits)
			}
			n.Bits = int(bits)
		}
		for j := 0; j < 3; j++ {
			v, err := ri32()
			if err != nil {
				return nil, err
			}
			n.OutShape[j] = int(v)
		}
		wlen, err := ru32()
		if err != nil {
			return nil, err
		}
		if wlen > 1<<28 {
			return nil, fmt.Errorf("xmodel: implausible weight length %d", wlen)
		}
		// Read large payloads in chunks so a header that declares a huge
		// tensor over a truncated body fails after consuming the bytes
		// actually present, without allocating the declared size up front.
		const chunk = 1 << 16
		n.Weight = make([]int8, 0, min64(int64(wlen), chunk))
		wbuf := make([]byte, chunk)
		for got := uint32(0); got < wlen; {
			c := wlen - got
			if c > chunk {
				c = chunk
			}
			if _, err := io.ReadFull(br, wbuf[:c]); err != nil {
				return nil, fmt.Errorf("xmodel: reading weights: %w", err)
			}
			for _, b := range wbuf[:c] {
				n.Weight = append(n.Weight, int8(b))
			}
			got += c
		}
		blen, err := ru32()
		if err != nil {
			return nil, err
		}
		if blen > 1<<24 {
			return nil, fmt.Errorf("xmodel: implausible bias length %d", blen)
		}
		n.Bias = make([]int32, 0, min64(int64(blen), chunk))
		for j := uint32(0); j < blen; j++ {
			b, err := ri32()
			if err != nil {
				return nil, fmt.Errorf("xmodel: reading bias: %w", err)
			}
			n.Bias = append(n.Bias, b)
		}
		if ver >= 2 {
			for fi, dst := range []*[]float32{&n.WeightF, &n.BiasF} {
				flen, err := ru32()
				if err != nil {
					return nil, err
				}
				if flen > 1<<26 {
					return nil, fmt.Errorf("xmodel: implausible float payload length %d", flen)
				}
				if n.Bits != quant.BitsFP32 && flen != 0 {
					return nil, fmt.Errorf("xmodel: node %q: float payload on a %d-bit node", n.Name, n.Bits)
				}
				if flen == 0 {
					continue
				}
				fs := make([]float32, 0, min64(int64(flen), chunk))
				for j := uint32(0); j < flen; j++ {
					v, err := ru32()
					if err != nil {
						return nil, fmt.Errorf("xmodel: reading float payload %d: %w", fi, err)
					}
					fs = append(fs, math.Float32frombits(v))
				}
				*dst = fs
			}
		}
		if n.Kind == graph.KindInput {
			g.InputName = n.Name
		}
		g.Nodes = append(g.Nodes, n)
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

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
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
