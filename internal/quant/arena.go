package quant

import (
	"fmt"

	"seneca/internal/graph"
	"seneca/internal/tensor"
)

// Executor runs a quantized graph out of a pre-sized arena: one buffer per
// node output, stored once, in the layout its readers multiply from — the
// zero-bordered channel-pair cell plane of mac.go — and nothing else. A
// layer's write-back puts its result there and the next layer's micro-kernel
// reads it where it lies, so between two INT8 layers there is one store and
// one load and no pass that only moves data. Everything a frame needs —
// buffers, shifts, kernel arguments — is resolved into a flat step list
// here, once; a frame is a walk down that list with no allocation and no
// lookup by name.
//
// Borders and ghost columns are zeroed when the arena is made and never
// written again: every kernel writes interior cells only.
//
// An Executor is NOT safe for concurrent use; concurrent callers each take
// their own from the graph's free list (QGraph.Execute, ExecuteLabels) or
// construct one with NewExecutor.
type Executor struct {
	g       *QGraph
	steps   []step
	output  *activation // the logits (a softmax aliases its input)
	softmax bool        // the graph ends in one

	refIn, refOut []int8 // int8 CHW scratch around the FP32-fallback kernels; empty without one
	bytes         int    // arena size
}

// step is one node of the graph with everything its kernel takes resolved.
type step struct {
	n       *QNode
	in, in2 *activation // in2: a concat's second input
	out     *activation

	// Requantization: the node's own and a fused store's second, or a
	// concat's first and second input's.
	shift, shift2 int
	phases        []phase // integer convolution and transpose convolution
}

// activation is a feature map in the arena: [⌈c/2⌉][h+2·border][cols] cells
// (see mac.go) with the image at (border, border), at fix position fp.
type activation struct {
	cells        []int32
	fp           FixPos
	c, h, w      int
	border, cols int

	// A store-target producer is a run of its concat's planes.
	target      *activation
	targetPlane int
}

func (a *activation) cpairs() int      { return (a.c + 1) / 2 }
func (a *activation) planeStride() int { return (a.h + 2*a.border) * a.cols }

// origin is the index of plane 0's pixel (0, 0).
func (a *activation) origin() int { return a.border*a.cols + a.border }

// row is the w interior cells of row y of channel-pair plane cp.
func (a *activation) row(cp, y int) []int32 {
	at := cp*a.planeStride() + (a.border+y)*a.cols + a.border
	return a.cells[at : at+a.w]
}

// livesIn reports whether a is t's planes from channel off on.
func (a *activation) livesIn(t *activation, off int) bool {
	return a.target == t && 2*a.targetPlane == off
}

// root is the activation whose buffer a's cells are part of.
func (a *activation) root() *activation {
	for a.target != nil {
		a = a.target
	}
	return a
}

// NewExecutor sizes the arena for the graph and returns a reusable executor.
// It fails on graphs with unsupported node kinds or dangling inputs, so a
// malformed graph is rejected before execution rather than panicking inside
// a kernel.
func NewExecutor(q *QGraph) (*Executor, error) {
	e := &Executor{g: q, steps: make([]step, 0, len(q.Nodes))}
	acts := make(map[string]*activation, len(q.Nodes))
	var maxRef int
	for _, n := range q.Nodes {
		var out *activation
		s := step{n: n}
		in := func(i int) (*activation, error) {
			if i >= len(n.Inputs) {
				return nil, fmt.Errorf("quant: node %q is missing input %d", n.Name, i)
			}
			a := acts[n.Inputs[i]]
			if a == nil {
				return nil, fmt.Errorf("quant: node %q input %q has no producer", n.Name, n.Inputs[i])
			}
			return a, nil
		}
		if !ValidBits(n.Bits) {
			return nil, fmt.Errorf("quant: node %q: unsupported bitwidth %d", n.Name, n.Bits)
		}
		if n.Kind == graph.KindConv || n.Kind == graph.KindConvTranspose {
			// Mixed-precision nodes carry their parameters in different
			// fields; reject length mismatches and degenerate geometry here
			// so a malformed graph (e.g. hostile xmodel bytes) errors
			// instead of panicking in a kernel.
			if n.Kernel < 1 || n.Stride < 1 || n.Pad < 0 || n.InC < 1 || n.OutC < 1 {
				return nil, fmt.Errorf("quant: node %q: kernel %d, stride %d, pad %d, %d→%d channels", n.Name, n.Kernel, n.Stride, n.Pad, n.InC, n.OutC)
			}
			if !ValidStride(n.Kind, n.Stride) {
				return nil, fmt.Errorf("quant: node %q: convolution at stride %d; only stride 1 runs", n.Name, n.Stride)
			}
			want := n.InC * n.OutC * n.Kernel * n.Kernel
			if effBits(n) == BitsFP32 {
				if len(n.WeightF) != want {
					return nil, fmt.Errorf("quant: node %q: FP32 weights %d, want %d", n.Name, len(n.WeightF), want)
				}
			} else if len(n.Weight) != want {
				return nil, fmt.Errorf("quant: node %q: weights %d, want %d", n.Name, len(n.Weight), want)
			} else if len(n.Bias) < n.OutC {
				return nil, fmt.Errorf("quant: node %q: %d biases for %d output channels", n.Name, len(n.Bias), n.OutC)
			}
		}
		var err error
		switch n.Kind {
		case graph.KindInput:
			out = &activation{c: q.InC, h: q.InH, w: q.InW, fp: q.InputFP}
		case graph.KindConv, graph.KindConvTranspose:
			if s.in, err = in(0); err != nil {
				return nil, err
			}
			if s.in.c != n.InC {
				return nil, fmt.Errorf("quant: node %q reads %d channels, its weights expect %d", n.Name, s.in.c, n.InC)
			}
			out = &activation{c: n.OutC, h: n.OutShape[1], w: n.OutShape[2], fp: n.OutFP}
			if effBits(n) != BitsFP32 {
				s.shift = RequantShift(s.in.fp+n.WeightFP, n.OutFP)
				s.phases = n.tilePhases()
			} else {
				maxRef = max(maxRef, s.in.c*s.in.h*s.in.w, out.c*out.h*out.w)
			}
		case graph.KindMaxPool:
			if s.in, err = in(0); err != nil {
				return nil, err
			}
			out = &activation{c: s.in.c, h: s.in.h / 2, w: s.in.w / 2, fp: n.OutFP}
			s.shift = RequantShift(s.in.fp, n.OutFP)
		case graph.KindReLU:
			if s.in, err = in(0); err != nil {
				return nil, err
			}
			out = &activation{c: s.in.c, h: s.in.h, w: s.in.w, fp: n.OutFP}
			s.shift = RequantShift(s.in.fp, n.OutFP)
		case graph.KindConcat:
			if s.in, err = in(0); err != nil {
				return nil, err
			}
			if s.in2, err = in(1); err != nil {
				return nil, err
			}
			if s.in.h != s.in2.h || s.in.w != s.in2.w {
				return nil, fmt.Errorf("quant: node %q concatenates mismatched planes %dx%d vs %dx%d", n.Name, s.in.h, s.in.w, s.in2.h, s.in2.w)
			}
			out = &activation{c: s.in.c + s.in2.c, h: s.in.h, w: s.in.w, fp: n.OutFP}
			s.shift, s.shift2 = RequantShift(s.in.fp, n.OutFP), RequantShift(s.in2.fp, n.OutFP)
		case graph.KindSoftmax:
			if s.in, err = in(0); err != nil {
				return nil, err
			}
			out = s.in // host-side op: aliases its input activation
		default:
			return nil, fmt.Errorf("quant: unsupported node kind %s at %q", n.Kind, n.Name)
		}
		s.out = out
		acts[n.Name] = out
		if n.Name == q.OutputName {
			e.softmax = n.Kind == graph.KindSoftmax
		}
		e.steps = append(e.steps, s)
	}
	if e.output = acts[q.OutputName]; e.output == nil {
		return nil, fmt.Errorf("quant: graph output %q has no producer", q.OutputName)
	}
	// Store-target fusion: each annotated producer's activation becomes a run
	// of planes of the consuming concat's buffer, so the producer's write-back
	// lands in place and the concat copy disappears. Planes hold channel
	// pairs, so only an even channel offset can be a plane offset; a producer
	// at an odd one keeps its own buffer and the concat copies it. Concats
	// appear after their producers in topological order, so every target
	// exists by now.
	shared := make(map[*activation]bool) // activations that are, or hold, another's planes
	for i := range e.steps {
		s := &e.steps[i]
		n := s.n
		if n.StoreTarget == "" {
			continue
		}
		a, tgt := s.out, acts[n.StoreTarget]
		if tgt == nil {
			return nil, fmt.Errorf("quant: node %q store-target %q has no buffer", n.Name, n.StoreTarget)
		}
		if tgt.h != a.h || tgt.w != a.w || n.StoreOffset < 0 || n.StoreOffset+a.c > tgt.c {
			return nil, fmt.Errorf("quant: node %q store-target %q geometry mismatch", n.Name, n.StoreTarget)
		}
		if n.StoreOffset%2 != 0 || effBits(n) != Bits8 {
			continue
		}
		a.target, a.targetPlane = tgt, n.StoreOffset/2
		s.shift2 = n.StoreShift
		shared[a], shared[tgt] = true, true
	}
	// The same for a concat input nobody annotated that needs no
	// requantization on the way in — a skip connection whose other reader is
	// a pool, typically: stored once in the concat's planes, it is read there
	// by everyone. Whole channel pairs only, so no reader sees a neighbour in
	// its last cell.
	for i := range e.steps {
		s := &e.steps[i]
		if s.n.Kind != graph.KindConcat {
			continue
		}
		for _, side := range []struct {
			a          *activation
			shift, off int
		}{{s.in, s.shift, 0}, {s.in2, s.shift2, s.in.c}} {
			if a := side.a; side.shift == 0 && side.off%2 == 0 && a.c%2 == 0 && !shared[a] {
				a.target, a.targetPlane = s.out, side.off/2
				shared[a], shared[s.out] = true, true
			}
		}
	}
	// A buffer's border is the widest reach any reader has into it, and its
	// row length the longest any reader's tiles run: borders first, because
	// the row length depends on the border the buffer ends up with.
	for _, pass := range []string{"border", "cols"} {
		for i := range e.steps {
			s := &e.steps[i]
			if s.phases == nil {
				continue
			}
			in := s.in.root()
			border, span := reach(s.phases, s.n.outStep(), in.h, in.w, s.out.h, s.out.w)
			if pass == "border" {
				in.border = max(in.border, border)
			} else {
				in.cols = max(in.cols, in.border+span)
			}
		}
	}
	for i := range e.steps {
		if a := e.steps[i].out; a.target == nil && a.cells == nil {
			a.cols = max(a.cols, a.w+2*a.border)
			a.cells = make([]int32, a.cpairs()*a.planeStride())
			e.bytes += 4 * len(a.cells)
		}
	}
	for i := range e.steps {
		if a := e.steps[i].out; a.target != nil {
			t := a.target
			a.border, a.cols = t.border, t.cols
			a.cells = t.cells[a.targetPlane*t.planeStride():][:a.cpairs()*t.planeStride()]
		}
	}
	e.refIn, e.refOut = make([]int8, maxRef), make([]int8, maxRef)
	e.bytes += 2 * maxRef
	return e, nil
}

// ArenaBytes is the size of the executor's arena: every activation's cells
// plus, for a graph with FP32-fallback layers, their kernels' scratch.
func (e *Executor) ArenaBytes() int { return e.bytes }

// Step describes one pass of a frame to Steps' visitor.
type Step struct {
	Name        string // the node's, or "argmax"
	Node        *QNode // nil for the argmax
	StoredBytes int    // what the pass writes per frame: into the arena, or the mask
}

// Steps runs one frame a pass at a time and returns its mask: visit is
// called for every node in execution order, then for the argmax, with a
// function that runs it, which it must call exactly once. seneca-inspect
// -profile times a frame's passes with it; ExecuteLabels carries no timer.
func (e *Executor) Steps(img *tensor.Tensor, visit func(s Step, run func())) (mask []uint8, err error) {
	if err = e.checkInput(img); err != nil {
		return nil, err
	}
	for i := range e.steps {
		s := &e.steps[i]
		visit(Step{Name: s.n.Name, Node: s.n, StoredBytes: s.storedBytes()}, func() { e.exec(s, img) })
	}
	visit(Step{Name: "argmax", StoredBytes: e.output.h * e.output.w}, func() { mask = argmaxChannelsInt8(e.output) })
	return mask, nil
}

func (s *step) storedBytes() int {
	cells := func(a *activation) int { return 4 * a.cpairs() * a.h * a.w }
	switch s.n.Kind {
	case graph.KindSoftmax:
		return 0
	case graph.KindConcat:
		var b int
		if !s.in.livesIn(s.out, 0) {
			b += cells(s.in)
		}
		if !s.in2.livesIn(s.out, s.in.c) {
			b += cells(s.in2)
		}
		return b
	}
	return cells(s.out)
}

func (e *Executor) checkInput(img *tensor.Tensor) error {
	q := e.g
	if img.Rank() != 3 || img.Shape[0] != q.InC || img.Shape[1] != q.InH || img.Shape[2] != q.InW {
		return fmt.Errorf("quant: input shape %v, want [%d %d %d]", img.Shape, q.InC, q.InH, q.InW)
	}
	return nil
}

// run executes the graph into the arena. Activations stay valid until the
// next run.
func (e *Executor) run(img *tensor.Tensor) error {
	if err := e.checkInput(img); err != nil {
		return err
	}
	for i := range e.steps {
		e.exec(&e.steps[i], img)
	}
	return nil
}

// exec runs one step.
func (e *Executor) exec(s *step, img *tensor.Tensor) {
	n, in, out := s.n, s.in, s.out
	switch n.Kind {
	case graph.KindInput:
		// Scale input slices by the factor stored in the xmodel
		// (Section III-E).
		quantizeCells(img.Data, out.fp, out)
	case graph.KindConv, graph.KindConvTranspose:
		if s.phases == nil {
			e.execRef(s)
			return
		}
		convPhases(in, s.phases, n.outStep(), n.accBound, n.Bias, n.OutC, s.shift, s.shift2, n.FusedReLU, out)
		if effBits(n) == Bits4 {
			// The INT8 write-back then the 4-bit clamp: saturating at 8
			// bits and then at 4 is saturating at 4.
			saturateCells(out, Bits4)
		}
	case graph.KindMaxPool:
		maxPoolInt8(in, s.shift, out)
	case graph.KindReLU:
		reluInt8(in, s.shift, out)
	case graph.KindConcat:
		// Inputs that live in this buffer were written here by their
		// producers (requantized, if store targets); only the rest are
		// copied.
		if !in.livesIn(out, 0) {
			requantInt8(in, s.shift, out, 0)
		}
		if !s.in2.livesIn(out, in.c) {
			requantInt8(s.in2, s.shift2, out, in.c)
		}
	case graph.KindSoftmax:
		// Host-side op; out aliases the int8 logits (Execute handles the
		// float conversion at the boundary).
	}
}

// execRef runs an FP32-fallback convolution or transpose convolution
// through its reference kernel, which reads and writes plain int8 CHW
// images: the one place a frame leaves the cell layout and comes back.
func (e *Executor) execRef(s *step) {
	n, in, out := s.n, s.in, s.out
	src, dst := e.refIn[:in.c*in.h*in.w], e.refOut[:out.c*out.h*out.w]
	narrowPlane(in, src)
	switch n.Kind {
	case graph.KindConv:
		convFP32Ref(src, in.fp, in.c, in.h, in.w, n.WeightF, n.BiasF, n.OutC, n.Kernel, n.Stride, n.Pad, n.FusedReLU, n.OutFP, dst, out.h, out.w)
	default:
		convTransposeFP32Ref(src, in.fp, in.c, in.h, in.w, n.WeightF, n.BiasF, n.OutC, n.Kernel, n.Stride, n.Pad, n.FusedReLU, n.OutFP, dst, out.h, out.w)
	}
	widenPlane(dst, out)
}

// Execute runs the graph on one FP32 CHW image and returns the dequantized
// output tensor (probabilities if the graph ends in softmax, logits
// otherwise), exactly like QGraph.Execute but against this executor's arena.
func (e *Executor) Execute(img *tensor.Tensor) (*tensor.Tensor, error) {
	if err := e.run(img); err != nil {
		return nil, err
	}
	a := e.output
	logits := dequantizeToTensor(a)
	if e.softmax {
		s := tensor.SoftmaxChannels(logits.Reshape(1, a.c, a.h, a.w))
		return s.Reshape(a.c, a.h, a.w), nil
	}
	return logits, nil
}

// ExecuteLabels runs the graph and returns the per-pixel argmax class map
// directly from the INT8 logits (argmax commutes with softmax), exactly as
// the deployed DPU model returns INT8 masks. The returned mask is freshly
// allocated, because callers retain masks beyond the next frame; the
// frame's other allocations are its loops' par.ForChunkedID closures.
func (e *Executor) ExecuteLabels(img *tensor.Tensor) ([]uint8, error) {
	if err := e.run(img); err != nil {
		return nil, err
	}
	return argmaxChannelsInt8(e.output), nil
}
