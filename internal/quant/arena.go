package quant

import (
	"fmt"

	"seneca/internal/graph"
	"seneca/internal/tensor"
)

// Executor runs a quantized graph with a pre-sized scratch arena: one int8
// activation buffer per node output, one plane the current layer's
// input is widened into, one int32 transpose-convolution column buffer and
// one int32 accumulator region, all sized once from the compiled graph
// and reused across layers and frames. This removes every steady-state
// allocation from the INT8 execute path — the per-layer
// make([]int8/int32, …) churn that made the functional executor slower than
// the FP32 forward pass.
//
// An Executor is NOT safe for concurrent use; concurrent callers each take
// their own from the graph's free list (QGraph.Execute, ExecuteLabels) or
// construct one with NewExecutor.
type Executor struct {
	g    *QGraph
	acts map[string]*activation

	plane  []int32 // widened channel-pair input plane, max over (transpose) convolutions
	cols32 []int32 // Wᵀ·x column scratch, max over transpose convolutions
	acc    []int32 // scatter accumulators, max over transpose convolutions
}

// NewExecutor sizes a scratch arena for the graph and returns a reusable
// executor. It fails on graphs with unsupported node kinds or dangling
// inputs, so a malformed graph is rejected before execution rather than
// panicking inside a kernel.
func NewExecutor(q *QGraph) (*Executor, error) {
	e := &Executor{g: q, acts: make(map[string]*activation, len(q.Nodes))}
	var maxPlane, maxCols32, maxAcc int
	for _, n := range q.Nodes {
		var out *activation
		in := func(i int) (*activation, error) {
			if i >= len(n.Inputs) {
				return nil, fmt.Errorf("quant: node %q is missing input %d", n.Name, i)
			}
			a := e.acts[n.Inputs[i]]
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
			// fields; reject length mismatches here so a malformed graph
			// (e.g. hostile xmodel bytes) errors instead of panicking in a
			// kernel.
			want := n.InC * n.OutC * n.Kernel * n.Kernel
			if effBits(n) == BitsFP32 {
				if len(n.WeightF) != want {
					return nil, fmt.Errorf("quant: node %q: FP32 weights %d, want %d", n.Name, len(n.WeightF), want)
				}
			} else if len(n.Weight) != want {
				return nil, fmt.Errorf("quant: node %q: weights %d, want %d", n.Name, len(n.Weight), want)
			}
		}
		switch n.Kind {
		case graph.KindInput:
			out = &activation{data: make([]int8, q.InC*q.InH*q.InW), c: q.InC, h: q.InH, w: q.InW}
		case graph.KindConv, graph.KindConvTranspose:
			a, err := in(0)
			if err != nil {
				return nil, err
			}
			if a.c != n.InC {
				return nil, fmt.Errorf("quant: node %q reads %d channels, its weights expect %d", n.Name, a.c, n.InC)
			}
			oh, ow := n.OutShape[1], n.OutShape[2]
			out = &activation{data: make([]int8, n.OutC*oh*ow), c: n.OutC, h: oh, w: ow}
			if n.Kind == graph.KindConv {
				maxPlane = max(maxPlane, planeLen(a.c, a.h, a.w, n.Kernel, n.Pad))
				break
			}
			// A transpose convolution widens its input as one row of H·W
			// pixels and needs the column matrix and scatter accumulators.
			maxPlane = max(maxPlane, planeLen(a.c, 1, a.h*a.w, 1, 0))
			maxCols32 = max(maxCols32, n.OutC*n.Kernel*n.Kernel*a.h*a.w)
			maxAcc = max(maxAcc, n.OutC*oh*ow)
		case graph.KindMaxPool:
			a, err := in(0)
			if err != nil {
				return nil, err
			}
			oh, ow := a.h/2, a.w/2
			out = &activation{data: make([]int8, a.c*oh*ow), c: a.c, h: oh, w: ow}
		case graph.KindReLU:
			a, err := in(0)
			if err != nil {
				return nil, err
			}
			out = &activation{data: make([]int8, len(a.data)), c: a.c, h: a.h, w: a.w}
		case graph.KindConcat:
			a, err := in(0)
			if err != nil {
				return nil, err
			}
			b, err := in(1)
			if err != nil {
				return nil, err
			}
			if a.h != b.h || a.w != b.w {
				return nil, fmt.Errorf("quant: node %q concatenates mismatched planes %dx%d vs %dx%d", n.Name, a.h, a.w, b.h, b.w)
			}
			out = &activation{data: make([]int8, (a.c+b.c)*a.h*a.w), c: a.c + b.c, h: a.h, w: a.w}
		case graph.KindSoftmax:
			a, err := in(0)
			if err != nil {
				return nil, err
			}
			out = a // host-side op: aliases its input activation
		default:
			return nil, fmt.Errorf("quant: unsupported node kind %s at %q", n.Kind, n.Name)
		}
		e.acts[n.Name] = out
	}
	if _, ok := e.acts[q.OutputName]; !ok {
		return nil, fmt.Errorf("quant: graph output %q has no producer", q.OutputName)
	}
	// Store-target fusion: alias each annotated producer's activation to its
	// slice of the consuming concat's buffer, so the producer's write-back
	// lands in place and the concat copy disappears. Concats appear after
	// their producers in topological order, so every target buffer exists by
	// now.
	for _, n := range q.Nodes {
		if n.StoreTarget == "" {
			continue
		}
		a := e.acts[n.Name]
		tgt := e.acts[n.StoreTarget]
		if tgt == nil {
			return nil, fmt.Errorf("quant: node %q store-target %q has no buffer", n.Name, n.StoreTarget)
		}
		hw := a.h * a.w
		lo := n.StoreOffset * hw
		hi := lo + len(a.data)
		if tgt.h != a.h || tgt.w != a.w || hi > len(tgt.data) {
			return nil, fmt.Errorf("quant: node %q store-target %q geometry mismatch", n.Name, n.StoreTarget)
		}
		a.data = tgt.data[lo:hi:hi]
	}
	e.plane = make([]int32, maxPlane)
	e.cols32 = make([]int32, maxCols32)
	e.acc = make([]int32, maxAcc)
	return e, nil
}

// run executes the graph into the arena, invoking tap (when non-nil) with
// every node's output activation. Activation buffers stay valid until the
// next run call.
func (e *Executor) run(img *tensor.Tensor, tap func(*QNode, *activation)) error {
	q := e.g
	if img.Rank() != 3 || img.Shape[0] != q.InC || img.Shape[1] != q.InH || img.Shape[2] != q.InW {
		return fmt.Errorf("quant: input shape %v, want [%d %d %d]", img.Shape, q.InC, q.InH, q.InW)
	}
	for _, n := range q.Nodes {
		out := e.acts[n.Name]
		switch n.Kind {
		case graph.KindInput:
			// Scale input slices by the factor stored in the xmodel
			// (Section III-E).
			QuantizeSlice(img.Data, q.InputFP, out.data)
			out.fp = q.InputFP
		case graph.KindConv:
			in := e.acts[n.Inputs[0]]
			switch effBits(n) {
			case Bits8:
				shift := RequantShift(in.fp+n.WeightFP, n.OutFP)
				convInt8(in.data, in.c, in.h, in.w, n.tileWeights(), n.Bias, n.OutC, n.Kernel, n.Stride, n.Pad, shift, n.StoreShift, n.FusedReLU, out.data, out.h, out.w, e.plane)
			case Bits4:
				shift := RequantShift(in.fp+n.WeightFP, n.OutFP)
				convIntRef(in.data, in.c, in.h, in.w, n.Weight, n.Bias, n.OutC, n.Kernel, n.Stride, n.Pad, shift, n.FusedReLU, Bits4, out.data, out.h, out.w)
			case BitsFP32:
				convFP32Ref(in.data, in.fp, in.c, in.h, in.w, n.WeightF, n.BiasF, n.OutC, n.Kernel, n.Stride, n.Pad, n.FusedReLU, n.OutFP, out.data, out.h, out.w)
			}
			out.fp = n.OutFP
		case graph.KindConvTranspose:
			in := e.acts[n.Inputs[0]]
			switch effBits(n) {
			case Bits8:
				shift := RequantShift(in.fp+n.WeightFP, n.OutFP)
				convTransposeInt8(in.data, in.c, in.h, in.w, n.tileWeights(), n.Bias, n.OutC, n.Kernel, n.Stride, n.Pad, shift, n.StoreShift, n.FusedReLU, out.data, out.h, out.w, e.plane, e.cols32, e.acc)
			case Bits4:
				shift := RequantShift(in.fp+n.WeightFP, n.OutFP)
				convTransposeIntRef(in.data, in.c, in.h, in.w, n.Weight, n.Bias, n.OutC, n.Kernel, n.Stride, n.Pad, shift, n.FusedReLU, Bits4, out.data, out.h, out.w)
			case BitsFP32:
				convTransposeFP32Ref(in.data, in.fp, in.c, in.h, in.w, n.WeightF, n.BiasF, n.OutC, n.Kernel, n.Stride, n.Pad, n.FusedReLU, n.OutFP, out.data, out.h, out.w)
			}
			out.fp = n.OutFP
		case graph.KindMaxPool:
			in := e.acts[n.Inputs[0]]
			maxPoolInt8(in.data, in.c, in.h, in.w, RequantShift(in.fp, n.OutFP), out.data)
			out.fp = n.OutFP
		case graph.KindReLU:
			in := e.acts[n.Inputs[0]]
			reluInt8(in.data, RequantShift(in.fp, n.OutFP), out.data)
			out.fp = n.OutFP
		case graph.KindConcat:
			// Inputs whose producer carries a store-target annotation already
			// wrote themselves (requantized) into this buffer; only the rest
			// are copied.
			a := e.acts[n.Inputs[0]]
			b := e.acts[n.Inputs[1]]
			if p := q.byName[n.Inputs[0]]; p == nil || p.StoreTarget != n.Name {
				requantInt8(a.data, RequantShift(a.fp, n.OutFP), out.data[:len(a.data)])
			}
			if p := q.byName[n.Inputs[1]]; p == nil || p.StoreTarget != n.Name {
				requantInt8(b.data, RequantShift(b.fp, n.OutFP), out.data[len(a.data):])
			}
			out.fp = n.OutFP
		case graph.KindSoftmax:
			// Host-side op; out aliases the int8 logits (Execute handles the
			// float conversion at the boundary).
		}
		if tap != nil {
			tap(n, out)
		}
	}
	return nil
}

// Execute runs the graph on one FP32 CHW image and returns the dequantized
// output tensor (probabilities if the graph ends in softmax, logits
// otherwise), exactly like QGraph.Execute but against this executor's arena.
func (e *Executor) Execute(img *tensor.Tensor) (*tensor.Tensor, error) {
	if err := e.run(img, nil); err != nil {
		return nil, err
	}
	q := e.g
	outNode := q.byName[q.OutputName]
	if outNode.Kind == graph.KindSoftmax {
		in := e.acts[outNode.Inputs[0]]
		logits := dequantizeToTensor(in.data, in.fp, [3]int{in.c, in.h, in.w})
		s := tensor.SoftmaxChannels(logits.Reshape(1, in.c, in.h, in.w))
		return s.Reshape(in.c, in.h, in.w), nil
	}
	out := e.acts[q.OutputName]
	return dequantizeToTensor(out.data, out.fp, [3]int{out.c, out.h, out.w}), nil
}

// ExecuteLabels runs the graph and returns the per-pixel argmax class map
// directly from the INT8 logits (argmax commutes with softmax), exactly as
// the deployed DPU model returns INT8 masks. The returned mask is freshly
// allocated — the only allocation on the steady-state INT8 path — because
// callers retain masks beyond the next frame.
func (e *Executor) ExecuteLabels(img *tensor.Tensor) ([]uint8, error) {
	if err := e.run(img, nil); err != nil {
		return nil, err
	}
	q := e.g
	outNode := q.byName[q.OutputName]
	src := outNode.Name
	if outNode.Kind == graph.KindSoftmax {
		src = outNode.Inputs[0]
	}
	a := e.acts[src]
	return argmaxChannelsInt8(a.data, a.c, a.h*a.w), nil
}
