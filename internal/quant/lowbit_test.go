package quant

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"seneca/internal/graph"
	"seneca/internal/par"
	"seneca/internal/tensor"
)

// convNames returns the convolution layer names of the folded graph in
// topological order.
func convNames(t *testing.T, g *graph.Graph) []string {
	t.Helper()
	folded, err := Fold(g)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range folded.Nodes {
		if n.Kind == graph.KindConv || n.Kind == graph.KindConvTranspose {
			names = append(names, n.Name)
		}
	}
	return names
}

func probeImage(seed int64) *tensor.Tensor {
	probe := tensor.New(1, 16, 16)
	rng := rand.New(rand.NewSource(seed))
	for i := range probe.Data {
		probe.Data[i] = float32(rng.NormFloat64() * 0.5)
	}
	return probe
}

// TestQConfigINT4Layer quantizes one layer to INT4 and checks the
// narrow-precision invariants: 4-bit weight codes, a 4-bit output grid and
// a well-formed mask from the mixed-precision executor.
func TestQConfigINT4Layer(t *testing.T) {
	_, g, calib := buildTestModel(t)
	names := convNames(t, g)
	layer := names[len(names)/2]
	q, err := PTQ(g, calib, Options{Config: &QConfig{Layers: map[string]int{layer: Bits4}}})
	if err != nil {
		t.Fatal(err)
	}
	n := q.Node(layer)
	if n == nil || n.Bits != Bits4 {
		t.Fatalf("layer %q not marked INT4 (bits %d)", layer, n.Bits)
	}
	for i, w := range n.Weight {
		if w < -8 || w > 7 {
			t.Fatalf("weight[%d] = %d outside the INT4 range", i, w)
		}
	}
	labels, err := q.ExecuteLabels(probeImage(77))
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 16*16 {
		t.Fatalf("mask has %d pixels, want %d", len(labels), 16*16)
	}
	for i, c := range labels {
		if int(c) >= q.NumClasses {
			t.Fatalf("pixel %d: class %d out of range (%d classes)", i, c, q.NumClasses)
		}
	}
}

// TestQConfigFP32Fallback keeps every convolution in float and checks that
// the fallback path agrees with the FP32 model at least as well as uniform
// INT8 does — the whole point of falling back.
func TestQConfigFP32Fallback(t *testing.T) {
	m, g, calib := buildTestModel(t)
	q8, err := PTQ(g, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q32, err := PTQ(g, calib, Options{Config: &QConfig{DefaultBits: BitsFP32}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range q32.Nodes {
		if n.Kind == graph.KindConv || n.Kind == graph.KindConvTranspose {
			if n.Bits != BitsFP32 || n.Weight != nil || n.WeightF == nil {
				t.Fatalf("node %q: not an FP32 fallback (bits %d)", n.Name, n.Bits)
			}
		}
	}
	probe := probeImage(77)
	ref := m.Predict(probe.Reshape(1, 1, 16, 16))
	agree := func(q *QGraph) float64 {
		labels, err := q.ExecuteLabels(probe)
		if err != nil {
			t.Fatal(err)
		}
		same := 0
		for i, c := range labels {
			if c == ref[i] {
				same++
			}
		}
		return float64(same) / float64(len(labels))
	}
	a8, a32 := agree(q8), agree(q32)
	if a32+0.02 < a8 {
		t.Errorf("FP32 fallback agreement %.3f worse than INT8 %.3f", a32, a8)
	}
	if a32 < 0.85 {
		t.Errorf("FP32 fallback agreement %.3f with the FP32 model is too low", a32)
	}
}

// TestMixedPrecisionDeterministic pins the mixed-precision reference path
// (INT4 and FP32 layers) to be bit-identical across runs and worker-pool
// sizes: the kernels parallelize over output channels only, so the
// accumulation order never changes.
func TestMixedPrecisionDeterministic(t *testing.T) {
	_, g, calib := buildTestModel(t)
	names := convNames(t, g)
	cfg := &QConfig{Layers: map[string]int{
		names[0]:            BitsFP32,
		names[len(names)/2]: Bits4,
		names[len(names)-1]: Bits4,
	}}
	probe := probeImage(31)
	run := func() []uint8 {
		q, err := PTQ(g, calib, Options{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		labels, err := q.ExecuteLabels(probe)
		if err != nil {
			t.Fatal(err)
		}
		return labels
	}
	base := run()
	for _, workers := range []int{1, 2, 8} {
		prev := par.SetMaxWorkers(workers)
		got := run()
		par.SetMaxWorkers(prev)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("mask changed with %d workers", workers)
		}
	}
}

// TestQConfigRejectsBadBits checks that an unsupported bitwidth fails
// loudly at quantization time instead of producing a half-converted graph.
func TestQConfigRejectsBadBits(t *testing.T) {
	_, g, calib := buildTestModel(t)
	_, err := PTQ(g, calib, Options{Config: &QConfig{DefaultBits: 5}})
	if err == nil {
		t.Fatal("bitwidth 5 accepted")
	}
	_, err = PTQ(g, calib, Options{Config: &QConfig{Layers: map[string]int{"enc0.a.conv": 16}}})
	if err == nil {
		t.Fatal("bitwidth 16 accepted")
	}
}

// checkIntRef runs an INT4 convolution or transpose convolution the way the
// executor does — execRef narrows the input plane (borders from g), runs
// convIntRef or convTransposeIntRef and widens the result — and holds it to
// the integer oracle on the 4-bit grid.
func checkIntRef(t *testing.T, what string, kind graph.Kind, src []int8, c, h, w int, weight []int8, bias []int32, outC, k, stride, pad, shift int, relu bool, oh, ow int, g testGeom) {
	t.Helper()
	want := refConvInt8(src, c, h, w, weight, bias, outC, k, stride, pad, shift, 0, relu, oh, ow, Bits4)
	if kind == graph.KindConvTranspose {
		want = refConvTransposeInt8(src, c, h, w, weight, bias, outC, k, stride, pad, shift, 0, relu, oh, ow, Bits4)
	}
	n := &QNode{Kind: kind, Kernel: k, Stride: stride, Pad: pad, InC: c, OutC: outC, Weight: weight, Bias: bias, Bits: Bits4, FusedReLU: relu}
	in := newPlane(c, h, w, g.extraBorder, 0)
	widenPlane(src, in)
	out := newPlane(outC, oh, ow, g.outBorder, 0)
	e := &Executor{refIn: make([]int8, c*h*w), refOut: make([]int8, outC*oh*ow)}
	e.execRef(&step{n: n, in: in, out: out, shift: shift})
	sameInt8s(t, what, narrowed(t, what, out), want)
}

// TestIntRefMatchesOracle holds the executor's INT4 path to the integer
// oracle at 4 bits: k1 and k3 convolutions and stride-2 transpose
// convolutions at k 2 to 4, over odd channel counts, with and without ReLU,
// at shifts of every sign, under ordinary and edge biases. The weights are
// 4-bit codes, so no reduction here comes near int32 wrap, which the oracle
// would take and convIntRef, accumulating in int64, would not.
func TestIntRefMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	c, h, w, outC := 3, 5, 7, 5
	src := randInt8s(rng, c*h*w)
	weight := make([]int8, outC*c*4*4)
	for i := range weight {
		weight[i] = int8(rng.Intn(16) - 8)
	}
	biases := [][]int32{
		{100, -50, 0, 7, -300},
		{math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1, 0},
	}
	for _, l := range []struct {
		kind                   graph.Kind
		k, stride, pad, outPad int
	}{
		{graph.KindConv, 1, 1, 0, 0},
		{graph.KindConv, 3, 1, 1, 0},
		{graph.KindConv, 3, 1, 0, 0},
		{graph.KindConvTranspose, 2, 2, 0, 0},
		{graph.KindConvTranspose, 3, 2, 1, 1},
		{graph.KindConvTranspose, 4, 2, 1, 0},
	} {
		oh, ow := h+2*l.pad-l.k+1, w+2*l.pad-l.k+1
		if l.kind == graph.KindConvTranspose {
			oh, ow = (h-1)*l.stride-2*l.pad+l.k+l.outPad, (w-1)*l.stride-2*l.pad+l.k+l.outPad
		}
		for b, bias := range biases {
			for _, relu := range []bool{false, true} {
				for _, shift := range []int{-2, 0, 1, 4, 9} {
					what := fmt.Sprintf("%s k%d biases %d relu %v shift %d", l.kind, l.k, b, relu, shift)
					checkIntRef(t, what, l.kind, src, c, h, w, weight[:outC*c*l.k*l.k], bias, outC, l.k, l.stride, l.pad, shift, relu, oh, ow, testGeom{outBorder: 1})
				}
			}
		}
	}
}

// FuzzIntRefVsOracle is the INT4 path's differential fuzzer: decodeFuzz's
// geometries, operands and biases — a convolution at stride 1, the only one
// the executor runs, or a transpose convolution — with the weights narrowed
// to 4-bit codes, through checkIntRef. shift2 goes unused: a narrow layer is
// never a store target. The largest reduction decodeFuzz draws, 6399
// channels × 25 taps × 128 × 8, is ≈1.6·10⁸, below int32 wrap, which the
// oracle would take and convIntRef, accumulating in int64, would not.
func FuzzIntRefVsOracle(f *testing.F) {
	f.Add(int64(1), uint16(2), uint16(6), uint16(8), uint16(4), uint8(2), uint8(1), uint8(0), uint8(0), uint8(11), uint8(2), uint8(0), uint8(0x14), true, false)
	f.Fuzz(func(t *testing.T, seed int64, c, h, w, outC uint16, k, pad, stride, outPad, shift, shift2, fill, geom uint8, relu, transpose bool) {
		fc := decodeFuzz(seed, c, h, w, outC, k, pad, stride, outPad, shift, shift2, fill, geom, relu)
		kind, oh, ow := graph.KindConvTranspose, (fc.h-1)*fc.stride-2*fc.pad+fc.k+fc.outPad, (fc.w-1)*fc.stride-2*fc.pad+fc.k+fc.outPad
		if !transpose {
			kind, fc.stride = graph.KindConv, 1
			oh, ow = fc.h+2*fc.pad-fc.k+1, fc.w+2*fc.pad-fc.k+1
		}
		if oh < 1 || ow < 1 {
			t.Skip("no output")
		}
		weight := fc.operand(fc.c*fc.outC*fc.k*fc.k, fill>>3&3)
		for i := range weight {
			weight[i] >>= 4 // a 4-bit code: −128 and 127 become −8 and 7
		}
		checkIntRef(t, kind.String(), kind, fc.src, fc.c, fc.h, fc.w, weight, fc.bias, fc.outC, fc.k, fc.stride, fc.pad, fc.shift, fc.relu, oh, ow, fc.geom)
	})
}
