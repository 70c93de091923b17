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

// narrowNode is a convolution or transpose convolution node at bits (Bits4
// or BitsFP32) over weight codes and integer biases, with an oh×ow output at
// outFP. An FP32 node's weights are the codes over 100, which no power of two
// scales exactly, and its biases the integers over 2¹⁶.
func narrowNode(kind graph.Kind, bits, c, outC, k, stride, pad int, weight []int8, bias []int32, relu bool, oh, ow int, outFP FixPos) *QNode {
	n := &QNode{Kind: kind, Kernel: k, Stride: stride, Pad: pad, InC: c, OutC: outC, Bits: bits, FusedReLU: relu, OutShape: [3]int{outC, oh, ow}, OutFP: outFP}
	if bits != BitsFP32 {
		n.Weight, n.Bias = weight, bias
		return n
	}
	n.WeightF, n.BiasF = make([]float32, len(weight)), make([]float32, len(bias))
	for i, v := range weight {
		n.WeightF[i] = float32(v) / 100
	}
	for i, v := range bias {
		n.BiasF[i] = float32(v) / (1 << 16)
	}
	return n
}

// checkIntRef runs a narrow-precision node over src, a c×h×w image at inFP,
// the way the executor does — an INT4 node through convPhases and
// saturateCells, reading a plane with the border reach asks for (widened by
// g), an FP32 node through execRef — under every kernel body this host can
// run, and holds it to its oracle: the integer oracle on the 4-bit grid at
// the given shift, or fp32Oracle.
func checkIntRef(t *testing.T, what string, n *QNode, src []int8, inFP FixPos, h, w, shift int, g testGeom) {
	t.Helper()
	c, oh, ow := n.InC, n.OutShape[1], n.OutShape[2]
	s := step{n: n, shift: shift, out: newPlane(n.OutC, oh, ow, g.outBorder, 0)}
	var border, span int
	if n.Bits == Bits4 {
		s.phases = n.tilePhases()
		border, span = reach(s.phases, n.outStep(), h, w, oh, ow)
	}
	s.in = newPlane(c, h, w, border+g.extraBorder, span)
	s.in.fp = inFP
	widenPlane(src, s.in)
	var want, lo, hi []int8
	switch {
	case n.Bits == BitsFP32:
		lo, hi = fp32Oracle(n, src, inFP, h, w)
	case n.Kind == graph.KindConv:
		want = refConvInt8(src, c, h, w, n.Weight, n.Bias, n.OutC, n.Kernel, n.Stride, n.Pad, shift, 0, n.FusedReLU, oh, ow, Bits4)
	default:
		want = refConvTransposeInt8(src, c, h, w, n.Weight, n.Bias, n.OutC, n.Kernel, n.Stride, n.Pad, shift, 0, n.FusedReLU, oh, ow, Bits4)
	}
	e := &Executor{refIn: make([]int8, len(src)), refOut: make([]int8, n.OutC*oh*ow)}
	for _, b := range hostBodies() {
		withBody(b, func() {
			e.exec(&s, nil)
			name := KernelISA() + " body " + what
			got := narrowed(t, name, s.out)
			if want != nil {
				sameInt8s(t, name, got, want)
				return
			}
			for i := range got {
				if got[i] < lo[i] || got[i] > hi[i] {
					t.Fatalf("%s: output %d: %d, want %d…%d", name, i, got[i], lo[i], hi[i])
				}
			}
		})
	}
}

// fp32Oracle is the FP32-fallback kernels' oracle: the node computed
// directly in float64 over the dequantized input — a gather for a
// convolution, a scatter for a transpose convolution — and put on the output
// grid by quantizeOne. The kernels sum the same terms in float32 in their own
// order, so each output gets the lowest and highest code of any sum within
// that sum's error bound — (terms+1)·2⁻²⁴·Σ|term| — or 1e-3 of a code, if
// wider, of the exact one: one code, or two within that distance of a
// rounding half-step.
func fp32Oracle(n *QNode, src []int8, inFP FixPos, h, w int) (lo, hi []int8) {
	c, outC, oh, ow, k := n.InC, n.OutC, n.OutShape[1], n.OutShape[2], n.Kernel
	inv := math.Pow(2, -float64(inFP))
	acc := make([]float64, outC*oh*ow)
	mag := make([]float64, len(acc))
	terms := make([]int, len(acc))
	add := func(o int, v float64) {
		acc[o] += v
		mag[o] += math.Abs(v)
		terms[o]++
	}
	for o := range acc {
		add(o, float64(n.BiasF[o/(oh*ow)]))
	}
	at := func(ic, y, x int) float64 { return float64(src[(ic*h+y)*w+x]) * inv }
	for ic := 0; ic < c; ic++ {
		for oc := 0; oc < outC; oc++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					if n.Kind == graph.KindConvTranspose {
						wt := float64(n.WeightF[((ic*outC+oc)*k+ky)*k+kx])
						for iy := 0; iy < h; iy++ {
							for ix := 0; ix < w; ix++ {
								py, px := iy*n.Stride-n.Pad+ky, ix*n.Stride-n.Pad+kx
								if py >= 0 && py < oh && px >= 0 && px < ow {
									add((oc*oh+py)*ow+px, at(ic, iy, ix)*wt)
								}
							}
						}
						continue
					}
					wt := float64(n.WeightF[((oc*c+ic)*k+ky)*k+kx])
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							iy, ix := oy*n.Stride-n.Pad+ky, ox*n.Stride-n.Pad+kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								add((oc*oh+oy)*ow+ox, at(ic, iy, ix)*wt)
							}
						}
					}
				}
			}
		}
	}
	scale := math.Pow(2, float64(n.OutFP))
	lo, hi = make([]int8, len(acc)), make([]int8, len(acc))
	for o, v := range acc {
		tol := max(1e-3/scale, float64(terms[o]+1)*0x1p-24*mag[o])
		a, b := v-tol, v+tol
		if n.FusedReLU {
			a, b = max(a, 0), max(b, 0)
		}
		lo[o], hi[o] = quantizeOne(float32(a), scale), quantizeOne(float32(b), scale)
	}
	return lo, hi
}

// TestIntRefMatchesOracle holds the executor's narrow-precision layers to
// their oracles: k1 and k3 convolutions and stride-2 transpose convolutions
// at k 2 to 4, over odd channel counts, with and without ReLU, under ordinary
// and edge biases — at INT4 at shifts of every sign, and as FP32 fallbacks at
// several input and output fix positions.
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
				node := func(bits int, outFP FixPos) *QNode {
					return narrowNode(l.kind, bits, c, outC, l.k, l.stride, l.pad, weight[:outC*c*l.k*l.k], bias, relu, oh, ow, outFP)
				}
				for _, shift := range []int{-2, 0, 1, 4, 9} {
					what := fmt.Sprintf("%s k%d biases %d relu %v shift %d", l.kind, l.k, b, relu, shift)
					checkIntRef(t, what, node(Bits4, 0), src, 0, h, w, shift, testGeom{outBorder: 1})
				}
				for _, fp := range [][2]FixPos{{0, 0}, {7, 4}, {3, 2}, {-2, -3}} {
					what := fmt.Sprintf("%s k%d biases %d relu %v FP32 fix %d to %d", l.kind, l.k, b, relu, fp[0], fp[1])
					checkIntRef(t, what, node(BitsFP32, fp[1]), src, fp[0], h, w, 0, testGeom{outBorder: 1})
				}
			}
		}
	}
}

// FuzzIntRefVsOracle is the narrow-precision layers' differential fuzzer:
// decodeFuzz's geometries, operands and biases — a convolution at stride 1,
// the only one the executor runs, or a transpose convolution — through
// checkIntRef. shift2, which neither precision uses (a narrow layer is never
// a store target), picks the precision: even runs INT4, with the weights
// narrowed to 4-bit codes, and odd the FP32 fallback, reading at fix position
// shift mod 9 and writing at shift2/2 mod 9 − 2.
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
		if shift2%2 != 0 {
			n := narrowNode(kind, BitsFP32, fc.c, fc.outC, fc.k, fc.stride, fc.pad, weight, fc.bias, fc.relu, oh, ow, FixPos(int(shift2/2)%9-2))
			checkIntRef(t, kind.String()+" FP32", n, fc.src, FixPos(fc.shift%9), fc.h, fc.w, 0, fc.geom)
			return
		}
		for i := range weight {
			weight[i] >>= 4 // a 4-bit code: −128 and 127 become −8 and 7
		}
		n := narrowNode(kind, Bits4, fc.c, fc.outC, fc.k, fc.stride, fc.pad, weight, fc.bias, fc.relu, oh, ow, 0)
		checkIntRef(t, kind.String(), n, fc.src, 0, fc.h, fc.w, fc.shift, fc.geom)
	})
}
