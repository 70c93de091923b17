package quant

import (
	"math"
	"math/rand"
	"testing"

	"seneca/internal/graph"
)

// refConvInt8 is the deliberately naive integer convolution every fast path
// and the narrow reference kernel are held to: one gather per output over the
// unpadded image, accumulating in wrapping int32, then bias (in int64), ReLU
// and the two round-shifts onto the bits-wide grid.
func refConvInt8(src []int8, c, h, w int, weight []int8, bias []int32, outC, k, stride, pad, shift, shift2 int, relu bool, oh, ow, bits int) []int8 {
	out := make([]int8, outC*oh*ow)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc int32
				for ic := 0; ic < c; ic++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							iy := oy*stride - pad + ky
							ix := ox*stride - pad + kx
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							acc += int32(weight[((oc*c+ic)*k+ky)*k+kx]) * int32(src[(ic*h+iy)*w+ix])
						}
					}
				}
				out[(oc*oh+oy)*ow+ox] = refFinalize(acc, bias[oc], relu, shift, shift2, bits)
			}
		}
	}
	return out
}

// refConvTransposeInt8 is refConvInt8's transpose counterpart: every input
// pixel scatters its k×k products into a wrapping int32 output plane.
// Weight layout is [InC, OutC, K, K].
func refConvTransposeInt8(src []int8, c, h, w int, weight []int8, bias []int32, outC, k, stride, pad, shift, shift2 int, relu bool, oh, ow, bits int) []int8 {
	acc := make([]int32, outC*oh*ow)
	for ic := 0; ic < c; ic++ {
		for oc := 0; oc < outC; oc++ {
			for iy := 0; iy < h; iy++ {
				for ix := 0; ix < w; ix++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							py := iy*stride - pad + ky
							px := ix*stride - pad + kx
							if py < 0 || py >= oh || px < 0 || px >= ow {
								continue
							}
							acc[(oc*oh+py)*ow+px] += int32(src[(ic*h+iy)*w+ix]) * int32(weight[((ic*outC+oc)*k+ky)*k+kx])
						}
					}
				}
			}
		}
	}
	out := make([]int8, len(acc))
	for i, a := range acc {
		out[i] = refFinalize(a, bias[i/(oh*ow)], relu, shift, shift2, bits)
	}
	return out
}

func refFinalize(acc, bias int32, relu bool, shift, shift2, bits int) int8 {
	v := int64(acc) + int64(bias)
	if relu && v < 0 {
		v = 0
	}
	r := RoundShift(v, shift, bits)
	if shift2 != 0 {
		r = RoundShift(int64(r), shift2, bits)
	}
	return r
}

// testGeom widens the planes a kernel test runs through beyond what the
// U-Net gives them: a border wider than the reader's reach, and an output
// that is a run of planes inside a larger buffer, as a store target is.
type testGeom struct {
	extraBorder int // added to the input border the node asks for
	outBorder   int // the output plane's border
	planeOff    int // planes of someone else's data before the output's
}

// newPlane returns a zeroed c×h×w activation with the given border whose
// rows run at least span cells past the border's inner edge.
func newPlane(c, h, w, border, span int) *activation {
	a := &activation{c: c, h: h, w: w, border: border, cols: max(w+2*border, border+span)}
	a.cells = make([]int32, a.cpairs()*a.planeStride())
	return a
}

// bordersZero fails the test if any border or ghost cell of a is not zero.
func bordersZero(t *testing.T, what string, a *activation) {
	t.Helper()
	rows := a.h + 2*a.border
	for cp := 0; cp < a.cpairs(); cp++ {
		for y := 0; y < rows; y++ {
			for x := 0; x < a.cols; x++ {
				inside := y >= a.border && y < a.border+a.h && x >= a.border && x < a.border+a.w
				if v := a.cells[cp*a.planeStride()+y*a.cols+x]; !inside && v != 0 {
					t.Fatalf("%s: border cell (plane %d, row %d, col %d) = %#x, want 0", what, cp, y, x, v)
				}
			}
		}
	}
}

// runInt8 runs the production INT8 convolution or transpose convolution the
// way the executor does — the node's phases over cell planes — and returns
// the output as a plain CHW image, after checking that the write-back left
// every border cell and every plane that is not its own alone.
func runInt8(t *testing.T, kind graph.Kind, src []int8, c, h, w int, weight []int8, bias []int32, outC, k, stride, pad, shift, shift2 int, relu bool, oh, ow int, g testGeom) []int8 {
	t.Helper()
	n := &QNode{Kind: kind, Kernel: k, Stride: stride, Pad: pad, InC: c, OutC: outC, Weight: weight, Bias: bias}
	phases := n.tilePhases()
	border, span := reach(phases, n.outStep(), h, w, oh, ow)
	in := newPlane(c, h, w, border+g.extraBorder, span)
	widenPlane(src, in)
	const sentinel = 0x5a5a5a5a
	buf := newPlane(2*(g.planeOff+(outC+1)/2+1), oh, ow, g.outBorder, 0)
	for i := range buf.cells {
		buf.cells[i] = sentinel
	}
	out := &activation{c: outC, h: oh, w: ow, border: buf.border, cols: buf.cols}
	out.cells = buf.cells[g.planeOff*buf.planeStride():][:out.cpairs()*buf.planeStride()]
	clear(out.cells)
	convPhases(in, phases, n.outStep(), n.accBound, bias, outC, shift, shift2, relu, out)
	bordersZero(t, "output", out)
	for i, v := range buf.cells {
		if own := i >= g.planeOff*buf.planeStride() && i < g.planeOff*buf.planeStride()+len(out.cells); !own && v != sentinel {
			t.Fatalf("write-back reached cell %d outside its planes", i)
		}
	}
	dst := make([]int8, outC*oh*ow)
	narrowPlane(out, dst)
	return dst
}

func runConvInt8(t *testing.T, src []int8, c, h, w int, weight []int8, bias []int32, outC, k, stride, pad, shift, shift2 int, relu bool, oh, ow int) []int8 {
	t.Helper()
	return runInt8(t, graph.KindConv, src, c, h, w, weight, bias, outC, k, stride, pad, shift, shift2, relu, oh, ow, testGeom{outBorder: 1})
}

func runConvTransposeInt8(t *testing.T, src []int8, c, h, w int, weight []int8, bias []int32, outC, k, stride, pad, shift, shift2 int, relu bool, oh, ow int) []int8 {
	t.Helper()
	return runInt8(t, graph.KindConvTranspose, src, c, h, w, weight, bias, outC, k, stride, pad, shift, shift2, relu, oh, ow, testGeom{outBorder: 1})
}

// planeOf widens a CHW image into a border-1 plane.
func planeOf(src []int8, c, h, w int) *activation {
	a := newPlane(c, h, w, 1, 0)
	widenPlane(src, a)
	return a
}

// narrowed checks a's borders and returns it as a CHW image.
func narrowed(t *testing.T, what string, a *activation) []int8 {
	t.Helper()
	bordersZero(t, what, a)
	dst := make([]int8, a.c*a.h*a.w)
	narrowPlane(a, dst)
	return dst
}

// poolInt8, reluCHW and requantCHW run the element-wise kernels on CHW
// images through cell planes.
func poolInt8(t *testing.T, src []int8, c, h, w, shift int) []int8 {
	t.Helper()
	out := newPlane(c, h/2, w/2, 1, 0)
	maxPoolInt8(planeOf(src, c, h, w), shift, out)
	return narrowed(t, "pool", out)
}

func reluCHW(t *testing.T, src []int8, c, h, w, shift int) []int8 {
	t.Helper()
	out := newPlane(c, h, w, 2, 0)
	reluInt8(planeOf(src, c, h, w), shift, out)
	return narrowed(t, "relu", out)
}

// requantCHW copies src into a concat buffer after before channels of junk
// and returns the copied channels, having checked the junk is still there.
func requantCHW(t *testing.T, src []int8, c, h, w, shift, before int) []int8 {
	t.Helper()
	hw := h * w
	junk := make([]int8, (before+c+1)*hw)
	for i := range junk {
		junk[i] = int8(i%251 - 125)
	}
	dst := planeOf(junk, before+c+1, h, w)
	requantInt8(planeOf(src, c, h, w), shift, dst, before)
	got := narrowed(t, "concat", dst)
	for i := range got {
		if inside := i >= before*hw && i < (before+c)*hw; !inside && got[i] != junk[i] {
			t.Fatalf("concat copy at offset %d changed value %d of a neighbouring channel", before, i)
		}
	}
	return got[before*hw : (before+c)*hw]
}

func randInt8s(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(rng.Intn(256) - 128)
	}
	return s
}

func sameInt8s(t *testing.T, what string, got, want []int8) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: output %d: %d, want %d", what, i, got[i], want[i])
		}
	}
}

func TestConvInt8MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, h, w := 3, 7, 9
	outC, k, pad := 4, 3, 1
	src := randInt8s(rng, c*h*w)
	weight := randInt8s(rng, outC*c*k*k)
	bias := []int32{100, -50, 0, 7}
	for _, relu := range []bool{false, true} {
		for _, shift := range []int{0, 3, 7} {
			want := refConvInt8(src, c, h, w, weight, bias, outC, k, 1, pad, shift, 0, relu, h, w, Bits8)
			got := runConvInt8(t, src, c, h, w, weight, bias, outC, k, 1, pad, shift, 0, relu, h, w)
			sameInt8s(t, "conv", got, want)
		}
	}
}

// TestConvInt8OddChannels exercises lane blocks with ghost lanes and a
// channel pair whose second half is a ghost channel.
func TestConvInt8OddChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, outC := range []int{1, 2, 3, 5, 7, 9, 17} {
		for _, c := range []int{1, 2, 3} {
			h, w, k, pad := 5, 5, 3, 1
			src := randInt8s(rng, c*h*w)
			weight := randInt8s(rng, outC*c*k*k)
			bias := make([]int32, outC)
			for i := range bias {
				bias[i] = int32(rng.Intn(201) - 100)
			}
			want := refConvInt8(src, c, h, w, weight, bias, outC, k, 1, pad, 5, 0, true, h, w, Bits8)
			got := runConvInt8(t, src, c, h, w, weight, bias, outC, k, 1, pad, 5, 0, true, h, w)
			sameInt8s(t, "conv", got, want)
		}
	}
}

func TestConvTransposeInt8IsAdjointShape(t *testing.T) {
	// 2× upsampling geometry: 4×4 → 8×8 must populate the full output.
	rng := rand.New(rand.NewSource(2))
	c, h, w, outC, k, stride, pad := 2, 4, 4, 3, 3, 2, 1
	oh, ow := 8, 8
	src := make([]int8, c*h*w)
	for i := range src {
		src[i] = int8(rng.Intn(101) - 50)
	}
	weight := make([]int8, c*outC*k*k)
	for i := range weight {
		weight[i] = int8(rng.Intn(101) - 50)
	}
	dst := runConvTransposeInt8(t, src, c, h, w, weight, make([]int32, outC), outC, k, stride, pad, 4, 0, false, oh, ow)
	var nonzero int
	for _, v := range dst {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(dst)/4 {
		t.Fatalf("transpose conv left most of the output empty: %d/%d nonzero", nonzero, len(dst))
	}
}

// TestConvTransposeInt8MatchesFloat compares the INT8 transpose conv with
// shift 0 against exact integer arithmetic done in float64.
func TestConvTransposeInt8MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, h, w, outC, k, stride, pad := 2, 3, 3, 2, 3, 2, 1
	oh, ow := 6, 6
	src := make([]int8, c*h*w)
	for i := range src {
		src[i] = int8(rng.Intn(11) - 5)
	}
	weight := make([]int8, c*outC*k*k)
	for i := range weight {
		weight[i] = int8(rng.Intn(11) - 5)
	}
	bias := []int32{3, -2}
	// Exact reference: out[oc, py, px] = Σ_ic Σ_k src[ic,iy,ix]·W[ic,oc,ky,kx]
	ref := make([]float64, outC*oh*ow)
	for ic := 0; ic < c; ic++ {
		for oc := 0; oc < outC; oc++ {
			for iy := 0; iy < h; iy++ {
				for ix := 0; ix < w; ix++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							py := iy*stride - pad + ky
							px := ix*stride - pad + kx
							if py < 0 || py >= oh || px < 0 || px >= ow {
								continue
							}
							ref[(oc*oh+py)*ow+px] += float64(src[(ic*h+iy)*w+ix]) * float64(weight[((ic*outC+oc)*k+ky)*k+kx])
						}
					}
				}
			}
		}
	}
	dst := runConvTransposeInt8(t, src, c, h, w, weight, bias, outC, k, stride, pad, 0, 0, false, oh, ow)
	for i := range dst {
		want := ref[i] + float64(bias[i/(oh*ow)])
		if want > 127 {
			want = 127
		}
		if want < -128 {
			want = -128
		}
		if math.Abs(float64(dst[i])-want) > 0.5 {
			t.Fatalf("pixel %d: %d vs %v", i, dst[i], want)
		}
	}
}

func TestMaxPoolInt8(t *testing.T) {
	src := []int8{
		1, 2, 3, 4,
		5, 6, 7, 8,
		-1, -2, -3, -4,
		-5, -6, -7, -8,
	}
	sameInt8s(t, "pool", poolInt8(t, src, 1, 4, 4, 0), []int8{6, 8, -1, -3})
	// Fused requantization: shift 1 halves (round half away) in the same pass.
	sameInt8s(t, "pool-shift", poolInt8(t, src, 1, 4, 4, 1), []int8{3, 4, -1, -2})
	// Odd planes drop their last row and column, an odd channel count leaves
	// a cell half empty; every shift sign must match RoundShift applied to
	// the plain maxima.
	rng := rand.New(rand.NewSource(6))
	c, h, w := 3, 7, 5
	img := randInt8s(rng, c*h*w)
	for _, shift := range []int{-2, -1, 0, 1, 3} {
		got := poolInt8(t, img, c, h, w, shift)
		for ci := 0; ci < c; ci++ {
			for oy := 0; oy < h/2; oy++ {
				for ox := 0; ox < w/2; ox++ {
					at := func(dy, dx int) int8 { return img[(ci*h+2*oy+dy)*w+2*ox+dx] }
					want := RoundShift(int64(max(at(0, 0), at(0, 1), at(1, 0), at(1, 1))), shift, Bits8)
					if g := got[(ci*(h/2)+oy)*(w/2)+ox]; g != want {
						t.Fatalf("shift %d: pool[%d,%d,%d] = %d, want %d", shift, ci, oy, ox, g, want)
					}
				}
			}
		}
	}
}

func TestReluInt8AndRequant(t *testing.T) {
	src := []int8{-5, 0, 5, 127}
	sameInt8s(t, "relu", reluCHW(t, src, 1, 2, 2, 0), []int8{0, 0, 5, 127})
	sameInt8s(t, "relu-shift", reluCHW(t, src, 1, 2, 2, 1), []int8{0, 0, 3, 64}) // shift right by 1 after relu
	sameInt8s(t, "requant", requantCHW(t, src, 1, 2, 2, 1, 0), []int8{-3, 0, 3, 64})
	sameInt8s(t, "requant shift 0 must copy", requantCHW(t, src, 1, 2, 2, 0, 0), src)
	// Every int8 value at every shift sign, over three channels of odd
	// width — so a cell half is empty — landing at an even and at an odd
	// channel offset of the concat buffer: a left shift saturates, a right
	// shift rounds half away from zero.
	all := make([]int8, 3*85)
	for i := range all {
		all[i] = int8(i - 127)
	}
	for _, shift := range []int{-3, -1, 0, 1, 2, 7, 9} {
		got := reluCHW(t, all, 3, 5, 17, shift)
		for i, v := range all {
			if want := RoundShift(int64(max(v, 0)), shift, Bits8); got[i] != want {
				t.Fatalf("relu(%d) at shift %d = %d, want %d", v, shift, got[i], want)
			}
		}
		for _, before := range []int{0, 2, 1, 3} {
			got = requantCHW(t, all, 3, 5, 17, shift, before)
			for i, v := range all {
				if want := RoundShift(int64(v), shift, Bits8); got[i] != want {
					t.Fatalf("requant(%d) at shift %d, offset %d = %d, want %d", v, shift, before, got[i], want)
				}
			}
		}
	}
}

func TestArgmaxChannelsInt8(t *testing.T) {
	// 2 channels, 3 pixels: [ch0: 1, 5, -1], [ch1: 2, 4, -3].
	src := []int8{1, 5, -1, 2, 4, -3}
	got := argmaxChannelsInt8(planeOf(src, 2, 1, 3))
	want := []uint8{1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("argmax[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Rows that are not a whole number of blocks, an odd channel count, few
	// distinct values so ties are common: the lowest channel wins, as a
	// per-pixel scan would have it.
	rng := rand.New(rand.NewSource(7))
	c, h, w := 5, 3, 2*argmaxBlock+37
	hw := h * w
	logits := make([]int8, c*hw)
	for i := range logits {
		logits[i] = int8(rng.Intn(5) - 2)
	}
	got = argmaxChannelsInt8(planeOf(logits, c, h, w))
	for j := 0; j < hw; j++ {
		best := 0
		for ch := 1; ch < c; ch++ {
			if logits[ch*hw+j] > logits[best*hw+j] {
				best = ch
			}
		}
		if got[j] != uint8(best) {
			t.Fatalf("argmax[%d] = %d, want %d", j, got[j], best)
		}
	}
}
