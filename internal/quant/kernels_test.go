package quant

import (
	"math"
	"math/rand"
	"testing"
)

// refConvInt8 is the deliberately naive INT8 convolution every fast path is
// held to: one gather per output over the unpadded image, accumulating in
// wrapping int32, then bias (in int64), ReLU and the two round-shifts.
func refConvInt8(src []int8, c, h, w int, weight []int8, bias []int32, outC, k, stride, pad, shift, shift2 int, relu bool, oh, ow int) []int8 {
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
				out[(oc*oh+oy)*ow+ox] = refFinalize(acc, bias[oc], relu, shift, shift2)
			}
		}
	}
	return out
}

// refConvTransposeInt8 is refConvInt8's transpose counterpart: every input
// pixel scatters its k×k products into a wrapping int32 output plane.
// Weight layout is [InC, OutC, K, K].
func refConvTransposeInt8(src []int8, c, h, w int, weight []int8, bias []int32, outC, k, stride, pad, shift, shift2 int, relu bool, oh, ow int) []int8 {
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
		out[i] = refFinalize(a, bias[i/(oh*ow)], relu, shift, shift2)
	}
	return out
}

func refFinalize(acc, bias int32, relu bool, shift, shift2 int) int8 {
	v := int64(acc) + int64(bias)
	if relu && v < 0 {
		v = 0
	}
	r := RoundShift(v, shift)
	if shift2 != 0 {
		r = RoundShift(int64(r), shift2)
	}
	return r
}

// dirtyPlane returns scratch of n cells pre-filled with junk, as a reused
// arena buffer would be.
func dirtyPlane(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = 0x5a5a5a5a
	}
	return p
}

// runConvInt8 packs the weights and runs the production convolution.
func runConvInt8(src []int8, c, h, w int, weight []int8, bias []int32, outC, k, stride, pad, shift, shift2 int, relu bool, oh, ow int) []int8 {
	packed := packTileWeights(weight, outC, c, k*k, c*k*k, k*k)
	dst := make([]int8, outC*oh*ow)
	convInt8(src, c, h, w, packed, bias, outC, k, stride, pad, shift, shift2, relu, dst, oh, ow, dirtyPlane(planeLen(c, h, w, k, pad)))
	return dst
}

// runConvTransposeInt8 packs the weights and runs the production transpose
// convolution.
func runConvTransposeInt8(src []int8, c, h, w int, weight []int8, bias []int32, outC, k, stride, pad, shift, shift2 int, relu bool, oh, ow int) []int8 {
	packed := packTileWeights(weight, outC*k*k, c, 1, 1, outC*k*k)
	dst := make([]int8, outC*oh*ow)
	convTransposeInt8(src, c, h, w, packed, bias, outC, k, stride, pad, shift, shift2, relu, dst, oh, ow,
		dirtyPlane(planeLen(c, 1, h*w, 1, 0)), make([]int32, outC*k*k*h*w), make([]int32, outC*oh*ow))
	return dst
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
			// The tiled stride-1 path and the strided gather must both
			// reproduce the reference bit for bit.
			for _, stride := range []int{1, 2} {
				oh, ow := (h+2*pad-k)/stride+1, (w+2*pad-k)/stride+1
				want := refConvInt8(src, c, h, w, weight, bias, outC, k, stride, pad, shift, 0, relu, oh, ow)
				got := runConvInt8(src, c, h, w, weight, bias, outC, k, stride, pad, shift, 0, relu, oh, ow)
				sameInt8s(t, "conv", got, want)
			}
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
			want := refConvInt8(src, c, h, w, weight, bias, outC, k, 1, pad, 5, 0, true, h, w)
			got := runConvInt8(src, c, h, w, weight, bias, outC, k, 1, pad, 5, 0, true, h, w)
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
	dst := runConvTransposeInt8(src, c, h, w, weight, make([]int32, outC), outC, k, stride, pad, 4, 0, false, oh, ow)
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
	dst := runConvTransposeInt8(src, c, h, w, weight, bias, outC, k, stride, pad, 0, 0, false, oh, ow)
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
	dst := make([]int8, 4)
	maxPoolInt8(src, 1, 4, 4, 0, dst)
	want := []int8{6, 8, -1, -3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("pool[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	// Fused requantization: shift 1 halves (round half away) in the same pass.
	maxPoolInt8(src, 1, 4, 4, 1, dst)
	for i, w := range []int8{3, 4, -1, -2} {
		if dst[i] != w {
			t.Fatalf("pool-shift[%d] = %d, want %d", i, dst[i], w)
		}
	}
	// Odd planes drop their last row and column; every shift sign must
	// match RoundShift applied to the plain maxima.
	rng := rand.New(rand.NewSource(6))
	c, h, w := 3, 7, 5
	img := randInt8s(rng, c*h*w)
	for _, shift := range []int{-2, -1, 0, 1, 3} {
		got := make([]int8, c*(h/2)*(w/2))
		maxPoolInt8(img, c, h, w, shift, got)
		for ci := 0; ci < c; ci++ {
			for oy := 0; oy < h/2; oy++ {
				for ox := 0; ox < w/2; ox++ {
					at := func(dy, dx int) int8 { return img[(ci*h+2*oy+dy)*w+2*ox+dx] }
					want := RoundShift(int64(max(at(0, 0), at(0, 1), at(1, 0), at(1, 1))), shift)
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
	dst := make([]int8, 4)
	reluInt8(src, 0, dst)
	for i, w := range []int8{0, 0, 5, 127} {
		if dst[i] != w {
			t.Fatalf("relu[%d] = %d, want %d", i, dst[i], w)
		}
	}
	reluInt8(src, 1, dst) // shift right by 1 after relu
	for i, w := range []int8{0, 0, 3, 64} {
		if dst[i] != w {
			t.Fatalf("relu-shift[%d] = %d, want %d", i, dst[i], w)
		}
	}
	requantInt8(src, 1, dst)
	for i, w := range []int8{-3, 0, 3, 64} {
		if dst[i] != w {
			t.Fatalf("requant[%d] = %d, want %d", i, dst[i], w)
		}
	}
	requantInt8(src, 0, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatal("requant shift 0 must copy")
		}
	}
	// Every int8 value at every shift sign, on an odd length: a left shift
	// saturates, a right shift rounds half away from zero.
	all := make([]int8, 255)
	for i := range all {
		all[i] = int8(i - 127)
	}
	got := make([]int8, len(all))
	for _, shift := range []int{-3, -1, 1, 2, 7, 9} {
		reluInt8(all, shift, got)
		for i, v := range all {
			if want := RoundShift(int64(max(v, 0)), shift); got[i] != want {
				t.Fatalf("relu(%d) at shift %d = %d, want %d", v, shift, got[i], want)
			}
		}
		requantInt8(all, shift, got)
		for i, v := range all {
			if want := RoundShift(int64(v), shift); got[i] != want {
				t.Fatalf("requant(%d) at shift %d = %d, want %d", v, shift, got[i], want)
			}
		}
	}
}

func TestArgmaxChannelsInt8(t *testing.T) {
	// 2 channels, 3 pixels: [ch0: 1, 5, -1], [ch1: 2, 4, -3].
	src := []int8{1, 5, -1, 2, 4, -3}
	got := argmaxChannelsInt8(src, 2, 3)
	want := []uint8{1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("argmax[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// A plane that is not a whole number of blocks, few distinct values so
	// ties are common: the lowest channel wins, as a per-pixel scan would
	// have it.
	rng := rand.New(rand.NewSource(7))
	c, hw := 6, 2*argmaxBlock+37
	logits := make([]int8, c*hw)
	for i := range logits {
		logits[i] = int8(rng.Intn(5) - 2)
	}
	got = argmaxChannelsInt8(logits, c, hw)
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
