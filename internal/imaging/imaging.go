// Package imaging provides the image pre-processing steps of the SENECA
// pipeline (paper Section III-A): downsampling 512×512 CT slices to 256×256,
// contrast adjustment by saturating the upper and lower 1% of pixels, and
// rescaling intensities to the [-1, 1] interval.
//
// # Non-finite pixels
//
// Slices arrive from untrusted uploads, and a float32 volume can carry NaN
// and ±Inf. They are never part of a statistic and never survive to the
// output: percentiles and the min/max range are taken over the finite pixels
// only, +Inf is treated as above every bound, −Inf and NaN as below every
// bound. SaturatePercentiles therefore clips +Inf to the upper bound and
// −Inf and NaN to the lower one, and RescaleToUnit maps them to +1 and −1. An
// image without a finite pixel comes out all zeros, like a constant one.
// (ResizeBilinear is plain interpolation: a non-finite source pixel reaches
// the up to four output pixels that sample it, and is clipped there.)
package imaging

import (
	"fmt"
	"math"
	"math/bits"
)

// ResizeBilinear resamples a row-major h×w single-channel image to oh×ow
// using bilinear interpolation with edge clamping.
func ResizeBilinear(src []float32, h, w, oh, ow int) []float32 {
	if len(src) != h*w {
		panic(fmt.Sprintf("imaging: source length %d for %d×%d image", len(src), h, w))
	}
	dst := make([]float32, oh*ow)
	if oh == h && ow == w {
		copy(dst, src)
		return dst
	}
	// Align centers: scale by the size ratio, sampling at pixel centers.
	sy := float64(h) / float64(oh)
	sx := float64(w) / float64(ow)
	for oy := 0; oy < oh; oy++ {
		fy := (float64(oy)+0.5)*sy - 0.5
		y0 := int(fy)
		if fy < 0 {
			y0 = 0
			fy = 0
		}
		y1 := y0 + 1
		if y1 >= h {
			y1 = h - 1
		}
		wy := float32(fy - float64(y0))
		for ox := 0; ox < ow; ox++ {
			fx := (float64(ox)+0.5)*sx - 0.5
			x0 := int(fx)
			if fx < 0 {
				x0 = 0
				fx = 0
			}
			x1 := x0 + 1
			if x1 >= w {
				x1 = w - 1
			}
			wx := float32(fx - float64(x0))
			v00 := src[y0*w+x0]
			v01 := src[y0*w+x1]
			v10 := src[y1*w+x0]
			v11 := src[y1*w+x1]
			top := v00 + (v01-v00)*wx
			bot := v10 + (v11-v10)*wx
			dst[oy*ow+ox] = top + (bot-top)*wy
		}
	}
	return dst
}

// ResizeNearestLabels resamples a label image with nearest-neighbor
// sampling, which preserves class indices exactly.
func ResizeNearestLabels(src []uint8, h, w, oh, ow int) []uint8 {
	if len(src) != h*w {
		panic(fmt.Sprintf("imaging: source length %d for %d×%d image", len(src), h, w))
	}
	dst := make([]uint8, oh*ow)
	if oh == h && ow == w {
		copy(dst, src)
		return dst
	}
	for oy := 0; oy < oh; oy++ {
		iy := (oy*2 + 1) * h / (oh * 2)
		if iy >= h {
			iy = h - 1
		}
		for ox := 0; ox < ow; ox++ {
			ix := (ox*2 + 1) * w / (ow * 2)
			if ix >= w {
				ix = w - 1
			}
			dst[oy*ow+ox] = src[iy*w+ix]
		}
	}
	return dst
}

// SaturatePercentiles clips intensities below the pLow quantile and above
// the pHigh quantile (e.g. 0.01 and 0.99 for the paper's "upper 1% and lower
// 1%" saturation) and returns the clip bounds used. The input is modified in
// place. The quantiles are those of the finite pixels, linearly interpolated
// between neighbouring order statistics; non-finite pixels are clipped as
// the package comment describes.
func SaturatePercentiles(img []float32, pLow, pHigh float64) (lo, hi float32) {
	if len(img) == 0 {
		return 0, 0
	}
	if pLow < 0 || pHigh > 1 || pLow >= pHigh {
		panic(fmt.Sprintf("imaging: invalid percentiles %v, %v", pLow, pHigh))
	}
	b := percentileBounds(img, pLow, pHigh)
	for i, v := range img {
		img[i] = clamp(v, b.lo, b.hi)
	}
	return b.lo, b.hi
}

// clamp clips v to [lo, hi]: +Inf to hi, −Inf and NaN to lo.
func clamp(v, lo, hi float32) float32 {
	if v > hi {
		return hi
	} else if !(v >= lo) { // below the bound, or NaN
		return lo
	}
	return v
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float32) bool { return v-v == 0 }

// bounds is what percentileBounds finds: the clip bounds, the smallest and
// largest finite pixel, how many pixels are finite, and its work in keys
// examined.
type bounds struct {
	lo, hi, min, max float32
	finite, visits   int
}

// percentileBounds returns the pLow and pHigh quantiles of img's finite
// pixels (0, 0 when there are none) without sorting, from the four order
// statistics they interpolate between. Its key pass counts every pixel's key
// by its top digit and keeps the smallest and the largest finite key; the
// next pass copies out the buckets the wanted ranks fall in for selectKeys,
// all but those two keys' copies. A rank inside one of those two tie runs —
// the air that fills most of a CT slice, a flat background — is answered
// without copying the run.
func percentileBounds(img []float32, pLow, pHigh float64) (b bounds) {
	const top = 32 - radixBits
	l := level{shift: top}
	// Offset by finiteOff, the non-finite keys wrap around past the finite
	// ones: low and high end at the smallest and the largest finite key.
	// Four pixels a step, so that neither a run of equal keys nor the
	// running extremes make one long chain of dependent instructions.
	low, high, low1, high1 := ^uint32(0), uint32(0), ^uint32(0), uint32(0)
	n := len(img) &^ 3
	for i := 0; i < n; i += 4 {
		w := img[i : i+4 : i+4]
		k0, k1, k2, k3 := floatKey(w[0]), floatKey(w[1]), floatKey(w[2]), floatKey(w[3])
		l.counts[0][k0>>top]++
		l.counts[1][k1>>top]++
		l.counts[2][k2>>top]++
		l.counts[3][k3>>top]++
		low, high = min(low, k0-finiteOff, k2-finiteOff), max(high, k0+finiteOff, k2+finiteOff)
		low1, high1 = min(low1, k1-finiteOff, k3-finiteOff), max(high1, k1+finiteOff, k3+finiteOff)
	}
	for _, v := range img[n:] {
		k := floatKey(v)
		l.counts[0][k>>top]++
		low, high = min(low, k-finiteOff), max(high, k+finiteOff)
	}
	low, high = min(low, low1), max(high, high1)
	// The non-finite keys fill the four lowest and the four highest top
	// digits, and no finite key has one of those.
	b.finite, b.visits = len(img), len(img)
	for d := 0; d < 4; d++ {
		b.finite -= l.size(d) + l.size(radixMask-d)
	}
	if b.finite == 0 {
		return b
	}
	last := b.finite - 1
	iLo, fLo := quantileRank(last, pLow)
	iHi, fHi := quantileRank(last, pHigh)
	ranks := [4]int{iLo, min(iLo+1, last), iHi, min(iHi+1, last)}
	// selectKeys wants them ascending, which they are unless both quantiles
	// start at the same rank (a handful of pixels): then the middle two swap.
	swapped := ranks[2] < ranks[1]
	if swapped {
		ranks[1], ranks[2] = ranks[2], ranks[1]
	}
	var stat [4]uint32
	l.lowest, l.highest = low+finiteOff, high-finiteOff
	b.visits += l.finish(4, ranks[:], stat[:], func() int {
		// The level's lowest key is never copied out (see keep): the tie
		// run a CT slice's air makes costs it one compare.
		for _, v := range img {
			if k := floatKey(v); k != l.lowest {
				if gi := l.bucket[k>>top]; gi != 0 {
					l.keep(gi, k)
				}
			}
		}
		return len(img)
	})
	if swapped {
		stat[1], stat[2] = stat[2], stat[1]
	}
	x, y := keyFloat(stat[0]), keyFloat(stat[1])
	b.lo = x*(1-fLo) + y*fLo
	x, y = keyFloat(stat[2]), keyFloat(stat[3])
	b.hi = x*(1-fHi) + y*fHi
	b.min, b.max = keyFloat(l.lowest), keyFloat(l.highest)
	return b
}

// quantileRank places quantile q among order statistics 0…last: it lies
// frac of the way from the one at rank i to the next.
func quantileRank(last int, q float64) (i int, frac float32) {
	idx := q * float64(last)
	i = int(idx)
	if i >= last {
		return last, 0
	}
	return i, float32(idx - float64(i))
}

// floatKey maps a float32 to a uint32 whose unsigned order is the float
// order (−Inf < … < −0 < +0 < … < +Inf): a negative float's bits inverted, a
// positive one's sign bit set. keyFloat is its inverse.
func floatKey(f float32) uint32 {
	b := math.Float32bits(f)
	return b ^ (uint32(int32(b)>>31) | 1<<31)
}

func keyFloat(k uint32) float32 {
	if k&(1<<31) != 0 {
		return math.Float32frombits(k &^ (1 << 31))
	}
	return math.Float32frombits(^k)
}

const (
	// A key is selected most significant digit first, radixBits at a time.
	radixBits = 11
	radixMask = 1<<radixBits - 1
	// finiteOff is the key distance from −Inf to −MaxFloat32 and from
	// MaxFloat32 to +Inf.
	finiteOff = 1 << 23
)

// level is one radix level of a selection over keys from lowest to highest.
type level struct {
	shift           int    // the digit counted is the key's bits shift…shift+radixBits-1
	lowest, highest uint32 // the keys' extremes
	// Four interleaved count tables, so that a run of equal keys is four
	// independent chains of increments, not one.
	counts [4][1 << radixBits]int32
	bucket [1 << radixBits]uint8 // 1 + the index of the group keeping a bucket, 0 for none
	groups [4]group
	n      int // groups in use
}

// group is a kept bucket: its digit, the keys ranked below it and its size,
// the ranks[first:end] that fall in it, and the keys copied out of it with
// their extremes.
type group struct {
	digit, below, size, first, end int
	keys                           []uint32
	lowest, highest                uint32
}

func (l *level) digit(k uint32) int { return int(k>>l.shift) & radixMask }

func (l *level) size(d int) int {
	return int(l.counts[0][d] + l.counts[1][d] + l.counts[2][d] + l.counts[3][d])
}

// finish sets out[j] to the key of rank ranks[j] (ascending, counted from
// digit from's first key) once the level's keys are counted. It keeps the
// buckets a wanted rank falls in, has scatter copy their keys out through
// keep (scatter returns the keys it examined) and selects within each one
// level down. When the digit reaches bit 0, or the keys are all one key, a
// bucket is one key and nothing is copied. It returns the keys examined.
func (l *level) finish(from int, ranks []int, out []uint32, scatter func() int) (visits int) {
	below, next := 0, 0
	for d := from; d <= radixMask && next < len(ranks); d++ {
		size := l.size(d)
		if ranks[next] < below+size {
			g := group{digit: d, below: below, size: size, first: next, lowest: ^uint32(0)}
			for next < len(ranks) && ranks[next] < below+size {
				out[next] = l.lowest&^(radixMask<<l.shift) | uint32(d)<<l.shift
				next++
			}
			// A bucket holding a tie run copies out fewer keys than it has.
			g.end, g.keys = next, make([]uint32, 0, min(size, 1<<12))
			l.groups[l.n], l.n, l.bucket[d] = g, l.n+1, uint8(l.n+1)
		}
		below += size
	}
	if l.shift == 0 || l.lowest == l.highest {
		return 0
	}
	visits = scatter()
	var local [4]int
	for _, g := range l.groups[:l.n] {
		// The copies of the level's lowest key lead its bucket, those of the
		// highest end theirs; neither was copied out.
		ties, first, end := g.size-len(g.keys), g.first, g.end
		if g.digit != l.digit(l.lowest) {
			for ; end > first && ranks[end-1]-g.below >= len(g.keys); end-- {
				out[end-1] = l.highest
			}
			ties = 0
		}
		for ; first < end && ranks[first]-g.below < ties; first++ {
			out[first] = l.lowest
		}
		for j := first; j < end; j++ {
			local[j] = ranks[j] - g.below - ties
		}
		if first < end {
			visits += selectKeys(g.keys, g.lowest, g.highest, local[first:end], out[first:end])
		}
	}
	return visits
}

// keep copies k out to kept bucket gi, unless it is a copy of the level's
// lowest key, or of its highest in a bucket without the lowest.
func (l *level) keep(gi uint8, k uint32) {
	if k == l.lowest || k == l.highest && l.digit(k) != l.digit(l.lowest) {
		return
	}
	g := &l.groups[gi-1]
	g.keys = append(g.keys, k)
	g.lowest, g.highest = min(g.lowest, k), max(g.highest, k)
}

// selectKeys finds order statistics by radix selection: out[j] becomes the
// key of rank ranks[j] (0-based; at most four, ascending) among keys, whose
// extremes are lowest and highest. Its digit starts at the highest bit on
// which they differ. The keys of a bucket of percentileBounds' top digit
// differ in bit 20 at most, so there are at most two levels below it, and
// every key is examined at most five times whatever the values are: the
// cost is linear in len(keys) on every input. Slices are untrusted uploads,
// and a quickselect's bad pivots would be a quadratic-time request. The
// return value is the number of keys examined.
func selectKeys(keys []uint32, lowest, highest uint32, ranks []int, out []uint32) int {
	l := level{shift: max(bits.Len32(lowest^highest)-radixBits, 0), lowest: lowest, highest: highest}
	for i, k := range keys {
		l.counts[i&3][l.digit(k)]++
	}
	return len(keys) + l.finish(0, ranks, out, func() int {
		for _, k := range keys {
			if gi := l.bucket[l.digit(k)]; gi != 0 {
				l.keep(gi, k)
			}
		}
		return len(keys)
	})
}

// RescaleToUnit linearly maps the [min, max] range of the image's finite
// pixels onto [-1, 1] in place. A constant image maps to all zeros;
// non-finite pixels map as the package comment describes.
func RescaleToUnit(img []float32) {
	mn, mx := float32(math.MaxFloat32), float32(-math.MaxFloat32)
	for _, v := range img {
		if isFinite(v) {
			mn, mx = min(mn, v), max(mx, v)
		}
	}
	inf := float32(math.Inf(1))
	clipToUnit(img, -inf, inf, mn, mx)
}

// clipToUnit clips img to [lo, hi] and maps [mn, mx], the clipped image's
// finite range, onto [-1, 1], in place. A pixel at or past a bound (NaN
// below lo) takes that bound's output, computed once; one strictly between
// them lies in [mn, mx], where the map cannot leave [-1, 1] by more than
// float32 rounds away, so it needs no clamp.
func clipToUnit(img []float32, lo, hi, mn, mx float32) {
	if !(mx > mn) { // constant, or no finite pixel at all
		clear(img)
		return
	}
	// Compute in float64: extreme float32 ranges (|mx−mn| > MaxFloat32)
	// overflow to Inf and poison the whole image otherwise.
	base, scale := float64(mn), 2/(float64(mx)-float64(mn))
	// +Inf lands on 1, −Inf and NaN on −1.
	atLo := clamp(float32((float64(lo)-base)*scale-1), -1, 1)
	atHi := clamp(float32((float64(hi)-base)*scale-1), -1, 1)
	for i, v := range img {
		switch {
		case !(v > lo):
			img[i] = atLo
		case v >= hi:
			img[i] = atHi
		default:
			img[i] = float32((float64(v)-base)*scale - 1)
		}
	}
}

// Preprocess applies the full SENECA input pipeline to one CT slice:
// bilinear downsample from h×w to size×size, 1%/99% contrast saturation,
// and [-1, 1] rescaling. The returned image is a fresh allocation.
func Preprocess(src []float32, h, w, size int) []float32 {
	return PreprocessTo(src, h, w, size, size)
}

// PreprocessTo is Preprocess to an oh×ow model geometry; src is only read.
// When every pixel is finite and the clip bounds are finite and in order,
// the clip is monotone, so the clipped image's range is the image's range
// clipped: clip and rescale are one pass. Anything else clips as
// SaturatePercentiles does and rescales as RescaleToUnit.
func PreprocessTo(src []float32, h, w, oh, ow int) []float32 {
	img := ResizeBilinear(src, h, w, oh, ow)
	b := percentileBounds(img, 0.01, 0.99)
	if b.finite == len(img) && b.lo <= b.hi && isFinite(b.lo) && isFinite(b.hi) {
		clipToUnit(img, b.lo, b.hi, clamp(b.min, b.lo, b.hi), clamp(b.max, b.lo, b.hi))
		return img
	}
	for i, v := range img {
		img[i] = clamp(v, b.lo, b.hi)
	}
	RescaleToUnit(img)
	return img
}
