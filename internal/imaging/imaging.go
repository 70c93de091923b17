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
	lo, hi, _ = percentileBounds(img, pLow, pHigh)
	for i, v := range img {
		if v > hi {
			img[i] = hi
		} else if !(v >= lo) { // below the bound, or NaN
			img[i] = lo
		}
	}
	return lo, hi
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float32) bool { return v-v == 0 }

// percentileBounds returns the pLow and pHigh quantiles of img's finite
// pixels (0, 0 when there are none) without sorting: the four order
// statistics they interpolate between are found by selectKeys, whose cost
// visits reports in elements examined.
func percentileBounds(img []float32, pLow, pHigh float64) (lo, hi float32, visits int) {
	// One allocation, two halves of the image's size: the keys of the finite
	// pixels, and the space selectKeys partitions them into.
	buf := make([]uint32, 2*len(img))
	keys := buf[:0:len(img)]
	for _, v := range img {
		if isFinite(v) {
			keys = append(keys, floatKey(v))
		}
	}
	if len(keys) == 0 {
		return 0, 0, len(img)
	}
	last := len(keys) - 1
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
	visits = len(img) + selectKeys(keys, buf[len(img):], 32-radixBits, ranks[:], stat[:])
	if swapped {
		stat[1], stat[2] = stat[2], stat[1]
	}
	a, b := keyFloat(stat[0]), keyFloat(stat[1])
	lo = a*(1-fLo) + b*fLo
	a, b = keyFloat(stat[2]), keyFloat(stat[3])
	hi = a*(1-fHi) + b*fHi
	return lo, hi, visits
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
// order (−Inf < … < −0 < +0 < … < +Inf); keyFloat is its inverse.
func floatKey(f float32) uint32 {
	b := math.Float32bits(f)
	if b&(1<<31) != 0 {
		return ^b
	}
	return b | 1<<31
}

func keyFloat(k uint32) float32 {
	if k&(1<<31) != 0 {
		return math.Float32frombits(k &^ (1 << 31))
	}
	return math.Float32frombits(^k)
}

// A key is selected most significant digit first, radixBits at a time.
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// selectKeys finds order statistics by radix selection: out[j] becomes the
// key of rank ranks[j] (0-based; at most four, ascending) among src. It
// counts src's digit at shift, keeps only the buckets a wanted rank falls in
// — copied to the same offsets of buf, which must be as long as src — and
// recurses into each with the next digit down, swapping the two buffers (the
// last digit, at shift 0, overlaps the one before by a bit its keys already
// share). Every level touches each surviving key twice and there are
// ⌈32/11⌉ = 3 levels whatever the values are, so the cost is linear in
// len(src) on every input: slices are untrusted uploads, and a quickselect's
// bad pivots would be a quadratic-time request. src is left in unspecified
// order. The return value is the number of keys examined.
func selectKeys(src, buf []uint32, shift int, ranks []int, out []uint32) (visits int) {
	var count [1 << radixBits]int32
	for _, k := range src {
		count[(k>>shift)&radixMask]++
	}
	visits = len(src)

	// bucket[b] is 1 + the index of the group that keeps bucket b, 0 for a
	// bucket no wanted rank falls in. At most len(ranks) buckets are kept.
	type group struct {
		digit, below, size int // the bucket, the keys ranked below it, its keys
		first, end         int // ranks[first:end] fall in it
	}
	var (
		bucket [1 << radixBits]uint8
		groups = make([]group, 0, 4)
		below  int
		next   int // first rank not yet placed
	)
	for d := 0; d <= radixMask && next < len(ranks); d++ {
		size := int(count[d])
		if size > 0 && ranks[next] < below+size {
			g := group{digit: d, below: below, size: size, first: next}
			for next < len(ranks) && ranks[next] < below+size {
				next++
			}
			g.end = next
			groups = append(groups, g)
			bucket[d] = uint8(len(groups))
		}
		below += size
	}

	if shift == 0 {
		// The last digit: every key of a bucket is the same key.
		high := src[0] &^ radixMask
		for _, g := range groups {
			for j := g.first; j < g.end; j++ {
				out[j] = high | uint32(g.digit)
			}
		}
		return visits
	}

	// Kept buckets go to buf back to back, in bucket order.
	var cursor [4]int
	off := 0
	for i, g := range groups {
		cursor[i] = off
		off += g.size
	}
	for _, k := range src {
		if gi := bucket[(k>>shift)&radixMask]; gi != 0 {
			buf[cursor[gi-1]] = k
			cursor[gi-1]++
		}
	}
	visits += len(src)
	off = 0
	var local [4]int
	for _, g := range groups {
		sub := local[:g.end-g.first]
		for j := range sub {
			sub[j] = ranks[g.first+j] - g.below
		}
		visits += selectKeys(buf[off:off+g.size], src[off:off+g.size], max(shift-radixBits, 0), sub, out[g.first:g.end])
		off += g.size
	}
	return visits
}

// RescaleToUnit linearly maps the [min, max] range of the image's finite
// pixels onto [-1, 1] in place. A constant image maps to all zeros;
// non-finite pixels map as the package comment describes.
func RescaleToUnit(img []float32) {
	mn, mx := float32(math.MaxFloat32), float32(-math.MaxFloat32)
	for _, v := range img {
		if !isFinite(v) {
			continue
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if !(mx > mn) { // constant, or no finite pixel at all
		for i := range img {
			img[i] = 0
		}
		return
	}
	// Compute in float64: extreme float32 ranges (|mx−mn| > MaxFloat32)
	// overflow to Inf and poison the whole image otherwise.
	lo, scale := float64(mn), 2/(float64(mx)-float64(mn))
	for i, v := range img {
		u := float32((float64(v)-lo)*scale - 1)
		// A finite pixel is already inside [-1, 1]; +Inf lands on 1, −Inf
		// and NaN on −1.
		if u > 1 {
			u = 1
		} else if !(u >= -1) {
			u = -1
		}
		img[i] = u
	}
}

// Preprocess applies the full SENECA input pipeline to one CT slice:
// bilinear downsample from h×w to size×size, 1%/99% contrast saturation,
// and [-1, 1] rescaling. The returned image is a fresh allocation.
func Preprocess(src []float32, h, w, size int) []float32 {
	img := ResizeBilinear(src, h, w, size, size)
	SaturatePercentiles(img, 0.01, 0.99)
	RescaleToUnit(img)
	return img
}
