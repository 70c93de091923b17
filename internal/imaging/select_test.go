package imaging

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// saturateBySort and rescaleSeededFromFirst are the implementations
// SaturatePercentiles and RescaleToUnit replaced, kept as the oracle: a sort
// of a copy of every pixel to read four order statistics, and a min/max
// seeded from pixel 0. On finite input the replacements must agree with them
// bit for bit.
func saturateBySort(img []float32, pLow, pHigh float64) (lo, hi float32) {
	sorted := make([]float32, len(img))
	copy(sorted, img)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	quantile := func(q float64) float32 {
		idx := q * float64(len(sorted)-1)
		i := int(idx)
		if i >= len(sorted)-1 {
			return sorted[len(sorted)-1]
		}
		frac := float32(idx - float64(i))
		return sorted[i]*(1-frac) + sorted[i+1]*frac
	}
	lo, hi = quantile(pLow), quantile(pHigh)
	for i, v := range img {
		if v < lo {
			img[i] = lo
		} else if v > hi {
			img[i] = hi
		}
	}
	return lo, hi
}

func rescaleSeededFromFirst(img []float32) {
	mn, mx := img[0], img[0]
	for _, v := range img[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mx == mn {
		for i := range img {
			img[i] = 0
		}
		return
	}
	lo, scale := float64(mn), 2/(float64(mx)-float64(mn))
	for i, v := range img {
		img[i] = float32((float64(v)-lo)*scale - 1)
	}
}

// percentilePairs is every (pLow, pHigh) the code base passes: the paper's
// 1%/99% (Preprocess, study, the 3D baseline) and the 5%/95% of the tests.
var percentilePairs = [][2]float64{{0.01, 0.99}, {0.05, 0.95}}

// Input shapes the fuzzers and the cost guard draw from. Everything past
// shapeRandom is a classic bad case for a comparison-based selection.
const (
	shapeRandom = iota
	shapeAllEqual
	shapeTwoValued
	shapeSorted
	shapeReversed
	shapeOrganPipe
	shapeHeavyTies
	shapeOneBucket // distinct values that differ only in their low mantissa bits
	shapeSignedZeros
	shapeCount
)

// shapedImage draws n finite pixels of the given shape from seed.
func shapedImage(seed int64, n int, shape uint8) []float32 {
	rng := rand.New(rand.NewSource(seed))
	img := make([]float32, n)
	hu := func() float32 { return float32(rng.NormFloat64()*400 - 300) } // CT-like spread
	switch shape % shapeCount {
	case shapeRandom:
		for i := range img {
			img[i] = hu()
		}
	case shapeAllEqual:
		v := hu()
		for i := range img {
			img[i] = v
		}
	case shapeTwoValued:
		a, b := hu(), hu()
		for i := range img {
			img[i] = a
			if rng.Intn(2) == 0 {
				img[i] = b
			}
		}
	case shapeSorted, shapeReversed, shapeOrganPipe:
		for i := range img {
			img[i] = hu()
		}
		sort.Slice(img, func(i, j int) bool { return img[i] < img[j] })
		switch shape % shapeCount {
		case shapeReversed:
			for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
				img[i], img[j] = img[j], img[i]
			}
		case shapeOrganPipe: // rising to the middle, falling after it
			pipe := make([]float32, 0, n)
			for i := 0; i < n; i += 2 {
				pipe = append(pipe, img[i])
			}
			for i := n - 1 - n%2; i > 0; i -= 2 {
				pipe = append(pipe, img[i])
			}
			copy(img, pipe)
		}
	case shapeHeavyTies: // a handful of values: air, soft tissue, bone
		levels := []float32{-1024, -1000, 0, 40, 60, 1200, float32(rng.Intn(3000))}
		for i := range img {
			img[i] = levels[rng.Intn(len(levels))]
		}
	case shapeOneBucket:
		base := math.Float32bits(hu()) &^ 0x3ff
		for i := range img {
			img[i] = math.Float32frombits(base | uint32(rng.Intn(1<<10)))
		}
	case shapeSignedZeros:
		negZero := float32(math.Copysign(0, -1))
		for i := range img {
			img[i] = []float32{negZero, 0, -1, 1, float32(rng.Intn(5) - 2)}[rng.Intn(5)]
		}
	}
	return img
}

// sameFloat compares by bit pattern, and by value where both are zeros: the
// sort's own order of −0 and +0 is unspecified (they compare equal), so the
// sign of a zero bound is not something it defines.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a == 0 && b == 0)
}

// checkAgainstSort runs the pipeline's saturation and rescale on img and the
// sort-based oracle on a copy, and requires identical bounds and pixels.
func checkAgainstSort(t *testing.T, img []float32, pLow, pHigh float64) {
	t.Helper()
	want := append([]float32(nil), img...)
	wantLo, wantHi := saturateBySort(want, pLow, pHigh)
	lo, hi := SaturatePercentiles(img, pLow, pHigh)
	if !sameFloat(lo, wantLo) || !sameFloat(hi, wantHi) {
		t.Fatalf("n=%d (%v, %v): bounds %v, %v (bits %#x, %#x), the sort gives %v, %v (%#x, %#x)", len(img), pLow, pHigh,
			lo, hi, math.Float32bits(lo), math.Float32bits(hi), wantLo, wantHi, math.Float32bits(wantLo), math.Float32bits(wantHi))
	}
	for i := range img {
		if !sameFloat(img[i], want[i]) {
			t.Fatalf("n=%d: clipped pixel %d = %v, the sort gives %v", len(img), i, img[i], want[i])
		}
	}
	rescaleSeededFromFirst(want)
	RescaleToUnit(img)
	for i := range img {
		if !sameFloat(img[i], want[i]) {
			t.Fatalf("n=%d: rescaled pixel %d = %v, the parent's rescale gives %v", len(img), i, img[i], want[i])
		}
	}
}

// FuzzSaturateVsSort pins the selection against the sort it replaced, and
// the rescale after it against its predecessor — together everything
// Preprocess does after the resample — on finite inputs of every shape and
// of raw fuzzer-chosen bits, lengths 1…70 000, both percentile pairs.
func FuzzSaturateVsSort(f *testing.F) {
	for shape := uint8(0); shape < shapeCount; shape++ {
		f.Add(int64(shape)+1, uint32(997*(int(shape)+1)), shape, []byte(nil))
	}
	f.Add(int64(7), uint32(0), uint8(shapeRandom), []byte(nil))           // one pixel
	f.Add(int64(8), uint32(65535), uint8(shapeRandom), []byte(nil))       // a 256×256 slice
	f.Add(int64(9), uint32(69999), uint8(shapeHeavyTies), []byte(nil))    // the longest
	f.Add(int64(10), uint32(0), uint8(0), []byte{0, 0, 0x80, 0x7f, 1, 0}) // raw bits: +Inf (made finite), a denormal
	f.Fuzz(func(t *testing.T, seed int64, length uint32, shape uint8, raw []byte) {
		var img []float32
		if len(raw) >= 4 {
			// The fuzzer's own bit patterns, non-finite ones folded onto
			// finite values by clearing the exponent's top bit.
			for ; len(raw) >= 4 && len(img) < 70000; raw = raw[4:] {
				bits := binary.LittleEndian.Uint32(raw)
				if bits&0x7f800000 == 0x7f800000 {
					bits &^= 0x40000000
				}
				img = append(img, math.Float32frombits(bits))
			}
		} else {
			img = shapedImage(seed, int(length%70000)+1, shape)
		}
		for _, p := range percentilePairs {
			checkAgainstSort(t, append([]float32(nil), img...), p[0], p[1])
		}
	})
}

// TestSaturateVsSortRandomized is the fuzz property on a fixed batch, so the
// plain test run covers every shape at several lengths, a slice-sized one
// included.
func TestSaturateVsSortRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for shape := uint8(0); shape < shapeCount; shape++ {
		for _, n := range []int{1, 2, 3, 64, 1 + rng.Intn(5000), 65536} {
			for _, p := range percentilePairs {
				checkAgainstSort(t, shapedImage(int64(n)+int64(shape), n, shape), p[0], p[1])
			}
		}
	}
}

// TestSelectionCostIsLinearOnAdversarialInputs is the guard against the
// quadratic-time request: the selection's work, counted in keys examined
// (not wall time), is at most 6 per pixel on every shape — one pass to build
// the keys, two per radix level but the last — which keeps every adversarial
// input within a small constant factor of the random case.
func TestSelectionCostIsLinearOnAdversarialInputs(t *testing.T) {
	const n = 256 * 256
	_, _, random := percentileBounds(shapedImage(1, n, shapeRandom), 0.01, 0.99)
	for shape := uint8(0); shape < shapeCount; shape++ {
		_, _, visits := percentileBounds(shapedImage(2, n, shape), 0.01, 0.99)
		t.Logf("shape %d: %d keys examined (%.2f per pixel, %.2f× the random case)",
			shape, visits, float64(visits)/n, float64(visits)/float64(random))
		if visits > 6*n {
			t.Errorf("shape %d: %d keys examined for %d pixels, want ≤ %d", shape, visits, n, 6*n)
		}
		if visits > 3*random {
			t.Errorf("shape %d: %d keys examined, more than 3× the random case's %d", shape, visits, random)
		}
	}
}
