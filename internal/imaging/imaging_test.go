package imaging

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResizeBilinearIdentity(t *testing.T) {
	src := []float32{1, 2, 3, 4}
	dst := ResizeBilinear(src, 2, 2, 2, 2)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("identity resize changed pixel %d: %v", i, dst[i])
		}
	}
}

func TestResizeBilinearConstantImage(t *testing.T) {
	src := make([]float32, 64*64)
	for i := range src {
		src[i] = 7
	}
	dst := ResizeBilinear(src, 64, 64, 32, 32)
	for i, v := range dst {
		if math.Abs(float64(v-7)) > 1e-6 {
			t.Fatalf("constant image not preserved at %d: %v", i, v)
		}
	}
}

func TestResizeBilinearPreservesMeanApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float32, 64*64)
	var mean float64
	for i := range src {
		src[i] = float32(rng.Float64())
		mean += float64(src[i])
	}
	mean /= float64(len(src))
	dst := ResizeBilinear(src, 64, 64, 32, 32)
	var dmean float64
	for _, v := range dst {
		dmean += float64(v)
	}
	dmean /= float64(len(dst))
	if math.Abs(dmean-mean) > 0.02 {
		t.Fatalf("downsample mean %v vs source %v", dmean, mean)
	}
}

func TestResizeBilinearGradientImage(t *testing.T) {
	// A linear ramp must stay a linear ramp under bilinear resampling.
	h, w := 8, 8
	src := make([]float32, h*w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			src[y*w+x] = float32(x)
		}
	}
	dst := ResizeBilinear(src, h, w, 4, 4)
	for y := 0; y < 4; y++ {
		for x := 1; x < 4; x++ {
			d := dst[y*4+x] - dst[y*4+x-1]
			if math.Abs(float64(d-2)) > 1e-5 {
				t.Fatalf("ramp step at (%d,%d) = %v, want 2", y, x, d)
			}
		}
	}
}

func TestResizeNearestLabelsPreservesClasses(t *testing.T) {
	src := []uint8{0, 1, 2, 3}
	dst := ResizeNearestLabels(src, 2, 2, 4, 4)
	seen := map[uint8]bool{}
	for _, v := range dst {
		seen[v] = true
	}
	for c := uint8(0); c < 4; c++ {
		if !seen[c] {
			t.Fatalf("class %d lost in upsample: %v", c, dst)
		}
	}
	// Downsample never invents classes.
	back := ResizeNearestLabels(dst, 4, 4, 2, 2)
	for _, v := range back {
		if v > 3 {
			t.Fatalf("invented class %d", v)
		}
	}
}

func TestSaturatePercentiles(t *testing.T) {
	img := make([]float32, 100)
	for i := range img {
		img[i] = float32(i)
	}
	lo, hi := SaturatePercentiles(img, 0.05, 0.95)
	if lo < 4 || lo > 6 || hi < 93 || hi > 95.1 {
		t.Fatalf("clip bounds %v, %v", lo, hi)
	}
	for _, v := range img {
		if v < lo || v > hi {
			t.Fatalf("value %v outside clip bounds", v)
		}
	}
}

func TestRescaleToUnit(t *testing.T) {
	img := []float32{-500, 0, 500}
	RescaleToUnit(img)
	if img[0] != -1 || img[2] != 1 || math.Abs(float64(img[1])) > 1e-6 {
		t.Fatalf("rescale result %v", img)
	}
	flat := []float32{3, 3, 3}
	RescaleToUnit(flat)
	for _, v := range flat {
		if v != 0 {
			t.Fatalf("constant image should rescale to 0, got %v", v)
		}
	}
}

func TestRescalePropertyBounds(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		img := make([]float32, len(raw))
		for i, v := range raw {
			if v != v || math.IsInf(float64(v), 0) {
				v = 0
			}
			img[i] = v
		}
		RescaleToUnit(img)
		for _, v := range img {
			if v < -1.0001 || v > 1.0001 || v != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPreprocessPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]float32, 128*128)
	for i := range src {
		src[i] = float32(rng.NormFloat64()*300 - 200)
	}
	out := Preprocess(src, 128, 128, 64)
	if len(out) != 64*64 {
		t.Fatalf("output length %d", len(out))
	}
	mn, mx := out[0], out[0]
	for _, v := range out {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mn != -1 || mx != 1 {
		t.Fatalf("preprocessed range [%v, %v], want [-1, 1]", mn, mx)
	}
}

func TestPercentilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid percentiles must panic")
		}
	}()
	SaturatePercentiles([]float32{1, 2}, 0.9, 0.1)
}

// --- edge-case geometry tests (PR 4) -----------------------------------

func TestResizeBilinear1x1Source(t *testing.T) {
	// A 1×1 source has a single sample; every output pixel must clamp to
	// it regardless of output geometry.
	dst := ResizeBilinear([]float32{42}, 1, 1, 4, 7)
	if len(dst) != 4*7 {
		t.Fatalf("output length %d, want 28", len(dst))
	}
	for i, v := range dst {
		if v != 42 {
			t.Fatalf("pixel %d: %v, want 42", i, v)
		}
	}
	// And downsampling to 1×1 must land inside the source value range.
	one := ResizeBilinear([]float32{1, 2, 3, 4}, 2, 2, 1, 1)
	if len(one) != 1 || one[0] < 1 || one[0] > 4 {
		t.Fatalf("2×2→1×1 resize = %v, want a value in [1,4]", one)
	}
}

func TestResizeNearestLabels1x1Source(t *testing.T) {
	dst := ResizeNearestLabels([]uint8{5}, 1, 1, 3, 6)
	if len(dst) != 3*6 {
		t.Fatalf("output length %d, want 18", len(dst))
	}
	for i, v := range dst {
		if v != 5 {
			t.Fatalf("pixel %d: %d, want 5", i, v)
		}
	}
}

func TestResizeNonSquareAspect(t *testing.T) {
	// 2×4 → 4×2: rows stretch, columns shrink. Nearest-neighbor picks the
	// center-aligned source pixel, so the expected output is exact.
	src := []uint8{
		0, 1, 2, 3,
		4, 5, 6, 7,
	}
	got := ResizeNearestLabels(src, 2, 4, 4, 2)
	want := []uint8{
		1, 3,
		1, 3,
		5, 7,
		5, 7,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pixel %d: %d, want %d (got %v)", i, got[i], want[i], got)
		}
	}

	// Bilinear on the same geometry must preserve a column-constant image
	// exactly while interpolating rows.
	colsrc := []float32{
		10, 20, 30, 40,
		10, 20, 30, 40,
	}
	b := ResizeBilinear(colsrc, 2, 4, 4, 2)
	for r := 0; r < 4; r++ {
		if b[r*2] != b[0] || b[r*2+1] != b[1] {
			t.Fatalf("row %d differs on a row-invariant image: %v", r, b)
		}
	}
	if !(b[0] > 10 && b[0] < 30 && b[1] > 20 && b[1] < 40) {
		t.Fatalf("interpolated columns out of range: %v", b)
	}
}

func TestIdentityResizeIsCopy(t *testing.T) {
	src := []float32{1, 2, 3, 4, 5, 6}
	dst := ResizeBilinear(src, 2, 3, 2, 3)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("bilinear identity changed pixel %d", i)
		}
	}
	dst[0] = 99
	if src[0] != 1 {
		t.Fatal("bilinear identity resize aliases the source")
	}

	lsrc := []uint8{1, 2, 3, 4, 5, 6}
	ldst := ResizeNearestLabels(lsrc, 3, 2, 3, 2)
	for i := range lsrc {
		if ldst[i] != lsrc[i] {
			t.Fatalf("nearest identity changed pixel %d: %v", i, ldst)
		}
	}
	ldst[0] = 99
	if lsrc[0] != 1 {
		t.Fatal("nearest identity resize aliases the source")
	}
}

// --- non-finite pixels (the rule in the package comment) ------------------

var (
	nan    = float32(math.NaN())
	posInf = float32(math.Inf(1))
	negInf = float32(math.Inf(-1))
)

// ramp returns 0, 1, …, n-1.
func ramp(n int) []float32 {
	img := make([]float32, n)
	for i := range img {
		img[i] = float32(i)
	}
	return img
}

// TestRescaleIgnoresNonFinitePixels pins what used to go wrong: the range
// was seeded from pixel 0, so a NaN there turned every output into NaN, and
// an Inf anywhere collapsed the scale. Now the range is the finite pixels',
// whichever pixel the bad one is.
func TestRescaleIgnoresNonFinitePixels(t *testing.T) {
	// The minimum and the maximum both occur twice, so no single pixel
	// carries the range.
	base := func() []float32 {
		img := ramp(64)
		img[1], img[62] = 0, 63
		return img
	}
	clean := base()
	RescaleToUnit(clean)
	for _, tc := range []struct {
		name string
		bad  float32
		want float32
	}{{"NaN", nan, -1}, {"+Inf", posInf, 1}, {"-Inf", negInf, -1}} {
		for _, at := range []int{0, 17, 63} {
			img := base()
			img[at] = tc.bad
			RescaleToUnit(img)
			for i, v := range img {
				want := clean[i]
				if i == at {
					want = tc.want
				}
				if v != want {
					t.Fatalf("%s at pixel %d: output %d = %v, want %v", tc.name, at, i, v, want)
				}
			}
		}
	}

	for _, img := range [][]float32{{nan, nan, nan}, {posInf, negInf}, {nan, 7, posInf}} {
		RescaleToUnit(img)
		for _, v := range img {
			if v != 0 {
				t.Fatalf("no finite range to scale: got %v, want all zeros", img)
			}
		}
	}
}

// TestSaturateEstimatesOverFinitePixels: the clip bounds are the finite
// pixels' percentiles however many non-finite ones surround them — past the
// 1% tails included, where ±Inf used to become a bound — and the non-finite
// pixels are clipped onto those bounds.
func TestSaturateEstimatesOverFinitePixels(t *testing.T) {
	finite := ramp(1000)
	wantLo, wantHi := SaturatePercentiles(append([]float32(nil), finite...), 0.01, 0.99)

	img := append([]float32{nan}, finite...) // NaN at pixel 0
	for i := 0; i < 50; i++ {                // 5% of each, well past the tails
		img = append(img, posInf, negInf, nan)
	}
	lo, hi := SaturatePercentiles(img, 0.01, 0.99)
	if lo != wantLo || hi != wantHi {
		t.Fatalf("bounds %v, %v with non-finite pixels present; the finite pixels alone give %v, %v", lo, hi, wantLo, wantHi)
	}
	for i, v := range img {
		if !(v >= lo && v <= hi) {
			t.Fatalf("pixel %d = %v after clipping to [%v, %v]", i, v, lo, hi)
		}
	}
	if img[0] != lo || img[1001] != hi || img[1002] != lo || img[1003] != lo {
		t.Fatalf("NaN, +Inf, −Inf, NaN clipped to %v, %v, %v, %v; want lo, hi, lo, lo", img[0], img[1001], img[1002], img[1003])
	}

	none := []float32{nan, posInf, negInf}
	if lo, hi := SaturatePercentiles(none, 0.01, 0.99); lo != 0 || hi != 0 || none[0] != 0 || none[1] != 0 || none[2] != 0 {
		t.Fatalf("no finite pixel: bounds %v, %v, image %v; want zeros", lo, hi, none)
	}
}

// TestPreprocessNeverEmitsNonFinite: whatever bits a slice holds, the
// network's input is inside [-1, 1], and one bad voxel costs one pixel, not
// the slice.
func TestPreprocessNeverEmitsNonFinite(t *testing.T) {
	f := func(bits []uint32) bool {
		if len(bits) < 4 {
			return true
		}
		side := int(math.Sqrt(float64(len(bits))))
		src := make([]float32, side*side)
		for i := range src {
			src[i] = math.Float32frombits(bits[i])
		}
		for _, v := range Preprocess(src, side, side, side) {
			if !(v >= -1 && v <= 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(4))
	src := make([]float32, 8*8)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 100)
	}
	want := Preprocess(src, 8, 8, 8)
	// A NaN where an interior value was: every other pixel keeps its output.
	at := 0
	for i, v := range want {
		if v > -0.5 && v < 0.5 {
			at = i
		}
	}
	src[at] = nan
	got := Preprocess(src, 8, 8, 8)
	moved := 0
	for i := range got {
		if i != at && math.Abs(float64(got[i]-want[i])) > 0.05 {
			moved++
		}
	}
	if got[at] != -1 || moved != 0 {
		t.Fatalf("one NaN voxel: its pixel → %v (want −1), %d of 63 other pixels moved", got[at], moved)
	}
}
