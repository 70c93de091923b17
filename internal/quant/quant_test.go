package quant

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBestFixPos(t *testing.T) {
	cases := []struct {
		maxAbs float32
		bits   int
		want   FixPos
	}{
		{127, Bits8, 0},
		{1, Bits8, 6},    // 127/1 → 2^6=64 ≤ 127
		{0.5, Bits8, 7},  // 0.5·2^7 = 64
		{100, Bits8, 0},  // 100·2^0 = 100 ≤ 127
		{128, Bits8, -1}, // needs coarser grid
		{0, Bits8, 16},   // degenerate
		{7, Bits4, 0},
		{1, Bits4, 2},     // 7/1 → 2^2=4 ≤ 7
		{0.5, Bits4, 3},   // 0.5·2^3 = 4
		{8, Bits4, -1},    // needs coarser grid
		{1e-9, Bits4, 16}, // clamped
		{0, Bits4, 16},    // degenerate
	}
	for _, c := range cases {
		if got := BestFixPos(c.maxAbs, c.bits); got != c.want {
			t.Errorf("BestFixPos(%v, %d) = %v, want %v", c.maxAbs, c.bits, got, c.want)
		}
	}
}

func TestBestFixPosCoversRangeProperty(t *testing.T) {
	f := func(raw float32) bool {
		m := float32(math.Abs(float64(raw)))
		if m == 0 || math.IsInf(float64(m), 0) || math.IsNaN(float64(m)) || m > 1e15 || m < 1e-15 {
			return true
		}
		fp := BestFixPos(m, Bits8)
		// The chosen grid must represent ±m without saturation...
		if float64(m)*math.Pow(2, float64(fp)) > 127.5 && fp > -16 {
			return false
		}
		// ...and be the finest such grid (one step finer would clip),
		// unless clamped.
		if fp < 16 && fp > -16 {
			if float64(m)*math.Pow(2, float64(fp+1)) <= 127 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeRoundTripErrorBound(t *testing.T) {
	f := func(vals []float32) bool {
		clean := make([]float32, 0, len(vals))
		var maxAbs float32
		for _, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || v > 1e6 || v < -1e6 {
				continue
			}
			clean = append(clean, v)
			if a := float32(math.Abs(float64(v))); a > maxAbs {
				maxAbs = a
			}
		}
		if len(clean) == 0 || maxAbs == 0 {
			return true
		}
		fp := BestFixPos(maxAbs, Bits8)
		q := make([]int8, len(clean))
		QuantizeSlice(clean, fp, Bits8, q)
		step := float64(fp.InvScale())
		for i, orig := range clean {
			back := float64(float32(q[i]) * fp.InvScale())
			if math.Abs(back-float64(orig)) > step/2+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// gridEnds are the integer widths with the largest and smallest value each
// grid holds.
var gridEnds = []struct {
	bits     int
	max, min int8
}{{Bits8, 127, -128}, {Bits4, 7, -8}}

// TestQuantizeValueSaturates pins that finite values past a grid's range
// land on its ends, at both integer widths.
func TestQuantizeValueSaturates(t *testing.T) {
	for _, c := range gridEnds {
		dst := []int8{99, 99}
		QuantizeSlice([]float32{1e9, -1e9}, 0, c.bits, dst)
		if dst[0] != c.max {
			t.Fatalf("%d bits: positive saturation: %d", c.bits, dst[0])
		}
		if dst[1] != c.min {
			t.Fatalf("%d bits: negative saturation: %d", c.bits, dst[1])
		}
	}
}

// TestQuantizeSliceNonFinite pins the conversion of values no grid holds:
// infinities saturate at the grid's ends, NaN is 0, at any fix position and
// both integer widths.
func TestQuantizeSliceNonFinite(t *testing.T) {
	nan := float32(math.NaN())
	src := []float32{nan, float32(math.Inf(1)), float32(math.Inf(-1)), -nan}
	for _, c := range gridEnds {
		for _, fp := range []FixPos{-3, 0, 6} {
			dst := []int8{99, 99, 99, 99}
			QuantizeSlice(src, fp, c.bits, dst)
			if want := []int8{0, c.max, c.min, 0}; !slices.Equal(dst, want) {
				t.Fatalf("%d bits, fix position %d: NaN, +Inf, -Inf, -NaN quantized to %v, want %v", c.bits, fp, dst, want)
			}
		}
	}
}

func TestRoundShift(t *testing.T) {
	cases := []struct {
		acc         int64
		shift, bits int
		want        int8
	}{
		{256, 2, Bits8, 64},
		{5, 1, Bits8, 3},        // 2.5 rounds away from zero
		{-5, 1, Bits8, -3},      // -2.5 rounds away from zero
		{1000, 2, Bits8, 127},   // saturate high
		{-1000, 2, Bits8, -128}, // saturate low
		{3, 0, Bits8, 3},
		{2, -3, Bits8, 16}, // left shift
		{13, 1, Bits4, 7},  // 6.5 rounds away from zero
		{-13, 1, Bits4, -7},
		{15, 1, Bits4, 7},   // 7.5 rounds to 8, saturates
		{-17, 1, Bits4, -8}, // -8.5 rounds to -9, saturates
		{1000, 2, Bits4, 7},
		{-1000, 2, Bits4, -8},
		{2, -3, Bits4, 7}, // left shift, saturated
		{-1, -3, Bits4, -8},
	}
	for _, c := range cases {
		if got := RoundShift(c.acc, c.shift, c.bits); got != c.want {
			t.Errorf("RoundShift(%d, %d, %d) = %d, want %d", c.acc, c.shift, c.bits, got, c.want)
		}
	}
}

func TestQuantizeDequantizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float32, 100)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	x[17] = float32(math.NaN())
	fp := FixPos(5)
	QuantizeDequantize(x, fp)
	if x[17] != 0 {
		t.Fatalf("fake-quant of NaN = %v, want 0", x[17])
	}
	once := append([]float32(nil), x...)
	QuantizeDequantize(x, fp)
	for i := range x {
		if x[i] != once[i] {
			t.Fatalf("fake-quant not idempotent at %d: %v vs %v", i, x[i], once[i])
		}
	}
}

func TestQuantizeBias(t *testing.T) {
	b := quantizeBias([]float32{1.5, -2.25, 0}, FixPos(2))
	want := []int32{6, -9, 0}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bias[%d] = %d, want %d", i, b[i], want[i])
		}
	}
}

func TestFixPosScale(t *testing.T) {
	if FixPos(3).Scale() != 8 || FixPos(-2).Scale() != 0.25 {
		t.Fatal("Scale wrong")
	}
	if FixPos(3).InvScale() != 0.125 {
		t.Fatal("InvScale wrong")
	}
}

// TestQuantizeOneMatchesRound holds the call-free rounding to the definition
// it replaced — math.Round, saturate, NaN to 0 — over a stride through every
// float32 bit pattern (non-finite and subnormal ones included), at scales on
// both sides of 1, and on both neighbours of every half-way point.
func TestQuantizeOneMatchesRound(t *testing.T) {
	want := func(x float32, scale float64) int8 {
		v := math.Round(float64(x) * scale)
		switch {
		case v > 127:
			v = 127
		case v < -128:
			v = -128
		case v != v:
			v = 0
		}
		return int8(v)
	}
	for fp := -6; fp <= 14; fp++ {
		scale := math.Pow(2, float64(fp))
		check := func(x float32) {
			if got := quantizeOne(x, scale); got != want(x, scale) {
				t.Fatalf("quantizeOne(%v [%#x], 2^%d) = %d, want %d", x, math.Float32bits(x), fp, got, want(x, scale))
			}
		}
		for b := uint64(0); b < 1<<32; b += 40009 {
			check(math.Float32frombits(uint32(b)))
		}
		for k := -130; k <= 130; k++ {
			half := float32((float64(k) + 0.5) / scale)
			check(half)
			check(math.Nextafter32(half, float32(math.Inf(1))))
			check(math.Nextafter32(half, float32(math.Inf(-1))))
		}
	}
}
