// Package quant implements the SENECA INT8 quantization flow of paper
// Section III-D — the Go analog of the Vitis AI quantizer. It provides:
//
//   - DPU-style symmetric INT8 quantization with power-of-two scales ("fix
//     positions"), so requantization is a bit shift as on the DPUCZDX8G;
//   - batch-norm folding into preceding convolutions and dropout elision
//     (the quantizer "folds batch-normalization layers and removes nodes
//     not required for inference");
//   - Post-Training Quantization (PTQ) with an unlabeled calibration set;
//   - Fast Finetuning Quantization (FFQ), an AdaQuant-style [29] layer-wise
//     output-matching correction;
//   - Quantization-Aware Training (QAT) via fake-quantized weights with a
//     straight-through estimator;
//   - a functional INT8 executor for the quantized graph (int8×int8→int32),
//     reused by the DPU simulator.
package quant

import (
	"fmt"
	"math"
)

// FixPos is a power-of-two scale exponent: a real value x is stored as
// round(x·2^fp) in int8. Larger fp means finer resolution and smaller range.
type FixPos int

// Scale returns 2^fp.
func (fp FixPos) Scale() float32 { return float32(math.Pow(2, float64(fp))) }

// InvScale returns 2^-fp.
func (fp FixPos) InvScale() float32 { return float32(math.Pow(2, -float64(fp))) }

// QMaxBits returns the largest positive code of a signed b-bit integer
// (7 for INT4, 127 for INT8); any other width, FP32 included, is INT8's.
func QMaxBits(bits int) int64 {
	if bits <= 0 || bits > 8 {
		bits = 8
	}
	return int64(1)<<(bits-1) - 1
}

// saturate clamps v to the signed bits-wide range [-QMaxBits-1, QMaxBits].
func saturate(v int64, bits int) int8 {
	qmax := QMaxBits(bits)
	if v > qmax {
		v = qmax
	}
	if v < -qmax-1 {
		v = -qmax - 1
	}
	return int8(v)
}

// BestFixPos returns the largest fix position whose signed bits-wide grid
// [-QMaxBits-1, QMaxBits]·2^-fp still covers ±maxAbs — the standard Vitis AI
// choice. The result is clamped to [-16, 16] to keep shifts well-formed even
// for degenerate (all-zero or huge) tensors.
func BestFixPos(maxAbs float32, bits int) FixPos {
	if maxAbs <= 0 || math.IsNaN(float64(maxAbs)) {
		return 16
	}
	fp := int(math.Floor(math.Log2(float64(QMaxBits(bits)) / float64(maxAbs))))
	if fp > 16 {
		fp = 16
	}
	if fp < -16 {
		fp = -16
	}
	return FixPos(fp)
}

// QuantizeSlice quantizes a float slice into dst on the signed bits-wide grid
// at the given fix position, rounding half away from zero and saturating.
// ±Inf saturate like any out-of-range value; NaN becomes 0. Go leaves
// int8(NaN) to the implementation, so without the explicit case a NaN weight
// or pixel would have no pinned code across architectures.
func QuantizeSlice(src []float32, fp FixPos, bits int, dst []int8) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("quant: QuantizeSlice length mismatch %d vs %d", len(dst), len(src)))
	}
	scale := math.Pow(2, float64(fp))
	for i, x := range src {
		dst[i] = saturate(int64(quantizeOne(x, scale)), bits)
	}
}

// quantizeOne rounds x·scale to the nearest int8, half away from zero,
// saturating; NaN becomes 0. It is math.Round without the call: scale is a
// power of two, so v is x's 24-bit mantissa at another exponent, and below
// 128 in magnitude v ± 0.5 is exact in float64 (or v is so small that the
// sum rounds to something that still truncates to 0) — truncating it is
// rounding v. Checked against math.Round over every float32 bit pattern when
// it was written; TestQuantizeOneMatchesRound keeps a sample of that. Every
// float the package puts on an int8 or narrower grid is rounded by it.
func quantizeOne(x float32, scale float64) int8 {
	v := float64(x) * scale
	switch {
	case v >= 127:
		return 127
	case v <= -128:
		return -128
	case v >= 0:
		return int8(int32(v + 0.5))
	case v < 0:
		return int8(-int32(0.5 - v))
	}
	return 0 // NaN
}

// DequantizeSlice expands int8 values back into float32.
func DequantizeSlice(src []int8, fp FixPos, dst []float32) {
	inv := fp.InvScale()
	for i, q := range src {
		dst[i] = float32(q) * inv
	}
}

// QuantizeDequantize projects a float slice onto the int8 grid and back —
// the fake-quantization operation used by QAT. NaN projects to 0.
func QuantizeDequantize(x []float32, fp FixPos) {
	scale := math.Pow(2, float64(fp))
	inv := 1 / scale
	for i, v := range x {
		x[i] = float32(float64(quantizeOne(v, scale)) * inv)
	}
}

// RequantShift computes the right-shift amount that converts an int32
// accumulator at fix position accFP to an int8 output at outFP. A negative
// result means a left shift (rare: output range wider than accumulator
// grid).
func RequantShift(accFP, outFP FixPos) int {
	return int(accFP - outFP)
}

// RoundShift performs the DPU's round-half-away-from-zero arithmetic right
// shift (a left shift for a negative shift) with saturation to the signed
// bits-wide range: int8 for an INT8 layer, [-8, 7] for an INT4 one.
func RoundShift(acc int64, shift, bits int) int8 {
	var v int64
	switch {
	case shift > 0:
		half := int64(1) << (shift - 1)
		if acc >= 0 {
			v = (acc + half) >> shift
		} else {
			v = -((-acc + half) >> shift)
		}
	case shift < 0:
		v = acc << (-shift)
	default:
		v = acc
	}
	return saturate(v, bits)
}
