package quant

import (
	"seneca/internal/par"
	"seneca/internal/tensor"
)

// ceilDivInt returns ⌈a/b⌉ for b > 0 and any sign of a.
func ceilDivInt(a, b int) int {
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}

// floorDivInt returns ⌊a/b⌋ for b > 0 and any sign of a.
func floorDivInt(a, b int) int {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// clearInt32 zeroes an accumulator tile (compiled to a memclr).
func clearInt32(s []int32) {
	for i := range s {
		s[i] = 0
	}
}

// finalizeOne converts one int32 accumulator into int8, fusing the bias
// add, the optional ReLU and the round-shift requantization — the DPU's
// write-back path.
func finalizeOne(acc, bias int32, relu bool, shift int) int8 {
	v := int64(acc) + int64(bias)
	if relu {
		v &^= v >> 63
	}
	return RoundShift(v, shift)
}

// finalizeFused is finalizeOne followed by an optional second round-shift —
// the write-back of a producer whose output feeds a concat at a different
// fix position (see the store-target fusion in xmodel). The two rounding
// steps are applied separately on purpose: RoundShift(RoundShift(v,s1),s2)
// differs from RoundShift(v,s1+s2) in general, and bit-identity with the
// unfused conv→concat-requant pipeline requires rounding exactly as it did.
func finalizeFused(acc, bias int32, relu bool, shift, shift2 int) int8 {
	v := finalizeOne(acc, bias, relu, shift)
	if shift2 == 0 {
		return v
	}
	return RoundShift(int64(v), shift2)
}

// roundSat8 is RoundShift restricted to shift ≥ 1 with the rounding constant
// precomputed — small enough for the compiler to inline into kernel
// write-back loops, where the full RoundShift switch costs a call per output
// element. Bit-identical to RoundShift(v, shift) for shift ≥ 1.
func roundSat8(v int64, shift uint, half int64) int8 {
	// Branchless round-half-away-from-zero: the accumulator's sign is
	// data-dependent, so a sign test here would mispredict about half the
	// time at ~15 cycles a miss. |v| stays well under 2⁶³ (int32 range plus
	// bias), so the xor/sub absolute value is exact.
	sign := v >> 63
	r := (((v ^ sign) - sign + half) >> shift)
	r = (r ^ sign) - sign
	if r > 127 {
		r = 127
	}
	if r < -128 {
		r = -128
	}
	return int8(r)
}

// finalizeInt8 applies finalizeFused across one channel's accumulator row,
// with the common shift ≥ 1 case inlined and its branches hoisted.
func finalizeInt8(acc []int32, bias int32, relu bool, shift, shift2 int, out []int8) {
	out = out[:len(acc)]
	if shift > 0 && shift2 >= 0 {
		us, half := uint(shift), int64(1)<<uint(shift-1)
		var us2 uint
		var half2 int64
		if shift2 > 0 {
			us2, half2 = uint(shift2), int64(1)<<uint(shift2-1)
		}
		b := int64(bias)
		for j, a := range acc {
			v := int64(a) + b
			if relu {
				v &^= v >> 63
			}
			r := roundSat8(v, us, half)
			if us2 != 0 {
				r = roundSat8(int64(r), us2, half2)
			}
			out[j] = r
		}
		return
	}
	for j, a := range acc {
		out[j] = finalizeFused(a, bias, relu, shift, shift2)
	}
}

// finalizeTile applies the fused write-back to groups of eight accumulators,
// the shape both producers hand it: group g is acc[8g:8g+8] with bias
// bias[g·biasStride], and its first n ≤ 8 results land at dst[g·dstStride:].
// A convolution tile is one group per lane (bias stride 1, a channel plane
// apart in dst); a scattered transpose-convolution plane is one long run of
// groups under one bias. Whole groups at the common shifts take the AVX2
// body where there is one; everything else runs finalizeInt8, which is also
// what that body is held to.
func finalizeTile(acc []int32, bias []int32, biasStride int, relu bool, shift, shift2 int, dst []int8, dstStride, groups, n int) {
	if groups == 0 {
		return
	}
	if useAVX2 && n == tilePixels && shift >= 1 && shift <= 62 && shift2 >= 0 && shift2 <= 31 {
		// The assembly works from base pointers; probe what it will touch.
		_ = acc[groups*tilePixels-1]
		_ = bias[(groups-1)*biasStride]
		_ = dst[(groups-1)*dstStride+tilePixels-1]
		floor := -128
		if relu {
			floor = 0
		}
		finalize8AVX2(acc, dst, bias, groups, dstStride, biasStride, shift, shift2, floor)
		return
	}
	for g := 0; g < groups; g++ {
		finalizeInt8(acc[g*tilePixels:g*tilePixels+n], bias[g*biasStride], relu, shift, shift2, dst[g*dstStride:g*dstStride+n])
	}
}

// minChunkWork is the least work worth handing to another core, in units of
// about a nanosecond of one core: an int8 element read, compared or
// requantized by an element-wise pass counts one, a micro-kernel step (one
// tap of one channel pair across a tile, 128 MACs) counts stepWork. 2¹⁶ is
// ≈65 µs, a few times what starting a goroutine on a parked core and waiting
// for it costs on the 2-vCPU hosts this runs on. Without the floor a 1M
// U-Net frame at 64×64 — forty-odd loops of 5–100 µs — ran a third slower on
// two idle cores than on one (par.speedup 0.67); with it such a frame stays
// on its caller and a 256×256 frame, sixteen times the work per loop, still
// fans out.
const (
	minChunkWork = 1 << 16
	stepWork     = 2
)

// chunksFor bounds the chunks a loop worth the given work fans out into
// (the maxChunks argument of par.ForChunkedID).
func chunksFor(work int) int { return max(1, work/minChunkWork) }

// convInt8 computes an INT8 convolution with int32 accumulation and DPU
// round-shift requantization. packed is the node's weights in the
// micro-kernel's layout (packTileWeights); bias is at fix position
// inFP+weightFP; shift converts the accumulator to the output fix position;
// shift2 is the store-target fusion's second requantization (0 when
// unfused); relu applies the fused activation before saturation. plane is
// scratch of at least planeLen(c, h, w, k, pad) cells.
//
// The input is widened once into the zero-padded channel-pair plane, then
// every (lane block, output row) unit runs independently through
// par.ForChunkedID — lane-block-major, so a worker's weights stay in L1 while
// it sweeps rows, and in no more chunks than chunksFor allows — one macTile
// per eight pixels, followed by the fused
// bias → ReLU → round-shift write-back of the tile's valid lanes and pixels.
// The result equals the per-weight signed loop with int32 wraparound bit for
// bit, at every worker count: each output's sum is a wrapping sum of the
// same products whatever the order.
func convInt8(src []int8, c, h, w int, packed []int32, bias []int32, outC, k, stride, pad int, shift, shift2 int, relu bool, dst []int8, oh, ow int, plane []int32) {
	rows, cols := h+2*pad, planeCols(w, k, pad)
	plane = plane[:planeLen(c, h, w, k, pad)]
	widenPlane(src, c, h, w, pad, cols, plane)
	if stride != 1 {
		convInt8Generic(plane, packed, bias, c, rows, cols, outC, k, stride, shift, shift2, relu, dst, oh, ow)
		return
	}
	cpairs := (c + 1) / 2
	rowStride, planeStride := cols, cols*rows
	blockLen := cpairs * k * k * tileLanes
	hw := oh * ow
	units := (outC + tileLanes - 1) / tileLanes * oh
	par.ForChunkedID(units, chunksFor(units*(ow+tilePixels-1)/tilePixels*cpairs*k*k*stepWork), func(_, lo, hi int) {
		var acc [tileSize]int32
		for u := lo; u < hi; u++ {
			ob, oy := u/oh, u%oh
			wb := packed[ob*blockLen : (ob+1)*blockLen]
			lanes := min(tileLanes, outC-ob*tileLanes)
			for ox := 0; ox < ow; ox += tilePixels {
				n := min(tilePixels, ow-ox)
				macTile(&acc, plane[oy*rowStride+ox:], wb, cpairs, k, rowStride, planeStride)
				finalizeTile(acc[:], bias[ob*tileLanes:], 1, relu, shift, shift2, dst[ob*tileLanes*hw+oy*ow+ox:], hw, lanes, n)
			}
		}
	})
}

// convInt8Generic is the stride ≠ 1 convolution, which no shipped model
// has: one scalar gather per output over the same plane and packed weights
// the micro-kernel reads, accumulating in wrapping int32 like it.
func convInt8Generic(plane, packed []int32, bias []int32, c, rows, cols, outC, k, stride int, shift, shift2 int, relu bool, dst []int8, oh, ow int) {
	cpairs := (c + 1) / 2
	par.For(outC, func(oc int) {
		wb := packed[(oc/tileLanes)*cpairs*k*k*tileLanes+oc%tileLanes:]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s int32
				for cp := 0; cp < cpairs; cp++ {
					for ky := 0; ky < k; ky++ {
						xr := plane[(cp*rows+oy*stride+ky)*cols+ox*stride:]
						wr := wb[(cp*k+ky)*k*tileLanes:]
						for kx := 0; kx < k; kx++ {
							wc, xc := wr[kx*tileLanes], xr[kx]
							s += int32(int16(wc))*int32(int16(xc)) + (wc>>16)*(xc>>16)
						}
					}
				}
				dst[(oc*oh+oy)*ow+ox] = finalizeFused(s, bias[oc], relu, shift, shift2)
			}
		}
	})
}

// convTransposeInt8 computes an INT8 transpose convolution: cols = Wᵀ·x in
// int32, then a col2im scatter, and a fused bias+ReLU+requantization
// finalization (shift2 is the store-target fusion's second requantization,
// 0 when unfused). packed is the node's [InC, OutC, K, K] weights lowered
// by packTileWeights with the OutC·K² column rows as lanes.
//
// The column GEMM cols[r, j] = Σ_ic W[ic, r]·x[ic, j] is the convolution's
// micro-kernel at k = 1: the input is widened as one unpadded row of H·W
// pixels, and every (lane block, eight-pixel block) unit is one macTile
// whose valid rows are copied into cols. The caller provides plane
// (≥ planeLen(c, 1, H·W, 1, 0) cells), cols32 (≥ OutC·K²·H·W int32) and acc
// (≥ OutC·OH·OW int32) for the scatter accumulators.
func convTransposeInt8(src []int8, c, h, w int, packed []int32, bias []int32, outC, k, stride, pad int, shift, shift2 int, relu bool, dst []int8, oh, ow int, plane []int32, cols32 []int32, acc []int32) {
	crows := outC * k * k
	hw := h * w
	cols := cols32[:crows*hw]
	pcols := planeCols(hw, 1, 0)
	plane = plane[:planeLen(c, 1, hw, 1, 0)]
	widenPlane(src, c, 1, hw, 0, pcols, plane)
	cpairs := (c + 1) / 2
	blockLen := cpairs * tileLanes
	pblocks := pcols / tilePixels
	units := (crows + tileLanes - 1) / tileLanes * pblocks
	par.ForChunkedID(units, chunksFor(units*cpairs*stepWork), func(_, lo, hi int) {
		var tile [tileSize]int32
		for u := lo; u < hi; u++ {
			rb, j := u/pblocks, u%pblocks*tilePixels
			macTile(&tile, plane[j:], packed[rb*blockLen:(rb+1)*blockLen], cpairs, 1, 0, pcols)
			n := min(tilePixels, hw-j)
			for l := 0; l < min(tileLanes, crows-rb*tileLanes); l++ {
				copy(cols[(rb*tileLanes+l)*hw+j:][:n], tile[l*tilePixels:])
			}
		}
	})
	scatterFinalize(cols, bias, outC, k, stride, pad, shift, shift2, relu, dst, h, w, oh, ow, acc)
}

// scatterFinalize distributes the transpose-convolution column matrix into
// the (larger) output image and applies the fused bias+ReLU+requantization
// write-back.
func scatterFinalize(cols []int32, bias []int32, outC, k, stride, pad int, shift, shift2 int, relu bool, dst []int8, h, w, oh, ow int, acc []int32) {
	hw := h * w
	ohw := oh * ow
	par.ForChunkedID(outC, chunksFor(outC*(k*k*hw+ohw)), func(_, lo, hi int) {
		for oc := lo; oc < hi; oc++ {
			tile := acc[oc*ohw : (oc+1)*ohw]
			clearInt32(tile)
			for ky := 0; ky < k; ky++ {
				// iy values whose target row py = iy*stride - pad + ky lands
				// inside [0, oh).
				iyLo := ceilDivInt(pad-ky, stride)
				if iyLo < 0 {
					iyLo = 0
				}
				iyHi := floorDivInt(oh-1+pad-ky, stride) + 1
				if iyHi > h {
					iyHi = h
				}
				for kx := 0; kx < k; kx++ {
					r := (oc*k+ky)*k + kx
					crow := cols[r*hw : (r+1)*hw]
					ixLo := ceilDivInt(pad-kx, stride)
					if ixLo < 0 {
						ixLo = 0
					}
					ixHi := floorDivInt(ow-1+pad-kx, stride) + 1
					if ixHi > w {
						ixHi = w
					}
					for iy := iyLo; iy < iyHi; iy++ {
						py := iy*stride - pad + ky
						srow := crow[iy*w : (iy+1)*w]
						drow := tile[py*ow : (py+1)*ow]
						px := ixLo*stride - pad + kx
						for ix := ixLo; ix < ixHi; ix++ {
							drow[px] += srow[ix]
							px += stride
						}
					}
				}
			}
			whole := ohw / tilePixels
			finalizeTile(tile, bias[oc:], 0, relu, shift, shift2, dst[oc*ohw:], tilePixels, whole, tilePixels)
			finalizeInt8(tile[whole*tilePixels:], bias[oc], relu, shift, shift2, dst[oc*ohw+whole*tilePixels:(oc+1)*ohw])
		}
	})
}

// requantRow writes RoundShift(src[i], shift) to dst[i] for a non-zero
// shift, with the shift's sign tested once a row: the common right shift
// runs roundSat8, which inlines where RoundShift's switch is a call per
// element. dst may be src.
func requantRow(src []int8, shift int, dst []int8) {
	dst = dst[:len(src)]
	if shift > 0 {
		us, half := uint(shift), int64(1)<<uint(shift-1)
		for i, v := range src {
			dst[i] = roundSat8(int64(v), us, half)
		}
		return
	}
	for i, v := range src {
		dst[i] = RoundShift(int64(v), shift)
	}
}

// max32 is a branch-free max: activations' order is data, and a compare and
// jump per pooled sample mispredicts about half the time.
func max32(a, b int32) int32 {
	d := a - b
	return a - d&(d>>31)
}

// maxPoolInt8 is 2×2/stride-2 max pooling on an int8 CHW image with a fused
// requantization: shift moves the pooled value to the output fix position
// while the pooled row is still in cache (0 keeps the input scale). Folding
// the shift is bit-identical to pooling then requantizing the whole plane —
// the same RoundShift is applied to the same maxima, one memory pass
// earlier.
func maxPoolInt8(src []int8, c, h, w, shift int, dst []int8) {
	oh, ow := h/2, w/2
	par.ForChunkedID(c*oh, chunksFor(c*h*w), func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			ci, oy := r/oh, r%oh
			top := src[(ci*h+2*oy)*w : (ci*h+2*oy+1)*w]
			bot := src[(ci*h+2*oy+1)*w : (ci*h+2*oy+2)*w]
			row := dst[r*ow : (r+1)*ow]
			for ox := range row {
				row[ox] = int8(max32(max32(int32(top[2*ox]), int32(top[2*ox+1])), max32(int32(bot[2*ox]), int32(bot[2*ox+1]))))
			}
			if shift != 0 {
				requantRow(row, shift, row)
			}
		}
	})
}

// reluInt8 applies max(0, x) with a fix-position change (shift) if the
// calibrated output scale differs from the input scale.
func reluInt8(src []int8, shift int, dst []int8) {
	par.ForChunkedID(len(src), chunksFor(len(src)), func(_, lo, hi int) {
		d := dst[lo:hi]
		for i, v := range src[lo:hi] {
			d[i] = max(v, 0)
		}
		if shift != 0 {
			requantRow(d, shift, d)
		}
	})
}

// requantInt8 shifts a whole int8 buffer from one fix position to another.
func requantInt8(src []int8, shift int, dst []int8) {
	if shift == 0 {
		copy(dst, src)
		return
	}
	par.ForChunkedID(len(src), chunksFor(len(src)), func(_, lo, hi int) {
		requantRow(src[lo:hi], shift, dst[lo:hi])
	})
}

// argmaxBlock is how many pixels argmaxChannelsInt8 carries a running best
// for at a time: small enough to live on the stack and in L1, long enough
// that each channel is read in whole cache lines.
const argmaxBlock = 256

// argmaxChannelsInt8 returns the per-pixel argmax class over an int8 CHW
// logit map — the "INT8 masks" the deployed model returns (Section III-E).
// Ties go to the lowest channel. Channels are the outer loop over a block's
// running best and index, so every read is sequential; pixel-outer would
// stride H·W bytes between reads, a cache line per logit at 256×256.
func argmaxChannelsInt8(src []int8, c, hw int) []uint8 {
	out := make([]uint8, hw)
	par.ForChunkedID(hw, chunksFor(c*hw), func(_, lo, hi int) {
		var best [argmaxBlock]int8
		for j := lo; j < hi; j += argmaxBlock {
			n := min(argmaxBlock, hi-j)
			copy(best[:n], src[j:j+n])
			idx := out[j : j+n]
			for ch := 1; ch < c; ch++ {
				for i, v := range src[ch*hw+j : ch*hw+j+n] {
					if v > best[i] {
						best[i], idx[i] = v, uint8(ch)
					}
				}
			}
		}
	})
	return out
}

// dequantizeToTensor expands an int8 CHW activation into a float tensor.
func dequantizeToTensor(src []int8, fp FixPos, shape [3]int) *tensor.Tensor {
	t := tensor.New(shape[0], shape[1], shape[2])
	DequantizeSlice(src, fp, t.Data)
	return t
}
