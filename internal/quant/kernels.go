package quant

import (
	"math"

	"seneca/internal/par"
	"seneca/internal/tensor"
)

// finalizeFused converts one int32 accumulator into int8 — the DPU's
// write-back path: bias add, optional ReLU, round-shift requantization, and
// an optional second round-shift for a producer whose output feeds a concat
// at a different fix position (see the store-target fusion in xmodel). The
// two rounding steps are applied separately on purpose:
// RoundShift(RoundShift(v,s1),s2) differs from RoundShift(v,s1+s2) in
// general, and bit-identity with the unfused conv→concat-requant pipeline
// requires rounding exactly as it did.
func finalizeFused(acc, bias int32, relu bool, shift, shift2 int) int8 {
	v := int64(acc) + int64(bias)
	if relu {
		v &^= v >> 63
	}
	r := RoundShift(v, shift, Bits8)
	if shift2 == 0 {
		return r
	}
	return RoundShift(int64(r), shift2, Bits8)
}

// roundSat8 is RoundShift restricted to shift ≥ 1 with the rounding constant
// precomputed — small enough for the compiler to inline into kernel
// write-back loops, where the full RoundShift switch costs a call per output
// element. Bit-identical to RoundShift(v, shift, Bits8) for shift ≥ 1.
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

// rounding is finalizeFused at shift ≥ 1 and shift2 ≥ 0 with its constants
// worked out once per row, so the per-value work inlines.
type rounding struct {
	us, us2     uint
	half, half2 int64
	relu        bool
}

func (r *rounding) one(acc, bias int32) int8 {
	v := int64(acc) + int64(bias)
	if r.relu {
		v &^= v >> 63
	}
	q := roundSat8(v, r.us, r.half)
	if r.us2 != 0 {
		q = roundSat8(int64(q), r.us2, r.half2)
	}
	return q
}

// finalizeInt8 applies finalizeFused across a lane pair's accumulator rows
// and stores the results as cells step apart — lo's lane in the low half,
// hi's in the high half, which stays zero for the ghost partner of an odd
// last lane (hi nil) — with the common shift ≥ 1 case inlined and its
// branches hoisted. It is the write-back the portable body runs, the one an
// accumulator too wide for the AVX2 body takes, and what that body is held
// to.
func finalizeInt8(lo, hi []int32, biasLo, biasHi int32, relu bool, shift, shift2 int, dst []int32, step int) {
	if shift > 0 && shift2 >= 0 && hi != nil {
		r := rounding{us: uint(shift), half: int64(1) << uint(shift-1), relu: relu}
		if shift2 > 0 {
			r.us2, r.half2 = uint(shift2), int64(1)<<uint(shift2-1)
		}
		hi = hi[:len(lo)]
		for j, a := range lo {
			dst[j*step] = pairCell(r.one(a, biasLo), r.one(hi[j], biasHi))
		}
		return
	}
	for j, a := range lo {
		var h int8
		if hi != nil {
			h = finalizeFused(hi[j], biasHi, relu, shift, shift2)
		}
		dst[j*step] = pairCell(finalizeFused(a, biasLo, relu, shift, shift2), h)
	}
}

// exact32 reports whether the write-back of accumulators no larger than
// accBound under these biases and shifts is exact in 32-bit lanes, which is
// what the AVX2 body works in: the shifts in its range, and |acc+bias| plus
// the rounding half short of 2³¹. Every layer of every shipped model is; an
// accumulator that can wrap int32, or a bias at its edge, is not, and takes
// the scalar write-back.
func exact32(accBound int64, bias []int32, shift, shift2 int) bool {
	if shift < 1 || shift > 31 || shift2 < 0 || shift2 > 31 {
		return false
	}
	var b int64
	for _, v := range bias {
		b = max(b, int64(v), -int64(v))
	}
	return accBound+b+int64(1)<<uint(shift-1) <= math.MaxInt32
}

// finalizeTile is the fused write-back of one register tile: of each of
// its first rows rows of width pixels (tileShape), the first n pixels of its
// first lanes lanes go through bias → ReLU → round-shift(s) and are stored
// as cells, lane pair p at dst[p·planeStride + r·rowStride + q·step] for
// row r and pixel q. step is 1 for a convolution and the stride for a phase
// of a transpose convolution, whose outputs interleave with the other
// phases'. With simd (an assembly body runs and exact32 holds) whole pairs
// take the body's assembly — the VNNI body's under store masks at steps 1
// and 2, the AVX2 body's straight into a whole contiguous row or through
// cells of stack — and everything else runs finalizeInt8, which is also
// what the assembly is held to. Nothing outside the n cells of each pair's
// rows is written, so borders, ghost columns and the rows of a last row
// group that runs past the plane keep their zeros.
func finalizeTile(acc *[tileSize]int32, bias []int32, lanes int, relu bool, shift, shift2 int, simd bool, dst []int32, planeStride, rowStride, step, width, rows, n int) {
	full := tileWidths[body] // a lane's accumulators
	pairs := lanes / 2
	done := 0
	if simd && pairs > 0 {
		floor := -128
		if relu {
			floor = 0
		}
		// The assembly works from base pointers; probe what it will touch.
		_ = bias[2*pairs-1]
		_ = dst[(pairs-1)*planeStride+(rows-1)*rowStride+(n-1)*step]
		done = pairs
		switch {
		case body == avx2 && step == 1 && n == full:
			finalize8AVX2(acc[:], dst, bias, pairs, planeStride, shift, shift2, floor)
		case body == avx2:
			var cells [tileLanes / 2 * avx2TileWidth]int32
			finalize8AVX2(acc[:], cells[:], bias, pairs, full, shift, shift2, floor)
			for p := 0; p < pairs; p++ {
				for r := 0; r < rows; r++ {
					d := dst[p*planeStride+r*rowStride:]
					for q, c := range cells[p*full+r*width:][:n] {
						d[q*step] = c
					}
				}
			}
		case body == avx512vnni && step <= 2:
			// Pixel q's store-mask bit is bit q·step of lo, then of hi.
			m, every := 1<<(n*step)-1, 0xffff
			if step == 2 {
				every = 0x5555
			}
			finalize16VNNI(acc[:], dst, bias, pairs, planeStride, shift, shift2, floor, step, m&every, m>>16&every, 0xffff<<width&0xffff, rows, rowStride)
		default:
			done = 0 // a VNNI phase at stride 3 or more: the scalar write-back
		}
	}
	for r := 0; r < rows; r++ {
		for p := done; p < pairs; p++ {
			lo := acc[2*p*full+r*width:]
			finalizeInt8(lo[:n], lo[full:], bias[2*p], bias[2*p+1], relu, shift, shift2, dst[p*planeStride+r*rowStride:], step)
		}
		if lanes%2 != 0 {
			finalizeInt8(acc[(lanes-1)*full+r*width:][:n], nil, bias[lanes-1], 0, relu, shift, shift2, dst[pairs*planeStride+r*rowStride:], step)
		}
	}
}

// minChunkWork is the least work worth handing to another core, in units of
// about a nanosecond of one core: an int8 element read, compared or
// requantized by an element-wise pass counts one (a vector of stepPixels cells
// where an assembly body runs the pass: cellUnits), a micro-kernel step (one
// tap of one channel pair across an eight-pixel tile, 128 MACs: a row's
// eight pixels, or two rows' four where rows are that narrow) counts
// stepWork, whatever tile the host's body runs. 2¹⁶ is
// ≈65 µs, a few times what starting a goroutine on a parked core and waiting
// for it costs on the 2-vCPU hosts this runs on. Without the floor a 1M
// U-Net frame at 64×64 — forty-odd loops of 5–100 µs — ran a third slower on
// two idle cores than on one (par.speedup 0.67); with it such a frame stays
// on its caller and a 256×256 frame, sixteen times the work per loop, still
// fans out.
const (
	minChunkWork = 1 << 16
	stepWork     = 2
	stepPixels   = 8
)

// cellUnits is the int8 elements in a unit of an element-wise pass's work.
var cellUnits = [...]int{portable: 1, avx2: 2 * stepPixels, avx512vnni: 2 * stepPixels}

// chunksFor bounds the chunks a loop worth the given work fans out into
// (the maxChunks argument of par.ForChunkedID).
func chunksFor(work int) int { return max(1, work/minChunkWork) }

// phase is one stride-1 correlation over an activation's padded plane, the
// unit both INT8 drivers are made of: kh×kw taps whose first reads input
// pixel (j+baseY, i+baseX) for the phase's output (j, i), which is output
// pixel (ay + step·j, ax + step·i). A convolution is a single phase at step
// 1 with base −pad; a transpose convolution is stride² of them at step =
// stride (phaseTaps). w is the phase's taps in packTileWeights' layout.
type phase struct {
	ay, ax       int
	kh, kw       int
	baseY, baseX int
	w            []int32
}

// extent is the phase's share of an oh×ow output, rows and columns; an
// output smaller than the step leaves some phases with none of either.
func (ph *phase) extent(oh, ow, step int) (ny, nx int) {
	if ny, nx = phaseLen(oh, step, ph.ay), phaseLen(ow, step, ph.ax); ny == 0 || nx == 0 {
		return 0, 0
	}
	return ny, nx
}

// reach is what a node made of these phases needs of its h×w input's plane
// to produce an oh×ow output: the zero border its taps read into, and how far
// past the border's inner edge a row must run for its tiles. Both are the
// VNNI body's tile shapes', whichever body the host runs, so an arena is the
// same size everywhere: its rows are the longest and its row groups the
// tallest, so the last tile of a row may start up to fifteen pixels short
// of a whole one, and a last row group that runs past the plane reads up to
// three rows past it.
func reach(phases []phase, step, h, w, oh, ow int) (border, span int) {
	for i := range phases {
		ph := &phases[i]
		ny, nx := ph.extent(oh, ow, step)
		if ph.kh == 0 || ph.kw == 0 || ny == 0 {
			continue
		}
		width, rows := tileShape(avx512vnni, nx)
		border = max(border, -ph.baseY, -ph.baseX, (ny+rows-1)/rows*rows+ph.baseY+ph.kh-1-h, nx+ph.baseX+ph.kw-1-w)
		span = max(span, ph.baseX+(nx+width-1)/width*width+ph.kw-1)
	}
	return border, span
}

// convPhases runs an INT8 convolution (step 1) or transpose convolution
// (step = stride) as its phases, with int32 accumulation and DPU round-shift
// requantization. bias is at fix position inFP+weightFP; shift converts the
// accumulator to the output fix position; shift2 is the store-target
// fusion's second requantization (0 when unfused); relu applies the fused
// activation before saturation; accBound bounds every accumulator's
// magnitude (QNode.tilePhases). in must carry the border and row length
// reach asks for.
//
// Every (phase, lane block, row group) unit — a row group is the rows one
// tile of the phase's tileShape covers, a single row where rows are wide —
// runs independently through par.ForChunkedID — lane-block-major, so a
// worker's weights stay in L1 while it sweeps rows, and in no more chunks
// than chunksFor allows — one macTile per tile of pixels read straight from
// the input's cells, then the fused bias → ReLU → round-shift write-back of
// the tile's valid lanes, rows and pixels straight into the output's. The
// result equals the per-weight signed loop with int32 wraparound bit for
// bit, at every worker count: each output's sum is a wrapping sum of the
// same products whatever the order.
func convPhases(in *activation, phases []phase, step int, accBound int64, bias []int32, outC int, shift, shift2 int, relu bool, out *activation) {
	simd := body != portable && exact32(accBound, bias[:outC], shift, shift2)
	cpairs := in.cpairs()
	rowStride, planeStride := in.cols, in.planeStride()
	oStride := out.planeStride()
	blocks := (outC + tileLanes - 1) / tileLanes
	units, work := 0, 0
	for i := range phases {
		ny, nx := phases[i].extent(out.h, out.w, step)
		_, rows := tileShape(body, nx)
		w8, r8 := tileShape(avx2, nx) // work in eight-pixel tiles
		units += blocks * ((ny + rows - 1) / rows)
		work += blocks * ((ny + r8 - 1) / r8) * ((nx + w8 - 1) / w8) * cpairs * max(1, phases[i].kh*phases[i].kw) * stepWork
	}
	par.ForChunkedID(units, chunksFor(work), func(_, lo, hi int) {
		var acc [tileSize]int32
		for i := range phases {
			ph := &phases[i]
			ny, nx := ph.extent(out.h, out.w, step)
			width, rows := tileShape(body, nx)
			groups := (ny + rows - 1) / rows
			if n := blocks * groups; lo >= n {
				lo, hi = lo-n, hi-n
				continue
			}
			blockLen := cpairs * ph.kh * ph.kw * tileLanes
			x := in.cells[in.origin()+ph.baseY*rowStride+ph.baseX:]
			o := out.cells[out.origin()+ph.ay*out.cols+ph.ax:]
			for u := lo; u < min(hi, blocks*groups); u++ {
				ob, j := u/groups, u%groups*rows
				lanes := min(tileLanes, outC-ob*tileLanes)
				for px := 0; px < nx; px += width {
					if blockLen == 0 {
						acc = [tileSize]int32{} // a phase without taps: the bias alone
					} else {
						macTile(&acc, x[j*rowStride+px:], ph.w[ob*blockLen:(ob+1)*blockLen], cpairs, ph.kh, ph.kw, rowStride, planeStride, width, rows)
					}
					finalizeTile(&acc, bias[ob*tileLanes:], lanes, relu, shift, shift2, simd, o[ob*tileLanes/2*oStride+step*(j*out.cols+px):], oStride, step*out.cols, step, width, min(rows, ny-j), min(width, nx-px))
				}
			}
			if hi -= blocks * groups; hi <= 0 {
				return
			}
			lo = 0
		}
	})
}

// requantCells writes RoundShift of both halves of src[i] to dst[i] for a
// non-zero shift, with the shift's sign tested once a row: the common right
// shift runs roundSat8, which inlines where RoundShift's switch is a call per
// element. dst may be src.
func requantCells(src []int32, shift int, dst []int32) {
	dst = dst[:len(src)]
	if shift > 0 {
		us, half := uint(shift), int64(1)<<uint(shift-1)
		for i, c := range src {
			dst[i] = pairCell(roundSat8(int64(int16(c)), us, half), roundSat8(int64(c>>16), us, half))
		}
		return
	}
	for i, c := range src {
		dst[i] = pairCell(RoundShift(int64(int16(c)), shift, Bits8), RoundShift(int64(c>>16), shift, Bits8))
	}
}

// saturateCells clamps both halves of a's interior cells to the signed
// bits-wide range.
func saturateCells(a *activation, bits int) {
	for cp := 0; cp < a.cpairs(); cp++ {
		for y := 0; y < a.h; y++ {
			row := a.row(cp, y)
			for x, c := range row {
				row[x] = pairCell(saturate(int64(int16(c)), bits), saturate(int64(c>>16), bits))
			}
		}
	}
}

// max32 is a branch-free max: activations' order is data, and a compare and
// jump per pooled sample mispredicts about half the time.
func max32(a, b int32) int32 {
	d := a - b
	return a - d&(d>>31)
}

// maxPoolInt8 is 2×2/stride-2 max pooling, each half of a cell against the
// same half of its three neighbours, with a fused requantization: shift
// moves the pooled value to the output fix position while the pooled row is
// still in cache (0 keeps the input scale). Folding the shift is
// bit-identical to pooling then requantizing the whole plane — the same
// RoundShift is applied to the same maxima, one memory pass earlier.
func maxPoolInt8(in *activation, shift int, out *activation) {
	oh := out.h
	par.ForChunkedID(in.cpairs()*oh, chunksFor(in.c*in.h*in.w/cellUnits[body]), func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			cp, oy := r/oh, r%oh
			top, bot := in.row(cp, 2*oy), in.row(cp, 2*oy+1)
			row := out.row(cp, oy)
			from := 0
			if body != portable && len(row) >= stepPixels { // the 4×4 planes of a 64² frame have none
				from = len(row) &^ (stepPixels - 1)
				maxPoolAVX2(row[:from], top[:2*from], bot[:2*from])
			}
			for ox := from; ox < len(row); ox++ {
				a, b, c, d := top[2*ox], top[2*ox+1], bot[2*ox], bot[2*ox+1]
				l := max32(max32(int32(int16(a)), int32(int16(b))), max32(int32(int16(c)), int32(int16(d))))
				h := max32(max32(a>>16, b>>16), max32(c>>16, d>>16))
				row[ox] = l&0xffff | h<<16
			}
			if shift != 0 {
				requantCells(row, shift, row)
			}
		}
	})
}

// reluInt8 applies max(0, x) to both halves of every cell, with a
// fix-position change (shift) if the calibrated output scale differs from
// the input scale.
func reluInt8(in *activation, shift int, out *activation) {
	par.ForChunkedID(in.cpairs()*in.h, chunksFor(in.c*in.h*in.w), func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			row := out.row(r/in.h, r%in.h)
			for x, c := range in.row(r/in.h, r%in.h) {
				l, h := int32(int16(c)), c>>16
				row[x] = (l&^(l>>31))&0xffff | (h&^(h>>31))<<16
			}
			if shift != 0 {
				requantCells(row, shift, row)
			}
		}
	})
}

// requantInt8 is the concat copy: src's channels, moved from one fix
// position to another, become dst's channels from chanOff on. Work is split
// by destination row, so no two workers share a cell. Where both halves of a
// destination cell come from one source cell — an even offset, and not the
// lone last channel of an odd count — whole cells move; otherwise each half
// is fetched from its own source channel, and a half that belongs to a
// neighbour of src is left as it is.
func requantInt8(src *activation, shift int, dst *activation, chanOff int) {
	first := chanOff / 2
	planes := (chanOff+src.c+1)/2 - first
	par.ForChunkedID(planes*src.h, chunksFor(src.c*src.h*src.w), func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			dp, y := first+r/src.h, r%src.h
			to := dst.row(dp, y)
			if sc := 2*dp - chanOff; chanOff%2 == 0 && sc+1 < src.c {
				if from := src.row(sc/2, y); shift == 0 {
					copy(to, from)
				} else {
					requantCells(from, shift, to)
				}
				continue
			}
			for half := 0; half < 2; half++ {
				sc := 2*dp + half - chanOff
				if sc < 0 || sc >= src.c {
					continue
				}
				fromShift, toShift := uint(sc%2*16), uint(half*16)
				for x, c := range src.row(sc/2, y) {
					v := RoundShift(int64(int16(c>>fromShift)), shift, Bits8)
					to[x] = to[x]&^(0xffff<<toShift) | int32(uint16(int16(v)))<<toShift
				}
			}
		}
	})
}

// argmaxBlock is how many pixels argmaxChannelsInt8 carries a running best
// for at a time: small enough to live on the stack and in L1, long enough
// that each channel is read in whole cache lines.
const argmaxBlock = 256

// argmaxChannelsInt8 returns the per-pixel argmax class over a logit map —
// the "INT8 masks" the deployed model returns (Section III-E). Ties go to
// the lowest channel. Channel pairs are the outer loop over a row block's
// running best and index, so every read is sequential; pixel-outer would
// stride a whole plane between reads, a cache line per logit at 256×256. The
// running best is kept by mask, not by branch: which class wins a pixel is
// data, and a jump on it mispredicts wherever classes meet.
func argmaxChannelsInt8(a *activation) []uint8 {
	out := make([]uint8, a.h*a.w)
	par.ForChunkedID(a.h, chunksFor(a.c*a.h*a.w/cellUnits[body]), func(_, lo, hi int) {
		var best, idx [argmaxBlock]int32
		for y := lo; y < hi; y++ {
			from := 0
			if body != portable {
				from = a.w &^ (stepPixels - 1)
				argmaxAVX2(out[y*a.w:][:from], a.cells[a.origin()+y*a.cols:][:(a.cpairs()-1)*a.planeStride()+from], a.c, a.planeStride())
			}
			for x := from; x < a.w; x += argmaxBlock {
				n := min(argmaxBlock, a.w-x)
				for i, c := range a.row(0, y)[x : x+n] {
					best[i], idx[i] = int32(int16(c)), 0
				}
				for ch := 1; ch < a.c; ch++ {
					half := uint(ch % 2 * 16)
					for i, c := range a.row(ch/2, y)[x : x+n] {
						v := int32(int16(c >> half))
						m := (best[i] - v) >> 31 // all ones where v > best
						best[i] += (v - best[i]) & m
						idx[i] += (int32(ch) - idx[i]) & m
					}
				}
				for i, v := range idx[:n] {
					out[y*a.w+x+i] = uint8(v)
				}
			}
		}
	})
	return out
}

// widenPlane and narrowPlane are the one adaptor pair between the arena's
// cells and a plain int8 CHW image: the FP32-fallback kernels, FFQ's tap and
// the dequantized output read and write the latter. widenPlane writes a's
// interior cells from src (an odd last channel's partner half zero);
// narrowPlane reads them into dst. Neither touches the border.
func widenPlane(src []int8, a *activation) {
	hw := a.h * a.w
	for cp := 0; cp < a.cpairs(); cp++ {
		even := src[2*cp*hw : (2*cp+1)*hw]
		var odd []int8
		if 2*cp+1 < a.c {
			odd = src[(2*cp+1)*hw : (2*cp+2)*hw]
		}
		for y := 0; y < a.h; y++ {
			d := a.row(cp, y)
			e := even[y*a.w : (y+1)*a.w]
			if odd == nil {
				for x, v := range e {
					d[x] = pairCell(v, 0)
				}
				continue
			}
			o := odd[y*a.w : (y+1)*a.w]
			for x, v := range e {
				d[x] = pairCell(v, o[x])
			}
		}
	}
}

func narrowPlane(a *activation, dst []int8) {
	hw := a.h * a.w
	for ci := 0; ci < a.c; ci++ {
		half := uint(ci % 2 * 16)
		for y := 0; y < a.h; y++ {
			d := dst[ci*hw+y*a.w:][:a.w]
			for x, c := range a.row(ci/2, y) {
				d[x] = int8(c >> half)
			}
		}
	}
}

// quantizeCells is QuantizeSlice into the input node's cells.
func quantizeCells(src []float32, fp FixPos, a *activation) {
	scale := math.Pow(2, float64(fp))
	hw := a.h * a.w
	for cp := 0; cp < a.cpairs(); cp++ {
		for y := 0; y < a.h; y++ {
			d := a.row(cp, y)
			even := src[2*cp*hw+y*a.w:][:a.w]
			var odd []float32 // none for a lone last channel
			if 2*cp+1 < a.c {
				odd = src[(2*cp+1)*hw+y*a.w:][:a.w]
			}
			from := 0
			if body != portable {
				from = a.w &^ (stepPixels - 1)
				quantizeAVX2(d[:from], even, odd, scale)
			}
			for x := from; x < a.w; x++ {
				if d[x] = pairCell(quantizeOne(even[x], scale), 0); odd != nil {
					d[x] |= int32(quantizeOne(odd[x], scale)) << 16
				}
			}
		}
	}
}

// dequantizeToTensor expands an activation into a float CHW tensor.
func dequantizeToTensor(a *activation) *tensor.Tensor {
	t := tensor.New(a.c, a.h, a.w)
	narrow := make([]int8, len(t.Data))
	narrowPlane(a, narrow)
	DequantizeSlice(narrow, a.fp, t.Data)
	return t
}
