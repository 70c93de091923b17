package quant

import "seneca/internal/obs"

// The one multiply-add micro-kernel under every INT8 convolution and
// transpose convolution: an 8-lane × 8-pixel register tile of int32
// accumulators reduced over channel pairs × k×k taps. Lanes are output
// channels (convolution) or column rows (transpose convolution); pixels are
// eight neighbours of one output row.
//
// Operand layouts, shared by both bodies:
//
//	x  [⌈C/2⌉][rows][cols]   widenPlane: one cell per pixel and channel pair;
//	                          padding cells are literal zeros
//	w  [⌈C/2⌉][k][k][8]      packTileWeights, one lane block: the same channel
//	                          pair for each of eight lanes
//
// A cell is two sign-extended int16 halves in an int32 (pairCell): channel 2c
// low, channel 2c+1 high — in memory, on a little-endian host, [2]int16.
// Every operand is an int8 value held in an int16, so a pair product
// w₀x₀ + w₁x₁ is at most 2·128² and exact in int32; the running sum wraps
// mod 2³² exactly like Go's int32 addition. Wrapping addition is associative
// and commutative, so the tile is bit-identical in any accumulation order
// and at any reduction depth — which is what lets the AVX2 body (one
// VPMADDWD per lane and tap: sixteen exact MACs per multiply) and the plain
// loop below stand in for each other, and why signed operands need none of
// the zero-point bookkeeping an unsigned-byte trick would.

// tileLanes and tilePixels are the register tile's extent.
const (
	tileLanes  = 8
	tilePixels = 8
	tileSize   = tileLanes * tilePixels
)

// pairCell packs two int8 operands into one cell.
func pairCell(lo, hi int8) int32 { return int32(uint16(int16(lo))) | int32(hi)<<16 }

// useAVX2 selects the assembly body; set once at init from CPUID on amd64
// and never true elsewhere.
var useAVX2 bool

// KernelISA names the micro-kernel body this process runs: "avx2" for the
// assembly body, "portable" for the Go loop.
func KernelISA() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// ExportKernelISA registers the info gauge seneca_quant_kernel{isa="…"} 1 on
// reg, so a scrape says which body produced the masks it counts.
func ExportKernelISA(reg *obs.Registry) {
	reg.Gauge("seneca_quant_kernel",
		"INT8 micro-kernel body this process runs (constant 1; the label carries the choice).",
		obs.L("isa", KernelISA())).Set(1)
}

// macTile computes one register tile:
//
//	acc[l·8+q] = Σ_cp Σ_ky Σ_kx  lo(w[cp][ky][kx][l])·lo(x[cp][ky][q+kx])
//	                            + hi(w[cp][ky][kx][l])·hi(x[cp][ky][q+kx])
//
// where x starts at the tile's top-left cell (plane 0, its first tap row,
// its first pixel), rowStride and planeStride are the distances in cells
// between plane rows and between channel-pair planes, and w starts at the
// lane block. acc is overwritten.
func macTile(acc *[tileSize]int32, x, w []int32, cpairs, k, rowStride, planeStride int) {
	// The assembly body works from base pointers; these two probes are the
	// bounds checks it cannot do.
	_ = x[(cpairs-1)*planeStride+(k-1)*rowStride+k-1+tilePixels-1]
	_ = w[cpairs*k*k*tileLanes-1]
	if useAVX2 {
		macTileAVX2(acc, x, w, cpairs, k, rowStride, planeStride)
		return
	}
	macTilePortable(acc, x, w, cpairs, k, rowStride, planeStride)
}

// macTilePortable is macTile as a plain loop over the same layouts: the
// body every non-AVX2 host runs, and the in-package oracle for the assembly.
func macTilePortable(acc *[tileSize]int32, x, w []int32, cpairs, k, rowStride, planeStride int) {
	*acc = [tileSize]int32{}
	for cp := 0; cp < cpairs; cp++ {
		for ky := 0; ky < k; ky++ {
			row := x[cp*planeStride+ky*rowStride:]
			for kx := 0; kx < k; kx++ {
				var x0, x1 [tilePixels]int32
				for q, xc := range row[kx : kx+tilePixels] {
					x0[q], x1[q] = int32(int16(xc)), xc>>16
				}
				for l, wc := range w[:tileLanes] {
					w0, w1 := int32(int16(wc)), wc>>16
					a := (*[tilePixels]int32)(acc[l*tilePixels:])
					// Written out: as a counted loop the bookkeeping cost
					// more than the eight multiply-adds.
					a[0] += w0*x0[0] + w1*x1[0]
					a[1] += w0*x0[1] + w1*x1[1]
					a[2] += w0*x0[2] + w1*x1[2]
					a[3] += w0*x0[3] + w1*x1[3]
					a[4] += w0*x0[4] + w1*x1[4]
					a[5] += w0*x0[5] + w1*x1[5]
					a[6] += w0*x0[6] + w1*x1[6]
					a[7] += w0*x0[7] + w1*x1[7]
				}
				w = w[tileLanes:]
			}
		}
	}
}

// packTileWeights lowers an int8 weight tensor into lane blocks of the
// micro-kernel's layout, [⌈lanes/8⌉][⌈c/2⌉][taps][8] cells. Lane l,
// channel ci, tap t is weight[l·laneStride + ci·chanStride + t], which
// covers both users: a convolution ([OutC][C][K·K]: lanes = OutC,
// laneStride = C·K², chanStride = K²) and a transpose convolution's column
// GEMM ([InC][OutC·K²]: lanes = OutC·K², taps = 1, laneStride = 1,
// chanStride = OutC·K²). Ghost lanes and the odd channel's partner stay
// zero, so they add nothing whatever the plane holds there.
func packTileWeights(weight []int8, lanes, c, taps, laneStride, chanStride int) []int32 {
	cpairs := (c + 1) / 2
	out := make([]int32, (lanes+tileLanes-1)/tileLanes*cpairs*taps*tileLanes)
	for l := 0; l < lanes; l++ {
		for ci := 0; ci < c; ci++ {
			for t := 0; t < taps; t++ {
				at := (((l/tileLanes)*cpairs+ci/2)*taps+t)*tileLanes + l%tileLanes
				v := weight[l*laneStride+ci*chanStride+t]
				if ci%2 == 0 {
					out[at] |= pairCell(v, 0)
				} else {
					out[at] |= pairCell(0, v)
				}
			}
		}
	}
	return out
}

// planeCols is the row length (in cells) of the widened plane for a w-wide
// input convolved k×k with padding pad: the stride-1 output width rounded up
// to whole tiles, plus the k−1 cells the last tile's taps reach past it.
// Never less than w+2·pad.
func planeCols(w, k, pad int) int {
	ow := w + 2*pad - k + 1
	return (ow+tilePixels-1)/tilePixels*tilePixels + k - 1
}

// planeLen is the widened plane's size in cells for a c×h×w input convolved
// k×k with padding pad.
func planeLen(c, h, w, k, pad int) int {
	return (c + 1) / 2 * (h + 2*pad) * planeCols(w, k, pad)
}

// widenPlane lowers an int8 CHW image into the micro-kernel's channel-pair
// plane: [⌈c/2⌉][h+2·pad][cols] cells with the image at offset (pad, pad)
// and zeros everywhere else. Every cell is written, so a reused (dirty) dst
// needs no clearing.
func widenPlane(src []int8, c, h, w, pad, cols int, dst []int32) {
	rows := h + 2*pad
	for cp := 0; cp < (c+1)/2; cp++ {
		plane := dst[cp*rows*cols : (cp+1)*rows*cols]
		clear(plane[:pad*cols])
		clear(plane[(pad+h)*cols:])
		even := src[2*cp*h*w : (2*cp+1)*h*w]
		var odd []int8
		if 2*cp+1 < c {
			odd = src[(2*cp+1)*h*w : (2*cp+2)*h*w]
		}
		for y := 0; y < h; y++ {
			row := plane[(pad+y)*cols : (pad+y+1)*cols]
			// A few cells a side: plain loops, which clear() would turn
			// into two calls a row.
			for i := 0; i < pad; i++ {
				row[i] = 0
			}
			for i := pad + w; i < cols; i++ {
				row[i] = 0
			}
			d := row[pad : pad+w]
			a := even[y*w : (y+1)*w]
			if odd == nil {
				for x, v := range a {
					d[x] = pairCell(v, 0)
				}
				continue
			}
			b := odd[y*w : (y+1)*w]
			for x, v := range a {
				d[x] = pairCell(v, b[x])
			}
		}
	}
}
