package quant

import "seneca/internal/obs"

// The one multiply-add micro-kernel under every INT8 convolution and
// transpose convolution: a register tile of int32 accumulators, 8 lanes ×
// the body's tile width in pixels, reduced over channel pairs × kh×kw taps.
// Lanes are output channels; pixels are neighbours in one output row
// (convolution) or one row of one output phase (transpose convolution) —
// or, where that row is narrower than half a tile, in two or four rows of
// it stacked into one tile (tileShape).
//
// Operand layouts, shared by all three bodies:
//
//	x  [⌈C/2⌉][rows][cols]   an activation as the arena stores it: one cell
//	                          per pixel and channel pair; border and ghost
//	                          cells are literal zeros
//	w  [⌈C/2⌉][kh][kw][8]    packTileWeights, one lane block: the same channel
//	                          pair for each of eight lanes
//	acc [8][W]                lane l's accumulator for pixel q at l·W+q, W
//	                          the body's tile width
//
// A cell is two sign-extended int16 halves in an int32 (pairCell): channel 2c
// low, channel 2c+1 high — in memory, on a little-endian host, [2]int16.
// Every operand is an int8 value held in an int16, so a pair product
// w₀x₀ + w₁x₁ is at most 2·128² and exact in int32; the running sum wraps
// mod 2³² exactly like Go's int32 addition. Wrapping addition is associative
// and commutative, so the tile is bit-identical in any accumulation order
// and at any reduction depth — which is what lets the assembly bodies (one
// VPMADDWD or VPDPWSSD per lane and tap: sixteen exact MACs per multiply) and
// the plain loop stand in for each other, and why signed operands need none
// of the zero-point bookkeeping an unsigned-byte trick would.

// tileLanes is the register tile's lane count and tileWidths its pixel count
// per body: 8 in the AVX2 body's 256-bit registers (and the plain loop), 16
// in the VNNI body's 512-bit ones. The widest sizes acc. minTileRow is the
// narrowest row a tile packs: four cells, an xmm.
const (
	tileLanes     = 8
	avx2TileWidth = 8
	maxTileWidth  = 16
	tileSize      = tileLanes * maxTileWidth
	minTileRow    = 4
)

var tileWidths = [...]int{portable: avx2TileWidth, avx2: avx2TileWidth, avx512vnni: maxTileWidth}

// tileShape is the register tile body b runs over output rows nx pixels
// wide: rows rows of width pixels, width·rows = tileWidths[b]. A row wider
// than half the tile takes whole-row tiles, as many as it needs; a narrower
// one is halved until it fills the tile with rows of its own, down to
// minTileRow: 2×8 and 4×4 on the VNNI body, 2×4 on the others. Packed, a
// tile performs the multiply-adds of the pixels it keeps and few others.
func tileShape(b, nx int) (width, rows int) {
	width = tileWidths[b]
	for width > minTileRow && nx <= width/2 {
		width /= 2
	}
	return width, tileWidths[b] / width
}

// pairCell packs two int8 operands into one cell.
func pairCell(lo, hi int8) int32 { return int32(uint16(int16(lo))) | int32(hi)<<16 }

// The micro-kernel's bodies in the order a host gains them; body is the one
// this process runs, set once at init on amd64 to the best the host allows.
const (
	portable = iota
	avx2
	avx512vnni
)

var body = portable

// KernelISA names the body this process runs: avx512vnni, avx2 or portable.
func KernelISA() string { return [...]string{"portable", "avx2", "avx512vnni"}[body] }

// ExportKernelISA registers the info gauge seneca_quant_kernel{isa="…"} 1 on
// reg, so a scrape says which body produced the masks it counts.
func ExportKernelISA(reg *obs.Registry) {
	reg.Gauge("seneca_quant_kernel",
		"INT8 micro-kernel body this process runs (constant 1; the label carries the choice).",
		obs.L("isa", KernelISA())).Set(1)
}

// macTile computes one register tile of rows rows of width pixels
// (tileShape), width·rows = W:
//
//	acc[l·W+q] = Σ_cp Σ_ky Σ_kx  lo(w[cp][ky][kx][l])·lo(x[cp][ky][p(q)+kx])
//	                         + hi(w[cp][ky][kx][l])·hi(x[cp][ky][p(q)+kx])
//
// over kh tap rows of kw taps, where x starts at the tile's top-left cell
// (plane 0, its first tap row, its first pixel), rowStride and planeStride
// are the distances in cells between plane rows and between channel-pair
// planes, w starts at the lane block, and pixel q is the cell
// p(q) = (q / width)·rowStride + q % width from x. acc is overwritten.
func macTile(acc *[tileSize]int32, x, w []int32, cpairs, kh, kw, rowStride, planeStride, width, rows int) {
	// The assembly body works from base pointers; these two probes are the
	// bounds checks it cannot do.
	_ = x[(cpairs-1)*planeStride+(kh+rows-2)*rowStride+kw-1+width-1]
	_ = w[cpairs*kh*kw*tileLanes-1]
	switch body {
	case avx512vnni:
		macTileVNNI(acc, x, w, cpairs, kh, kw, rowStride, planeStride, rows)
	case avx2:
		macTileAVX2(acc, x, w, cpairs, kh, kw, rowStride, planeStride, rows)
	default:
		macTilePortable(acc, x, w, cpairs, kh, kw, rowStride, planeStride, rows)
	}
}

// macTilePortable is macTile as a plain loop over the same layouts, eight
// pixels wide: the body every non-AVX2 host runs, and the in-package oracle
// for the assembly.
func macTilePortable(acc *[tileSize]int32, x, w []int32, cpairs, kh, kw, rowStride, planeStride, rows int) {
	const tilePixels = 8
	width := tilePixels / rows
	*acc = [tileSize]int32{}
	for cp := 0; cp < cpairs; cp++ {
		for ky := 0; ky < kh; ky++ {
			row := x[cp*planeStride+ky*rowStride:]
			for kx := 0; kx < kw; kx++ {
				var x0, x1 [tilePixels]int32
				for q := 0; q < tilePixels; q += width {
					for i, xc := range row[q/width*rowStride+kx:][:width] {
						x0[q+i], x1[q+i] = int32(int16(xc)), xc>>16
					}
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
// micro-kernel's layout, [⌈lanes/8⌉][⌈c/2⌉][len(taps)][8] cells. Lane l,
// channel ci, tap t is weight[l·laneStride + ci·chanStride + taps[t]], which
// covers both users: a convolution ([OutC][C][K·K]: laneStride = C·K²,
// chanStride = K², every tap in order) and one phase of a transpose
// convolution ([InC][OutC][K·K]: laneStride = K², chanStride = OutC·K², the
// phase's taps in the order its input rows and columns are read). Ghost
// lanes and the odd channel's partner stay zero, so they add nothing whatever
// the plane holds there.
func packTileWeights(weight []int8, lanes, c int, taps []int, laneStride, chanStride int) []int32 {
	cpairs := (c + 1) / 2
	out := make([]int32, (lanes+tileLanes-1)/tileLanes*cpairs*len(taps)*tileLanes)
	for l := 0; l < lanes; l++ {
		for ci := 0; ci < c; ci++ {
			for t, tap := range taps {
				at := (((l/tileLanes)*cpairs+ci/2)*len(taps)+t)*tileLanes + l%tileLanes
				v := weight[l*laneStride+ci*chanStride+tap]
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

// phaseTaps is one axis of the rule that turns a transpose convolution into
// stride² small convolutions. Output index o = i·stride − pad + t for input
// index i and kernel tap t, so the outputs o ≡ a (mod stride) — phase a,
// o = a + stride·j — collect only taps t ≡ a+pad (mod stride), and tap t
// reads input j + (a+pad−t)/stride: consecutive inputs for consecutive taps
// of the phase. taps lists them in the order of the inputs they read and
// base is the first of those inputs' offset from j, which makes phase a the
// correlation out[j] = Σ_m w[taps[m]]·in[j+base+m]. Every tap of the kernel
// is in exactly one phase, so the phases together do the transpose
// convolution's multiply-adds and no others. A phase of a kernel narrower
// than the stride can have no taps: its outputs are the bias alone.
func phaseTaps(k, stride, pad, a int) (taps []int, base int) {
	first := (a + pad) % stride
	if first >= k {
		return nil, 0
	}
	last := first + (k-1-first)/stride*stride
	for t := last; t >= first; t -= stride {
		taps = append(taps, t)
	}
	return taps, (a + pad - last) / stride
}

// phaseLen is how many outputs of an n-long axis fall in phase a.
func phaseLen(n, stride, a int) int { return max(0, (n-a+stride-1)/stride) }
