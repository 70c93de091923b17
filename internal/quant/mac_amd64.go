package quant

func init() {
	if hasAVX2() {
		body = avx2
		if hasVNNI() {
			body = avx512vnni
		}
	}
}

// hasAVX2 reports whether the CPU and the OS both support AVX2 (mac_amd64.s).
func hasAVX2() bool

// hasVNNI reports whether they also support AVX-512 VL and VNNI (mac_amd64.s).
func hasVNNI() bool

// macTileAVX2 is macTile's AVX2 body (mac_amd64.s).
//
//go:noescape
func macTileAVX2(acc *[tileSize]int32, x, w []int32, cpairs, kh, kw, rowStride, planeStride, rows int)

// macTileVNNI is macTile's AVX-512 VNNI body (mac_amd64.s).
//
//go:noescape
func macTileVNNI(acc *[tileSize]int32, x, w []int32, cpairs, kh, kw, rowStride, planeStride, rows int)

// finalize8AVX2 is finalizeTile's assembly body for the eight-pixel tile
// (mac_amd64.s).
//
//go:noescape
func finalize8AVX2(acc []int32, dst []int32, bias []int32, pairs, dstStride, shift, shift2, floor int)

// finalize16VNNI is finalizeTile's assembly body for the VNNI body's
// sixteen-pixel tile (mac_amd64.s).
//
//go:noescape
func finalize16VNNI(acc []int32, dst []int32, bias []int32, pairs, dstStride, shift, shift2, floor, step, lo, hi, after, rows, rowStride int)

// The element-wise passes' assembly, which both bodies run (cells_amd64.s).
func argmaxAVX2(dst []uint8, x []int32, c, planeStride int)
func maxPoolAVX2(dst, top, bot []int32)
func quantizeAVX2(dst []int32, even, odd []float32, scale float64)
