package quant

func init() { useAVX2 = hasAVX2() }

// hasAVX2 reports whether the CPU and the OS both support AVX2 (mac_amd64.s).
func hasAVX2() bool

// macTileAVX2 is macTile's assembly body (mac_amd64.s).
//
//go:noescape
func macTileAVX2(acc *[tileSize]int32, x, w []int32, cpairs, kh, kw, rowStride, planeStride int)

// finalize8AVX2 is finalizeTile's assembly body (mac_amd64.s).
//
//go:noescape
func finalize8AVX2(acc []int32, dst []int32, bias []int32, pairs, dstStride, shift, shift2, floor int)
