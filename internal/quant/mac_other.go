//go:build !amd64

package quant

// macTileAVX2 exists so the dispatch in macTile compiles everywhere;
// useAVX2 is never set off amd64.
func macTileAVX2(acc *[tileSize]int32, x, w []int32, cpairs, kh, kw, rowStride, planeStride int) {
	panic("quant: the AVX2 body exists on amd64 only")
}

// finalize8AVX2 likewise: finalizeTile never reaches it off amd64.
func finalize8AVX2(acc []int32, dst []int32, bias []int32, pairs, dstStride, shift, shift2, floor int) {
	panic("quant: the AVX2 body exists on amd64 only")
}
