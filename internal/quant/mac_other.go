//go:build !amd64

package quant

// Stubs so the dispatch compiles everywhere: body is never set off amd64.
func macTileAVX2(acc *[tileSize]int32, x, w []int32, cpairs, kh, kw, rowStride, planeStride, rows int) {
	panic("quant: the assembly bodies exist on amd64 only")
}
func macTileVNNI(acc *[tileSize]int32, x, w []int32, cpairs, kh, kw, rowStride, planeStride, rows int) {
	panic("quant: the assembly bodies exist on amd64 only")
}
func finalize8AVX2(acc []int32, dst []int32, bias []int32, pairs, dstStride, shift, shift2, floor int) {
	panic("quant: the assembly bodies exist on amd64 only")
}
func finalize16VNNI(acc []int32, dst []int32, bias []int32, pairs, dstStride, shift, shift2, floor, step, lo, hi, after, rows, rowStride int) {
	panic("quant: the assembly bodies exist on amd64 only")
}
func argmaxAVX2(dst []uint8, x []int32, c, planeStride int) {
	panic("quant: the assembly bodies exist on amd64 only")
}
func maxPoolAVX2(dst, top, bot []int32) {
	panic("quant: the assembly bodies exist on amd64 only")
}
func quantizeAVX2(dst []int32, even, odd []float32, scale float64) {
	panic("quant: the assembly bodies exist on amd64 only")
}
