package tensor

import (
	"fmt"

	"seneca/internal/par"
)

// ConvOutSize returns the spatial output size of a convolution with the
// given input size, kernel, stride and padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// ConvTransposeOutSize returns the spatial output size of a transpose
// convolution (a.k.a. fractionally-strided convolution) with the given
// parameters. outPad resolves the output-size ambiguity of strided
// convolutions; outPad=stride-1 with pad=(kernel-1)/2 yields exact
// upsampling by the stride factor, which is the U-Net decoder convention.
func ConvTransposeOutSize(in, kernel, stride, pad, outPad int) int {
	return (in-1)*stride - 2*pad + kernel + outPad
}

// Conv is the geometry of an FP32 convolution over a batch of N images,
// which it lowers to im2col and a matrix product. X is the convolution's
// input side and Y its output side, each with a channel count and D×H×W
// extents; K, S and P are the kernel, stride and padding per axis. A
// transpose convolution is the adjoint: its input is the Y side and its
// output the X side. A 2D layer is a 3D one at depth 1, whose depth axis
// has kernel 1, stride 1 and no padding and so adds no term to any sum.
//
// The weights are the row-major matrix [YC, XC·KD·KH·KW]: nn's
// [Cout, Cin, K, K] for a convolution and [Cin, Cout, K, K] for a
// transpose convolution.
type Conv struct {
	N       int
	XC, YC  int
	X, Y    [3]int
	K, S, P [3]int
}

// NewConv returns the geometry of a convolution of n images of xc channels
// and spatial extents x (H, W or D, H, W) to yc channels, with kernel k,
// stride s and padding p on each of those axes.
func NewConv(n, xc, yc int, x []int, k, s, p int) Conv {
	g := square(n, xc, yc, len(x), k, s, p)
	for a, v := range x {
		g.X[3-len(x)+a], g.Y[3-len(x)+a] = v, ConvOutSize(v, k, s, p)
	}
	return g
}

// NewConvTranspose returns the geometry of a transpose convolution of n
// images of yc channels and spatial extents y to xc channels: the adjoint
// of a NewConv convolution, with outPad added to each X extent.
func NewConvTranspose(n, xc, yc int, y []int, k, s, p, outPad int) Conv {
	g := square(n, xc, yc, len(y), k, s, p)
	for a, v := range y {
		g.X[3-len(y)+a], g.Y[3-len(y)+a] = ConvTransposeOutSize(v, k, s, p, outPad), v
	}
	return g
}

// square puts kernel k, stride s and padding p on the last axes axes and
// leaves the others at extent 1, kernel 1, stride 1 and no padding.
func square(n, xc, yc, axes, k, s, p int) Conv {
	g := Conv{N: n, XC: xc, YC: yc, X: [3]int{1, 1, 1}, Y: [3]int{1, 1, 1}, K: [3]int{1, 1, 1}, S: [3]int{1, 1, 1}}
	for i := 3 - axes; i < 3; i++ {
		g.K[i], g.S[i], g.P[i] = k, s, p
	}
	return g
}

func volume(e [3]int) int { return e[0] * e[1] * e[2] }

// rows is the height of the column matrix: one row per weight of an output
// channel.
func (g Conv) rows() int { return g.XC * volume(g.K) }

// check panics unless x, y and w hold the N images of the X and Y sides and
// the weight matrix.
func (g Conv) check(x, y, w []float32) {
	if len(x) != g.N*g.XC*volume(g.X) || len(y) != g.N*g.YC*volume(g.Y) || len(w) != g.YC*g.rows() {
		panic(fmt.Sprintf("tensor: convolution %+v given %d X, %d Y and %d weight elements", g, len(x), len(y), len(w)))
	}
}

// im2col lowers one X-side image src into cols, the matrix
// [XC·KD·KH·KW, YD·YH·YW] whose column holds the receptive field of one Y
// position, padding read as zero. Row ((c·KD+kz)·KH+ky)·KW+kx holds the
// weight it multiplies; column (oz·YH+oy)·YW+ox the Y position.
func (g Conv) im2col(cols, src []float32) {
	d, h, w := g.X[0], g.X[1], g.X[2]
	od, oh, ow := g.Y[0], g.Y[1], g.Y[2]
	kd, kh, kw := g.K[0], g.K[1], g.K[2]
	sz, sy, sx := g.S[0], g.S[1], g.S[2]
	pz, py, px := g.P[0], g.P[1], g.P[2]
	vol, ovol := d*h*w, od*oh*ow
	par.ForChunked(g.rows(), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			ci, kz, ky, x0 := r/(kd*kh*kw), r/(kh*kw)%kd, r/kw%kh, r%kw-px
			plane := src[ci*vol : (ci+1)*vol]
			drow := cols[r*ovol : (r+1)*ovol]
			for oz := 0; oz < od; oz++ {
				iz := oz*sz - pz + kz
				for oy := 0; oy < oh; oy++ {
					iy := oy*sy - py + ky
					orow := drow[(oz*oh+oy)*ow : (oz*oh+oy+1)*ow]
					if iz < 0 || iz >= d || iy < 0 || iy >= h {
						clear(orow)
						continue
					}
					srow := plane[(iz*h+iy)*w : (iz*h+iy+1)*w]
					for ox := range orow {
						if ix := ox*sx + x0; uint(ix) < uint(len(srow)) {
							orow[ox] = srow[ix]
						} else {
							orow[ox] = 0
						}
					}
				}
			}
		}
	})
}

// col2im is the adjoint of im2col: it overwrites the X-side image dst with
// the columns of cols summed back into the positions they were read from,
// dropping what fell in padding. Channels run in parallel: every row of a
// channel scatters only into that channel's plane.
func (g Conv) col2im(dst, cols []float32) {
	d, h, w := g.X[0], g.X[1], g.X[2]
	od, oh, ow := g.Y[0], g.Y[1], g.Y[2]
	kd, kh, kw := g.K[0], g.K[1], g.K[2]
	sz, sy, sx := g.S[0], g.S[1], g.S[2]
	pz, py, px := g.P[0], g.P[1], g.P[2]
	vol, ovol := d*h*w, od*oh*ow
	clear(dst)
	par.For(g.XC, func(ci int) {
		plane := dst[ci*vol : (ci+1)*vol]
		for kz := 0; kz < kd; kz++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					r := ((ci*kd+kz)*kh+ky)*kw + kx
					crow := cols[r*ovol : (r+1)*ovol]
					for oz := 0; oz < od; oz++ {
						iz := oz*sz - pz + kz
						if iz < 0 || iz >= d {
							continue
						}
						for oy := 0; oy < oh; oy++ {
							iy := oy*sy - py + ky
							if iy < 0 || iy >= h {
								continue
							}
							prow := plane[(iz*h+iy)*w : (iz*h+iy+1)*w]
							for ox, v := range crow[(oz*oh+oy)*ow : (oz*oh+oy+1)*ow] {
								if ix := ox*sx + kx - px; uint(ix) < uint(len(prow)) {
									prow[ix] += v
								}
							}
						}
					}
				}
			}
		}
	})
}

// Forward computes the convolution Y = W·cols(X) + bias, image by image.
// bias, one value per Y channel, may be nil.
func (g Conv) Forward(y, x, w, bias []float32) {
	g.check(x, y, w)
	rows, ovol := g.rows(), volume(g.Y)
	xs, ys := g.XC*volume(g.X), g.YC*ovol
	cols := make([]float32, rows*ovol)
	for i := 0; i < g.N; i++ {
		g.im2col(cols, x[i*xs:(i+1)*xs])
		gemm(y[i*ys:(i+1)*ys], w, cols, g.YC, rows, ovol, rows, 1)
	}
	addBias(y, bias, g.YC, ovol)
}

// Adjoint computes the transpose convolution X = col2im(Wᵀ·Y) + bias,
// image by image. bias, one value per X channel, may be nil.
func (g Conv) Adjoint(x, y, w, bias []float32) {
	g.check(x, y, w)
	rows, ovol := g.rows(), volume(g.Y)
	xs, ys := g.XC*volume(g.X), g.YC*ovol
	cols := make([]float32, rows*ovol)
	for i := 0; i < g.N; i++ {
		gemm(cols, w, y[i*ys:(i+1)*ys], rows, g.YC, ovol, 1, rows)
		g.col2im(x[i*xs:(i+1)*xs], cols)
	}
	addBias(x, bias, g.XC, volume(g.X))
}

// Backward is the backward pass of Forward: from gy, the gradient with
// respect to Y, it writes gx, the gradient with respect to X, which is
// Adjoint's product, and adds the weight and bias gradients into gw and gb.
func (g Conv) Backward(gx, gw, gb, x, w, gy []float32) {
	g.weightGrad(gw, x, gy, nil, nil)
	g.Adjoint(gx, gy, w, nil)
	sumBias(gb, gy, g.YC, volume(g.Y))
}

// AdjointBackward is the backward pass of Adjoint: from gx, the gradient
// with respect to the transpose convolution's output X, it writes gy, the
// gradient with respect to its input Y, which is Forward's product, and
// adds the weight and bias gradients into gw and gb.
func (g Conv) AdjointBackward(gy, gw, gb, y, w, gx []float32) {
	g.check(gx, gy, w)
	g.weightGrad(gw, gx, y, w, gy)
	sumBias(gb, gx, g.XC, volume(g.X))
}

// weightGrad adds y·cols(x)ᵀ of every image, the weight gradient both
// backward passes share, into gw. Given a gy, it also writes W·cols(x)
// there, Forward's product, from the same columns.
func (g Conv) weightGrad(gw, x, y, w, gy []float32) {
	g.check(x, y, gw)
	rows, ovol := g.rows(), volume(g.Y)
	xs, ys := g.XC*volume(g.X), g.YC*ovol
	cols, gwImg, gwSum := New(rows, ovol), New(g.YC, rows), FromSlice(gw, g.YC, rows)
	yImg := &Tensor{Shape: []int{g.YC, ovol}}
	for i := 0; i < g.N; i++ {
		yImg.Data = y[i*ys : (i+1)*ys]
		g.im2col(cols.Data, x[i*xs:(i+1)*xs])
		MatMulBTInto(gwImg, yImg, cols)
		gwSum.AddInPlace(gwImg)
		if gy != nil {
			gemm(gy[i*ys:(i+1)*ys], w, cols.Data, g.YC, rows, ovol, rows, 1)
		}
	}
}

// addBias adds bias[c] to every channel c of the batch t, whose c channels
// hold vol values each. A zero bias is skipped rather than added, so a −0
// stays −0.
func addBias(t, bias []float32, c, vol int) {
	if bias == nil {
		return
	}
	perChannel(bias, c)
	for r := 0; r*vol < len(t); r++ {
		if b := bias[r%c]; b != 0 {
			row := t[r*vol : (r+1)*vol]
			for j := range row {
				row[j] += b
			}
		}
	}
}

// sumBias adds the sum of every channel of the gradient batch grad, whose
// c channels hold vol values each, into gb, image by image.
func sumBias(gb, grad []float32, c, vol int) {
	perChannel(gb, c)
	for r := 0; r*vol < len(grad); r++ {
		var s float32
		for _, v := range grad[r*vol : (r+1)*vol] {
			s += v
		}
		gb[r%c] += s
	}
}

// perChannel panics unless b holds one value for each of c channels.
func perChannel(b []float32, c int) {
	if len(b) != c {
		panic(fmt.Sprintf("tensor: %d bias values for %d channels", len(b), c))
	}
}
