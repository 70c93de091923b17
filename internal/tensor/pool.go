package tensor

import (
	"fmt"
	"slices"

	"seneca/internal/par"
)

// MaxPool2x2 applies 2×2 max pooling with stride 2 to an NCHW tensor, or
// 2×2×2 pooling to an NCDHW one; every pooled dimension must be even. A 2D
// input is pooled as a 3D one at depth 1 with a depth window of 1. It
// returns the pooled tensor and, for every output element, the index into
// its input plane of the maximum, which MaxUnpool routes the gradient back
// to. A tie goes to the window's first element in raster order, and so
// does a NaN there.
func MaxPool2x2(x *Tensor) (*Tensor, []int32) {
	sp := x.Shape[2:]
	if len(sp) != 2 && len(sp) != 3 {
		panic(fmt.Sprintf("tensor: MaxPool2x2 pools 2 or 3 axes, got %v", x.Shape))
	}
	d, kd, h, w := 1, 1, sp[len(sp)-2], sp[len(sp)-1]
	if len(sp) == 3 {
		d, kd = sp[0], 2
	}
	if d%kd != 0 || h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("tensor: MaxPool2x2 requires even spatial dims, got %v", x.Shape))
	}
	od, oh, ow := d/kd, h/2, w/2
	shape := append([]int(nil), x.Shape...)
	for i := 2; i < len(shape); i++ {
		shape[i] /= 2
	}
	out := New(shape...)
	arg := make([]int32, len(out.Data))
	vol, ovol := d*h*w, od*oh*ow
	par.For(x.Shape[0]*x.Shape[1], func(p int) {
		src := x.Data[p*vol : (p+1)*vol]
		dst := out.Data[p*ovol : (p+1)*ovol]
		adst := arg[p*ovol : (p+1)*ovol]
		for oz := 0; oz < od; oz++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					first := (oz*kd*h+oy*2)*w + ox*2
					best, bestIdx := src[first], first
					for at := first; at < first+kd*h*w; at += h * w {
						r0, r1 := src[at:at+2], src[at+w:at+w+2]
						if r0[0] > best {
							best, bestIdx = r0[0], at
						}
						if r0[1] > best {
							best, bestIdx = r0[1], at+1
						}
						if r1[0] > best {
							best, bestIdx = r1[0], at+w
						}
						if r1[1] > best {
							best, bestIdx = r1[1], at+w+1
						}
					}
					o := (oz*oh+oy)*ow + ox
					dst[o], adst[o] = best, int32(bestIdx)
				}
			}
		}
	})
	return out, arg
}

// MaxUnpool is the backward pass of MaxPool2x2: it routes every element of
// the pooled gradient grad to the input position arg names for it, in a
// zero tensor of the input's shape.
func MaxUnpool(grad *Tensor, arg []int32, shape []int) *Tensor {
	out := New(shape...)
	vol, ovol := Numel(shape[2:]), Numel(grad.Shape[2:])
	par.For(shape[0]*shape[1], func(p int) {
		dst := out.Data[p*vol : (p+1)*vol]
		for i, g := range grad.Data[p*ovol : (p+1)*ovol] {
			dst[arg[p*ovol+i]] += g
		}
	})
	return out
}

// ConcatChannels concatenates two tensors along the channel dimension. Both
// are N×C followed by any number of spatial extents (NCHW, NCDHW), and
// everything but the channel count must match.
func ConcatChannels(a, b *Tensor) *Tensor {
	if a.Shape[0] != b.Shape[0] || !slices.Equal(a.Shape[2:], b.Shape[2:]) {
		panic(fmt.Sprintf("tensor: ConcatChannels shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	n, ca, cb, vol := a.Shape[0], a.Shape[1], b.Shape[1], Numel(a.Shape[2:])
	shape := append([]int(nil), a.Shape...)
	shape[1] = ca + cb
	out := New(shape...)
	par.For(n, func(i int) {
		copy(out.Data[i*(ca+cb)*vol:], a.Data[i*ca*vol:(i+1)*ca*vol])
		copy(out.Data[i*(ca+cb)*vol+ca*vol:], b.Data[i*cb*vol:(i+1)*cb*vol])
	})
	return out
}

// SplitChannels is the inverse of ConcatChannels: it splits a tensor into
// its first ca channels and the remaining channels.
func SplitChannels(x *Tensor, ca int) (*Tensor, *Tensor) {
	n, c, vol := x.Shape[0], x.Shape[1], Numel(x.Shape[2:])
	if ca <= 0 || ca >= c {
		panic(fmt.Sprintf("tensor: SplitChannels split %d out of range for %d channels", ca, c))
	}
	cb := c - ca
	shape := append([]int(nil), x.Shape...)
	shape[1] = ca
	a := New(shape...)
	shape[1] = cb
	b := New(shape...)
	par.For(n, func(i int) {
		copy(a.Data[i*ca*vol:(i+1)*ca*vol], x.Data[i*c*vol:i*c*vol+ca*vol])
		copy(b.Data[i*cb*vol:(i+1)*cb*vol], x.Data[i*c*vol+ca*vol:(i+1)*c*vol])
	})
	return a, b
}

// SoftmaxChannels applies a numerically-stable softmax across the channel
// dimension of an N×C×spatial tensor, producing per-position class
// probabilities in a tensor of x's shape.
func SoftmaxChannels(x *Tensor) *Tensor {
	n, c, hw := x.Shape[0], x.Shape[1], Numel(x.Shape[2:])
	out := New(x.Shape...)
	par.For(n*hw, func(j int) {
		img := j / hw
		pix := j % hw
		base := img * c * hw
		// Max for stability.
		m := x.Data[base+pix]
		for ch := 1; ch < c; ch++ {
			v := x.Data[base+ch*hw+pix]
			if v > m {
				m = v
			}
		}
		var sum float32
		for ch := 0; ch < c; ch++ {
			e := expf(x.Data[base+ch*hw+pix] - m)
			out.Data[base+ch*hw+pix] = e
			sum += e
		}
		inv := 1 / sum
		for ch := 0; ch < c; ch++ {
			out.Data[base+ch*hw+pix] *= inv
		}
	})
	return out
}

// ArgmaxChannels returns, for every spatial position of an N×C×spatial
// tensor, the index of the maximum channel — the predicted class map,
// flattened to [N·spatial].
func ArgmaxChannels(x *Tensor) []uint8 {
	n, c, hw := x.Shape[0], x.Shape[1], Numel(x.Shape[2:])
	out := make([]uint8, n*hw)
	par.For(n*hw, func(j int) {
		img := j / hw
		pix := j % hw
		base := img * c * hw
		best := x.Data[base+pix]
		bi := 0
		for ch := 1; ch < c; ch++ {
			v := x.Data[base+ch*hw+pix]
			if v > best {
				best = v
				bi = ch
			}
		}
		out[j] = uint8(bi)
	})
	return out
}
