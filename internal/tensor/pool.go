package tensor

import (
	"fmt"

	"seneca/internal/par"
)

// MaxPool2x2 applies 2×2 max pooling with stride 2 to an NCHW tensor whose
// spatial dimensions are even. It returns the pooled tensor and the argmax
// index (into the input's H*W plane) chosen for every output element, which
// the backward pass uses to route gradients.
func MaxPool2x2(x *Tensor) (*Tensor, []int32) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("tensor: MaxPool2x2 requires even spatial dims, got %v", x.Shape))
	}
	oh, ow := h/2, w/2
	out := New(n, c, oh, ow)
	arg := make([]int32, n*c*oh*ow)
	planes := n * c
	par.For(planes, func(p int) {
		src := x.Data[p*h*w : (p+1)*h*w]
		dst := out.Data[p*oh*ow : (p+1)*oh*ow]
		adst := arg[p*oh*ow : (p+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				iy, ix := oy*2, ox*2
				best := src[iy*w+ix]
				bestIdx := int32(iy*w + ix)
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						idx := (iy+dy)*w + ix + dx
						if src[idx] > best {
							best = src[idx]
							bestIdx = int32(idx)
						}
					}
				}
				dst[oy*ow+ox] = best
				adst[oy*ow+ox] = bestIdx
			}
		}
	})
	return out, arg
}

// MaxPool2x2Backward scatters the pooled gradient grad (N,C,H/2,W/2) back to
// the input shape (N,C,H,W) using the argmax indices from MaxPool2x2.
func MaxPool2x2Backward(grad *Tensor, arg []int32, h, w int) *Tensor {
	n, c, oh, ow := grad.Shape[0], grad.Shape[1], grad.Shape[2], grad.Shape[3]
	out := New(n, c, h, w)
	planes := n * c
	par.For(planes, func(p int) {
		gsrc := grad.Data[p*oh*ow : (p+1)*oh*ow]
		asrc := arg[p*oh*ow : (p+1)*oh*ow]
		dst := out.Data[p*h*w : (p+1)*h*w]
		for i, g := range gsrc {
			dst[asrc[i]] += g
		}
	})
	return out
}

// ConcatChannels concatenates two NCHW tensors along the channel dimension.
// Batch and spatial dimensions must match.
func ConcatChannels(a, b *Tensor) *Tensor {
	if a.Shape[0] != b.Shape[0] || a.Shape[2] != b.Shape[2] || a.Shape[3] != b.Shape[3] {
		panic(fmt.Sprintf("tensor: ConcatChannels shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	n, ca, cb := a.Shape[0], a.Shape[1], b.Shape[1]
	h, w := a.Shape[2], a.Shape[3]
	out := New(n, ca+cb, h, w)
	hw := h * w
	par.For(n, func(i int) {
		copy(out.Data[i*(ca+cb)*hw:], a.Data[i*ca*hw:(i+1)*ca*hw])
		copy(out.Data[i*(ca+cb)*hw+ca*hw:], b.Data[i*cb*hw:(i+1)*cb*hw])
	})
	return out
}

// SplitChannels is the inverse of ConcatChannels: it splits an NCHW tensor
// into the first ca channels and the remaining channels.
func SplitChannels(x *Tensor, ca int) (*Tensor, *Tensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ca <= 0 || ca >= c {
		panic(fmt.Sprintf("tensor: SplitChannels split %d out of range for %d channels", ca, c))
	}
	cb := c - ca
	a := New(n, ca, h, w)
	b := New(n, cb, h, w)
	hw := h * w
	par.For(n, func(i int) {
		copy(a.Data[i*ca*hw:(i+1)*ca*hw], x.Data[i*c*hw:i*c*hw+ca*hw])
		copy(b.Data[i*cb*hw:(i+1)*cb*hw], x.Data[i*c*hw+ca*hw:(i+1)*c*hw])
	})
	return a, b
}

// SoftmaxChannels applies a numerically-stable softmax across the channel
// dimension of an NCHW tensor, producing per-pixel class probabilities.
func SoftmaxChannels(x *Tensor) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := New(n, c, h, w)
	hw := h * w
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

// ArgmaxChannels returns, for every pixel of an NCHW tensor, the index of
// the maximum channel — the predicted class map, shaped [N, H*W].
func ArgmaxChannels(x *Tensor) []uint8 {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	hw := h * w
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
