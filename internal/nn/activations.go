package nn

import (
	"fmt"
	"math/rand"

	"seneca/internal/par"
	"seneca/internal/tensor"
)

// ReLU is the rectified linear activation used after every batch-norm in the
// SENECA encoder/decoder stacks.
type ReLU struct {
	LayerName string
	lastMask  []bool
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.LayerName }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	var mask []bool
	if train {
		mask = make([]bool, len(x.Data))
	}
	par.ForChunked(len(x.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := x.Data[i]
			if v > 0 {
				out.Data[i] = v
				if mask != nil {
					mask[i] = true
				}
			}
		}
	})
	if train {
		r.lastMask = mask
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.lastMask == nil {
		panic(fmt.Sprintf("nn: %s Backward before Forward(train=true)", r.LayerName))
	}
	out := tensor.New(grad.Shape...)
	par.ForChunked(len(grad.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if r.lastMask[i] {
				out.Data[i] = grad.Data[i]
			}
		}
	})
	// Release the cached mask: inference after training must not pin
	// training-batch-sized buffers.
	r.lastMask = nil
	return out
}

// MaxPool2D is 2×2/stride-2 max pooling (the only pooling geometry the
// SENECA encoder uses) over NCHW tensors, and 2×2×2 pooling over NCDHW ones
// (the 3D baseline's encoder).
type MaxPool2D struct {
	LayerName string
	lastArg   []int32
	lastShape []int
}

// NewMaxPool2D constructs a 2×2 max-pooling layer.
func NewMaxPool2D(name string) *MaxPool2D { return &MaxPool2D{LayerName: name} }

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.LayerName }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out, arg := tensor.MaxPool2x2(x)
	if train {
		m.lastArg, m.lastShape = arg, x.Shape
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.lastArg == nil {
		panic(fmt.Sprintf("nn: %s Backward before Forward(train=true)", m.LayerName))
	}
	out := tensor.MaxUnpool(grad, m.lastArg, m.lastShape)
	m.lastArg, m.lastShape = nil, nil
	return out
}

// Dropout zeroes a random fraction Rate of activations during training and
// rescales survivors by 1/(1-Rate); it is the identity at inference and is
// removed entirely by the quantizer/compiler (paper Section III-D).
type Dropout struct {
	LayerName string
	Rate      float32
	rng       *rand.Rand
	lastMask  []float32
}

// NewDropout constructs a dropout layer with the given drop rate and a
// deterministic per-layer random stream.
func NewDropout(name string, rate float32, seed int64) *Dropout {
	return &Dropout{LayerName: name, Rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.LayerName }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.Rate <= 0 {
		d.lastMask = nil
		return x
	}
	keep := 1 - d.Rate
	scale := 1 / keep
	mask := make([]float32, len(x.Data))
	// Mask generation is intentionally serial: it consumes the layer's
	// deterministic random stream in index order so runs are reproducible
	// regardless of worker count.
	for i := range mask {
		if d.rng.Float32() < keep {
			mask[i] = scale
		}
	}
	out := tensor.New(x.Shape...)
	par.ForChunked(len(x.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = x.Data[i] * mask[i]
		}
	})
	d.lastMask = mask
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.lastMask == nil {
		return grad
	}
	out := tensor.New(grad.Shape...)
	par.ForChunked(len(grad.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = grad.Data[i] * d.lastMask[i]
		}
	})
	d.lastMask = nil
	return out
}

// Softmax applies a per-position softmax across the channels of an NCHW or
// NCDHW tensor, producing the six probability maps of the output head.
type Softmax struct {
	LayerName string
	lastOut   *tensor.Tensor
}

// NewSoftmax constructs a channel softmax layer.
func NewSoftmax(name string) *Softmax { return &Softmax{LayerName: name} }

// Name implements Layer.
func (s *Softmax) Name() string { return s.LayerName }

// Params implements Layer.
func (s *Softmax) Params() []*Param { return nil }

// Forward implements Layer.
func (s *Softmax) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.SoftmaxChannels(x)
	if train {
		s.lastOut = out
	}
	return out
}

// Backward implements Layer: dL/dz_i = p_i (dL/dp_i − Σ_j p_j dL/dp_j).
func (s *Softmax) Backward(grad *tensor.Tensor) *tensor.Tensor {
	p := s.lastOut
	if p == nil {
		panic(fmt.Sprintf("nn: %s Backward before Forward(train=true)", s.LayerName))
	}
	n, c, hw := p.Shape[0], p.Shape[1], tensor.Numel(p.Shape[2:])
	out := tensor.New(p.Shape...)
	par.For(n*hw, func(j int) {
		img := j / hw
		pix := j % hw
		base := img * c * hw
		var dot float32
		for ch := 0; ch < c; ch++ {
			idx := base + ch*hw + pix
			dot += p.Data[idx] * grad.Data[idx]
		}
		for ch := 0; ch < c; ch++ {
			idx := base + ch*hw + pix
			out.Data[idx] = p.Data[idx] * (grad.Data[idx] - dot)
		}
	})
	s.lastOut = nil
	return out
}
