package nn

import (
	"fmt"

	"seneca/internal/par"
	"seneca/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW or NCDHW tensor over the
// batch and spatial dimensions. At inference the running statistics are
// used; the SENECA compiler folds this layer into the preceding convolution
// before quantization (paper Section III-D/E).
type BatchNorm2D struct {
	LayerName string
	C         int
	Eps       float32
	Momentum  float32

	Gamma, Beta *Param
	RunningMean []float32
	RunningVar  []float32

	// Forward cache for the backward pass.
	lastXHat   *tensor.Tensor
	lastInvStd []float32
	lastShape  []int
}

// NewBatchNorm2D constructs a batch-normalization layer over c channels with
// gamma=1, beta=0, running statistics (0, 1).
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	b := &BatchNorm2D{
		LayerName:   name,
		C:           c,
		Eps:         1e-5,
		Momentum:    0.1,
		Gamma:       NewParam(name+".gamma", c),
		Beta:        NewParam(name+".beta", c),
		RunningMean: make([]float32, c),
		RunningVar:  make([]float32, c),
	}
	b.Gamma.Value.Fill(1)
	for i := range b.RunningVar {
		b.RunningVar[i] = 1
	}
	return b
}

// Name implements Layer.
func (b *BatchNorm2D) Name() string { return b.LayerName }

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// Forward implements Layer.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, hw := x.Shape[0], x.Shape[1], tensor.Numel(x.Shape[2:])
	if c != b.C {
		panic(fmt.Sprintf("nn: %s expects %d channels, got %v", b.LayerName, b.C, x.Shape))
	}
	out := tensor.New(x.Shape...)
	if !train {
		par.For(c, func(ch int) {
			invStd := 1 / tensor.Sqrtf(b.RunningVar[ch]+b.Eps)
			g := b.Gamma.Value.Data[ch] * invStd
			bt := b.Beta.Value.Data[ch] - b.RunningMean[ch]*g
			for i := 0; i < n; i++ {
				src := x.Data[(i*c+ch)*hw : (i*c+ch+1)*hw]
				dst := out.Data[(i*c+ch)*hw : (i*c+ch+1)*hw]
				for j, v := range src {
					dst[j] = v*g + bt
				}
			}
		})
		return out
	}

	xhat := tensor.New(x.Shape...)
	invStds := make([]float32, c)
	cnt := float32(n * hw)
	par.For(c, func(ch int) {
		var sum float64
		for i := 0; i < n; i++ {
			src := x.Data[(i*c+ch)*hw : (i*c+ch+1)*hw]
			for _, v := range src {
				sum += float64(v)
			}
		}
		mean := float32(sum / float64(cnt))
		var vsum float64
		for i := 0; i < n; i++ {
			src := x.Data[(i*c+ch)*hw : (i*c+ch+1)*hw]
			for _, v := range src {
				d := float64(v - mean)
				vsum += d * d
			}
		}
		variance := float32(vsum / float64(cnt))
		invStd := 1 / tensor.Sqrtf(variance+b.Eps)
		invStds[ch] = invStd
		b.RunningMean[ch] = (1-b.Momentum)*b.RunningMean[ch] + b.Momentum*mean
		b.RunningVar[ch] = (1-b.Momentum)*b.RunningVar[ch] + b.Momentum*variance
		g := b.Gamma.Value.Data[ch]
		bt := b.Beta.Value.Data[ch]
		for i := 0; i < n; i++ {
			src := x.Data[(i*c+ch)*hw : (i*c+ch+1)*hw]
			xh := xhat.Data[(i*c+ch)*hw : (i*c+ch+1)*hw]
			dst := out.Data[(i*c+ch)*hw : (i*c+ch+1)*hw]
			for j, v := range src {
				nv := (v - mean) * invStd
				xh[j] = nv
				dst[j] = nv*g + bt
			}
		}
	})
	b.lastXHat = xhat
	b.lastInvStd = invStds
	b.lastShape = x.Shape
	return out
}

// Backward implements Layer using the standard batch-norm gradient:
//
//	dx = gamma·invStd/m · (m·dy − Σdy − x̂·Σ(dy·x̂))
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.lastXHat == nil {
		panic(fmt.Sprintf("nn: %s Backward before Forward(train=true)", b.LayerName))
	}
	n, c, hw := b.lastShape[0], b.lastShape[1], tensor.Numel(b.lastShape[2:])
	m := float32(n * hw)
	gradIn := tensor.New(b.lastShape...)
	par.For(c, func(ch int) {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			gy := grad.Data[(i*c+ch)*hw : (i*c+ch+1)*hw]
			xh := b.lastXHat.Data[(i*c+ch)*hw : (i*c+ch+1)*hw]
			for j, g := range gy {
				sumDy += float64(g)
				sumDyXhat += float64(g * xh[j])
			}
		}
		b.Gamma.Grad.Data[ch] += float32(sumDyXhat)
		b.Beta.Grad.Data[ch] += float32(sumDy)
		gamma := b.Gamma.Value.Data[ch]
		invStd := b.lastInvStd[ch]
		k := gamma * invStd / m
		sDy := float32(sumDy)
		sDyX := float32(sumDyXhat)
		for i := 0; i < n; i++ {
			gy := grad.Data[(i*c+ch)*hw : (i*c+ch+1)*hw]
			xh := b.lastXHat.Data[(i*c+ch)*hw : (i*c+ch+1)*hw]
			dst := gradIn.Data[(i*c+ch)*hw : (i*c+ch+1)*hw]
			for j, g := range gy {
				dst[j] = k * (m*g - sDy - xh[j]*sDyX)
			}
		}
	})
	// Release the cached normalized batch so a trained model held for
	// inference does not pin an N-image tensor.
	b.lastXHat = nil
	b.lastInvStd = nil
	return gradIn
}

// FoldInto returns the effective per-channel scale and shift that this layer
// applies at inference time (y = x·scale + shift), used by the compiler to
// fuse batch norm into the preceding convolution.
func (b *BatchNorm2D) FoldInto() (scale, shift []float32) {
	scale = make([]float32, b.C)
	shift = make([]float32, b.C)
	for ch := 0; ch < b.C; ch++ {
		invStd := 1 / tensor.Sqrtf(b.RunningVar[ch]+b.Eps)
		scale[ch] = b.Gamma.Value.Data[ch] * invStd
		shift[ch] = b.Beta.Value.Data[ch] - b.RunningMean[ch]*scale[ch]
	}
	return scale, shift
}
