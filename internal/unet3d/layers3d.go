// Package unet3d implements the 3D U-Net baseline the paper compares
// against: the CT-ORG reference network [17] segments whole CT volumes with
// volumetric convolutions. SENECA argues a 2D network is "faster to train
// and requires less memory without losing accuracy" (Section III-B); this
// package makes that comparison measurable by providing a trainable 3D
// counterpart that runs on the same phantom volumes and metrics. It is
// built from internal/nn's layers at three spatial axes (convolution, batch
// norm, pooling, softmax); only the nearest-neighbour upsampling of its
// decoder has no 2D twin and lives here.
package unet3d

import (
	"fmt"

	"seneca/internal/nn"
	"seneca/internal/par"
	"seneca/internal/tensor"
)

// Upsample3D doubles every spatial dimension by nearest-neighbor
// replication — the decoder upsampling of the 3D baseline (a transpose
// convolution follows it to mix channels, as in the original 3D U-Net's
// "up-convolution").
type Upsample3D struct {
	LayerName string
	lastShape []int
}

// NewUpsample3D constructs a 2× nearest-neighbor upsampler.
func NewUpsample3D(name string) *Upsample3D { return &Upsample3D{LayerName: name} }

// Name implements nn.Layer.
func (u *Upsample3D) Name() string { return u.LayerName }

// Params implements nn.Layer.
func (u *Upsample3D) Params() []*nn.Param { return nil }

// Forward implements nn.Layer.
func (u *Upsample3D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, d, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3], x.Shape[4]
	od, oh, ow := 2*d, 2*h, 2*w
	out := tensor.New(n, c, od, oh, ow)
	vol := d * h * w
	ovol := od * oh * ow
	par.For(n*c, func(p int) {
		src := x.Data[p*vol : (p+1)*vol]
		dst := out.Data[p*ovol : (p+1)*ovol]
		for z := 0; z < od; z++ {
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					dst[(z*oh+y)*ow+xx] = src[((z/2)*h+y/2)*w+xx/2]
				}
			}
		}
	})
	if train {
		u.lastShape = x.Shape
	}
	return out
}

// Backward implements nn.Layer: gradients of replicated cells sum back.
func (u *Upsample3D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if u.lastShape == nil {
		panic(fmt.Sprintf("unet3d: %s Backward before Forward(train=true)", u.LayerName))
	}
	n, c, d, h, w := u.lastShape[0], u.lastShape[1], u.lastShape[2], u.lastShape[3], u.lastShape[4]
	out := tensor.New(n, c, d, h, w)
	od, oh, ow := 2*d, 2*h, 2*w
	vol := d * h * w
	ovol := od * oh * ow
	par.For(n*c, func(p int) {
		gsrc := grad.Data[p*ovol : (p+1)*ovol]
		dst := out.Data[p*vol : (p+1)*vol]
		for z := 0; z < od; z++ {
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					dst[((z/2)*h+y/2)*w+xx/2] += gsrc[(z*oh+y)*ow+xx]
				}
			}
		}
	})
	u.lastShape = nil
	return out
}
