// Package unet3d implements the 3D U-Net baseline the paper compares
// against: the CT-ORG reference network [17] segments whole CT volumes with
// volumetric convolutions. SENECA argues a 2D network is "faster to train
// and requires less memory without losing accuracy" (Section III-B); this
// package makes that comparison measurable by providing a trainable 3D
// counterpart — Conv3D/MaxPool3D/upsampling layers with full backprop —
// that runs on the same phantom volumes and metrics.
package unet3d

import (
	"fmt"
	"math/rand"

	"seneca/internal/nn"
	"seneca/internal/tensor"
)

// Conv3D is a 3D convolution over NCDHW tensors with weights
// [OutC, InC, K, K, K].
type Conv3D struct {
	LayerName           string
	InC, OutC           int
	Kernel, Stride, Pad int
	Weight, Bias        *nn.Param
	lastInput           *tensor.Tensor
}

// NewConv3D constructs a 3D convolution with He-normal initialization.
func NewConv3D(name string, inC, outC, kernel, stride, pad int, rng *rand.Rand) *Conv3D {
	c := &Conv3D{
		LayerName: name, InC: inC, OutC: outC,
		Kernel: kernel, Stride: stride, Pad: pad,
		Weight: nn.NewParam(name+".weight", outC, inC, kernel, kernel, kernel),
		Bias:   nn.NewParam(name+".bias", outC),
	}
	fanIn := inC * kernel * kernel * kernel
	nn.HeNormal{}.Init(rng, c.Weight, fanIn, outC*kernel*kernel*kernel)
	return c
}

// Name implements nn.Layer.
func (c *Conv3D) Name() string { return c.LayerName }

// Params implements nn.Layer.
func (c *Conv3D) Params() []*nn.Param { return []*nn.Param{c.Weight, c.Bias} }

// geometry lowers the convolution of x through tensor.Conv, the one
// lowering the 2D layers share.
func (c *Conv3D) geometry(x *tensor.Tensor) tensor.Conv {
	if x.Shape[1] != c.InC {
		panic(fmt.Sprintf("unet3d: %s expects %d channels, got %v", c.LayerName, c.InC, x.Shape))
	}
	return tensor.NewConv(x.Shape[0], c.InC, c.OutC, x.Shape[2:], c.Kernel, c.Stride, c.Pad)
}

// Forward implements nn.Layer over NCDHW tensors.
func (c *Conv3D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.geometry(x)
	out := tensor.New(g.N, g.YC, g.Y[0], g.Y[1], g.Y[2])
	g.Forward(out.Data, x.Data, c.Weight.Value.Data, c.Bias.Value.Data)
	if train {
		c.lastInput = x
	}
	return out
}

// Backward implements nn.Layer.
func (c *Conv3D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	if x == nil {
		panic(fmt.Sprintf("unet3d: %s Backward before Forward(train=true)", c.LayerName))
	}
	gradIn := tensor.New(x.Shape...)
	c.geometry(x).Backward(gradIn.Data, c.Weight.Grad.Data, c.Bias.Grad.Data, x.Data, c.Weight.Value.Data, grad.Data)
	c.lastInput = nil
	return gradIn
}
