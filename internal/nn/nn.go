// Package nn implements the neural-network building blocks used by the
// SENECA 2D U-Net (paper Section III-B): convolutions, transpose
// convolutions, batch normalization, ReLU, max pooling, dropout and softmax,
// all with hand-derived backward passes, plus optimizers, initializers and
// the training loss functions of Section III-C. The CT-ORG 3D baseline
// (internal/unet3d) is built from the same layers: every layer but the
// transpose convolution, and every loss, takes NCDHW volumes as well as
// NCHW images.
//
// Layers follow a simple stateful protocol: Forward caches whatever the
// corresponding Backward needs; Backward consumes the gradient w.r.t. the
// layer output and returns the gradient w.r.t. the layer input while
// accumulating parameter gradients. Models (internal/unet) wire layers into
// an explicit graph with skip connections.
package nn

import (
	"math/rand"

	"seneca/internal/tensor"
)

// Param is a trainable tensor together with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter and its gradient buffer with the given
// shape.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Numel returns the number of scalar parameters.
func (p *Param) Numel() int { return p.Value.Len() }

// Layer is the common interface of all network building blocks.
type Layer interface {
	// Forward computes the layer output for x. train selects training
	// behaviour (batch statistics, dropout masks) versus inference.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input), accumulating
	// gradients into the layer's parameters. It must be called after a
	// Forward with train=true on the same input.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// Name identifies the layer in logs, summaries and the compiler.
	Name() string
}

// ParamCount sums the scalar parameter count of a set of layers.
func ParamCount(layers []Layer) int {
	n := 0
	for _, l := range layers {
		for _, p := range l.Params() {
			n += p.Numel()
		}
	}
	return n
}

// Initializer fills parameter tensors at model construction time.
type Initializer interface {
	Init(rng *rand.Rand, p *Param, fanIn, fanOut int)
}

// HeNormal initializes weights from N(0, sqrt(2/fanIn)), the standard choice
// for ReLU networks and the one used for the SENECA U-Net convolutions.
type HeNormal struct{}

// Init implements Initializer.
func (HeNormal) Init(rng *rand.Rand, p *Param, fanIn, fanOut int) {
	std := tensor.Sqrtf(2 / float32(fanIn))
	for i := range p.Value.Data {
		p.Value.Data[i] = float32(rng.NormFloat64()) * std
	}
}

// GlorotUniform initializes weights from U(-a, a) with a = sqrt(6/(fanIn+fanOut)).
type GlorotUniform struct{}

// Init implements Initializer.
func (GlorotUniform) Init(rng *rand.Rand, p *Param, fanIn, fanOut int) {
	a := tensor.Sqrtf(6 / float32(fanIn+fanOut))
	for i := range p.Value.Data {
		p.Value.Data[i] = (float32(rng.Float64())*2 - 1) * a
	}
}
