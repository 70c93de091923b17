package nn

import (
	"fmt"
	"math/rand"

	"seneca/internal/tensor"
)

// Conv is a convolution over 2 or 3 spatial axes: NCHW tensors with weights
// [Cout, Cin, K, K] at 2 axes (the SENECA U-Net) and NCDHW tensors with
// weights [Cout, Cin, K, K, K] at 3 (the CT-ORG 3D baseline). SENECA uses
// 3×3 kernels with stride 1 and "same" padding everywhere except the
// compiler-generated fused variants.
type Conv struct {
	LayerName    string
	InC, OutC    int
	Kernel       int
	Stride       int
	Pad          int
	Weight, Bias *Param
	axes         int
	lastInput    *tensor.Tensor
}

// NewConv constructs a convolution over axes spatial axes (2 or 3) and
// initializes its weights with init (He-normal when nil).
func NewConv(name string, axes, inC, outC, kernel, stride, pad int, rng *rand.Rand, init Initializer) *Conv {
	shape, k := []int{outC, inC}, 1
	for range axes {
		shape, k = append(shape, kernel), k*kernel
	}
	c := &Conv{
		LayerName: name,
		InC:       inC, OutC: outC,
		Kernel: kernel, Stride: stride, Pad: pad,
		Weight: NewParam(name+".weight", shape...),
		Bias:   NewParam(name+".bias", outC),
		axes:   axes,
	}
	if init == nil {
		init = HeNormal{}
	}
	init.Init(rng, c.Weight, inC*k, outC*k)
	return c
}

// Name implements Layer.
func (c *Conv) Name() string { return c.LayerName }

// Params implements Layer.
func (c *Conv) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// geometry lowers the convolution of x through tensor.Conv.
func (c *Conv) geometry(x *tensor.Tensor) tensor.Conv {
	if x.Rank() != 2+c.axes || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: %s expects %d input channels and %d spatial axes, got %v", c.LayerName, c.InC, c.axes, x.Shape))
	}
	return tensor.NewConv(x.Shape[0], c.InC, c.OutC, x.Shape[2:], c.Kernel, c.Stride, c.Pad)
}

// Forward implements Layer.
func (c *Conv) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.geometry(x)
	out := tensor.New(append([]int{g.N, g.YC}, g.Y[3-c.axes:]...)...)
	g.Forward(out.Data, x.Data, c.Weight.Value.Data, c.Bias.Value.Data)
	if train {
		c.lastInput = x
	}
	return out
}

// Backward implements Layer. The column matrix is recomputed image by
// image, which is cheaper in memory than caching N of them in Forward.
func (c *Conv) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	if x == nil {
		panic(fmt.Sprintf("nn: %s Backward before Forward(train=true)", c.LayerName))
	}
	gradIn := tensor.New(x.Shape...)
	c.geometry(x).Backward(gradIn.Data, c.Weight.Grad.Data, c.Bias.Grad.Data, x.Data, c.Weight.Value.Data, grad.Data)
	// Release the cached batch: a model kept for inference after training
	// must not pin its last training input in memory.
	c.lastInput = nil
	return gradIn
}

// ConvTranspose2D is a fractionally-strided convolution used by the U-Net
// decoder for 2× upsampling (3×3 kernel, stride 2, pad 1, output padding 1).
// Weights are shaped [Cin, Cout, KH, KW].
type ConvTranspose2D struct {
	LayerName    string
	InC, OutC    int
	Kernel       int
	Stride       int
	Pad          int
	OutPad       int
	Weight, Bias *Param
	lastInput    *tensor.Tensor
}

// NewConvTranspose2D constructs a transpose-convolution layer.
func NewConvTranspose2D(name string, inC, outC, kernel, stride, pad, outPad int, rng *rand.Rand, init Initializer) *ConvTranspose2D {
	c := &ConvTranspose2D{
		LayerName: name,
		InC:       inC, OutC: outC,
		Kernel: kernel, Stride: stride, Pad: pad, OutPad: outPad,
		Weight: NewParam(name+".weight", inC, outC, kernel, kernel),
		Bias:   NewParam(name+".bias", outC),
	}
	if init == nil {
		init = HeNormal{}
	}
	fanIn := inC * kernel * kernel
	fanOut := outC * kernel * kernel
	init.Init(rng, c.Weight, fanIn, fanOut)
	return c
}

// Name implements Layer.
func (c *ConvTranspose2D) Name() string { return c.LayerName }

// Params implements Layer.
func (c *ConvTranspose2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// geometry lowers the transpose convolution of x through tensor.Conv, as
// the adjoint of a convolution whose output side is x.
func (c *ConvTranspose2D) geometry(x *tensor.Tensor) tensor.Conv {
	if x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: %s expects %d input channels, got %v", c.LayerName, c.InC, x.Shape))
	}
	return tensor.NewConvTranspose(x.Shape[0], c.OutC, c.InC, x.Shape[2:], c.Kernel, c.Stride, c.Pad, c.OutPad)
}

// Forward implements Layer. A transpose convolution is the adjoint of a
// convolution: cols = Wᵀ·x followed by a col2im scatter into the (larger)
// output image.
func (c *ConvTranspose2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.geometry(x)
	out := tensor.New(g.N, g.XC, g.X[1], g.X[2])
	g.Adjoint(out.Data, x.Data, c.Weight.Value.Data, c.Bias.Value.Data)
	if train {
		c.lastInput = x
	}
	return out
}

// Backward implements Layer. The gradient w.r.t. the input of a transpose
// convolution is an ordinary convolution of the output gradient with the
// same weights; the weight gradient mirrors Conv's with the roles of input
// and output exchanged.
func (c *ConvTranspose2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	if x == nil {
		panic(fmt.Sprintf("nn: %s Backward before Forward(train=true)", c.LayerName))
	}
	gradIn := tensor.New(x.Shape...)
	c.geometry(x).AdjointBackward(gradIn.Data, c.Weight.Grad.Data, c.Bias.Grad.Data, x.Data, c.Weight.Value.Data, grad.Data)
	c.lastInput = nil
	return gradIn
}

// ConvBlock is conv→BN→ReLU, the repeated unit of every stack of both
// U-Nets: a 3×3 convolution at stride 1 and "same" padding over axes spatial
// axes, batch-norm and a ReLU, named name+".conv", ".bn" and ".relu".
type ConvBlock struct {
	Conv *Conv
	BN   *BatchNorm2D
	ReLU *ReLU
}

// NewConvBlock draws the convolution's weights from rng.
func NewConvBlock(name string, axes, inC, outC int, rng *rand.Rand) *ConvBlock {
	return &ConvBlock{
		Conv: NewConv(name+".conv", axes, inC, outC, 3, 1, 1, rng, nil),
		BN:   NewBatchNorm2D(name+".bn", outC),
		ReLU: NewReLU(name + ".relu"),
	}
}

func (b *ConvBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return b.ReLU.Forward(b.BN.Forward(b.Conv.Forward(x, train), train), train)
}

func (b *ConvBlock) Backward(g *tensor.Tensor) *tensor.Tensor {
	return b.Conv.Backward(b.BN.Backward(b.ReLU.Backward(g)))
}

// Layers is the block's three layers in order; Params their parameters.
func (b *ConvBlock) Layers() []Layer { return []Layer{b.Conv, b.BN, b.ReLU} }

func (b *ConvBlock) Params() []*Param { return append(b.Conv.Params(), b.BN.Params()...) }
