package unet3d

import (
	"fmt"
	"math/rand"

	"seneca/internal/nn"
	"seneca/internal/tensor"
)

// Config selects a 3D U-Net architecture.
type Config struct {
	Name        string
	Depth       int // encoder stacks
	BaseFilters int
	InChannels  int
	NumClasses  int
	Seed        int64
}

// CTORGBaseline returns a compact configuration in the spirit of the
// CT-ORG reference network [17]: a 3D U-Net applied to downsampled whole
// volumes.
func CTORGBaseline() Config {
	return Config{Name: "3d-unet", Depth: 2, BaseFilters: 8, InChannels: 1, NumClasses: 6, Seed: 1}
}

type encoder3d struct {
	blockA, blockB *nn.ConvBlock
	pool           *nn.MaxPool2D // pools every spatial axis: 2×2×2 here
}

type decoder3d struct {
	up             *Upsample3D
	mix            *nn.Conv // channel-halving 1×1×1 after upsample ("up-conv")
	blockA, blockB *nn.ConvBlock
	skipC          int
}

// Model is a trainable 3D U-Net over NCDHW volumes.
type Model struct {
	Cfg      Config
	encoders []*encoder3d
	bottom   [2]*nn.ConvBlock
	decoders []*decoder3d
	head     *nn.Conv
	softmax  *nn.Softmax
	params   []*nn.Param
}

// New builds the model.
func New(cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg}
	f := func(level int) int { return cfg.BaseFilters << level }

	inC := cfg.InChannels
	for i := 0; i < cfg.Depth; i++ {
		e := &encoder3d{
			blockA: nn.NewConvBlock(fmt.Sprintf("e%d.a", i), 3, inC, f(i), rng),
			blockB: nn.NewConvBlock(fmt.Sprintf("e%d.b", i), 3, f(i), f(i), rng),
			pool:   nn.NewMaxPool2D(fmt.Sprintf("e%d.pool", i)),
		}
		m.encoders = append(m.encoders, e)
		inC = f(i)
	}
	fb := f(cfg.Depth)
	m.bottom[0] = nn.NewConvBlock("bottom.a", 3, inC, fb, rng)
	m.bottom[1] = nn.NewConvBlock("bottom.b", 3, fb, fb, rng)
	upC := fb
	for i := cfg.Depth - 1; i >= 0; i-- {
		d := &decoder3d{
			up:     NewUpsample3D(fmt.Sprintf("d%d.up", i)),
			mix:    nn.NewConv(fmt.Sprintf("d%d.mix", i), 3, upC, f(i), 1, 1, 0, rng, nil),
			blockA: nn.NewConvBlock(fmt.Sprintf("d%d.a", i), 3, 2*f(i), f(i), rng),
			blockB: nn.NewConvBlock(fmt.Sprintf("d%d.b", i), 3, f(i), f(i), rng),
			skipC:  f(i),
		}
		m.decoders = append(m.decoders, d)
		upC = f(i)
	}
	m.head = nn.NewConv("head", 3, upC, cfg.NumClasses, 1, 1, 0, rng, nil)
	m.softmax = nn.NewSoftmax("softmax")

	for _, e := range m.encoders {
		m.params = append(m.params, e.blockA.Params()...)
		m.params = append(m.params, e.blockB.Params()...)
	}
	m.params = append(m.params, m.bottom[0].Params()...)
	m.params = append(m.params, m.bottom[1].Params()...)
	for _, d := range m.decoders {
		m.params = append(m.params, d.mix.Params()...)
		m.params = append(m.params, d.blockA.Params()...)
		m.params = append(m.params, d.blockB.Params()...)
	}
	m.params = append(m.params, m.head.Params()...)
	return m
}

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param { return m.params }

// ParamCount returns the scalar parameter count.
func (m *Model) ParamCount() int {
	n := 0
	for _, p := range m.params {
		n += p.Numel()
	}
	return n
}

// Forward maps an NCDHW volume batch to per-voxel class probabilities.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 5 || x.Shape[1] != m.Cfg.InChannels {
		panic(fmt.Sprintf("unet3d: input %v", x.Shape))
	}
	h := x
	// The skips live only as long as this call (see unet.Model.Forward).
	skips := make([]*tensor.Tensor, len(m.encoders))
	for i, e := range m.encoders {
		h = e.blockA.Forward(h, train)
		h = e.blockB.Forward(h, train)
		skips[i] = h
		h = e.pool.Forward(h, train)
	}
	h = m.bottom[0].Forward(h, train)
	h = m.bottom[1].Forward(h, train)
	for i, d := range m.decoders {
		h = d.up.Forward(h, train)
		h = d.mix.Forward(h, train)
		h = tensor.ConcatChannels(skips[len(skips)-1-i], h)
		h = d.blockA.Forward(h, train)
		h = d.blockB.Forward(h, train)
	}
	return m.softmax.Forward(m.head.Forward(h, train), train)
}

// Backward propagates dLoss/dProbs and accumulates gradients.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := m.head.Backward(m.softmax.Backward(grad))
	skipGrads := make([]*tensor.Tensor, len(m.encoders))
	for i := len(m.decoders) - 1; i >= 0; i-- {
		d := m.decoders[i]
		g = d.blockB.Backward(g)
		g = d.blockA.Backward(g)
		skipG, upG := tensor.SplitChannels(g, d.skipC)
		skipGrads[len(m.encoders)-1-i] = skipG
		g = d.mix.Backward(upG)
		g = d.up.Backward(g)
	}
	g = m.bottom[1].Backward(g)
	g = m.bottom[0].Backward(g)
	for i := len(m.encoders) - 1; i >= 0; i-- {
		e := m.encoders[i]
		g = e.pool.Backward(g)
		g.AddInPlace(skipGrads[i])
		g = e.blockB.Backward(g)
		g = e.blockA.Backward(g)
	}
	return g
}

// Predict returns per-voxel argmax classes, flattened to [N*D*H*W].
func (m *Model) Predict(x *tensor.Tensor) []uint8 {
	return tensor.ArgmaxChannels(m.Forward(x, false))
}
