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

// block3d is conv3d→BN→ReLU (batch norm reuses the 2D implementation via a
// flattened spatial view).
type block3d struct {
	conv *Conv3D
	bn   *nn.BatchNorm2D
	relu *nn.ReLU
}

func newBlock3d(name string, inC, outC int, rng *rand.Rand) *block3d {
	return &block3d{
		conv: NewConv3D(name+".conv", inC, outC, 3, 1, 1, rng),
		bn:   nn.NewBatchNorm2D(name+".bn", outC),
		relu: nn.NewReLU(name + ".relu"),
	}
}

func (b *block3d) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := b.conv.Forward(x, train)
	d, h, w := y.Shape[2], y.Shape[3], y.Shape[4]
	y = b.bn.Forward(flatten5D(y), train)
	y = b.relu.Forward(y, train)
	return unflatten5D(y, d, h, w)
}

func (b *block3d) backward(g *tensor.Tensor) *tensor.Tensor {
	d, h, w := g.Shape[2], g.Shape[3], g.Shape[4]
	gg := b.relu.Backward(flatten5D(g))
	gg = b.bn.Backward(gg)
	return b.conv.Backward(unflatten5D(gg, d, h, w))
}

func (b *block3d) params() []*nn.Param {
	out := append([]*nn.Param(nil), b.conv.Params()...)
	return append(out, b.bn.Params()...)
}

type encoder3d struct {
	blockA, blockB *block3d
	pool           *MaxPool3D
}

type decoder3d struct {
	up             *Upsample3D
	mix            *Conv3D // channel-halving 1×1×1 after upsample ("up-conv")
	blockA, blockB *block3d
	skipC          int
}

// Model is a trainable 3D U-Net over NCDHW volumes.
type Model struct {
	Cfg      Config
	encoders []*encoder3d
	bottom   [2]*block3d
	decoders []*decoder3d
	head     *Conv3D
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
			blockA: newBlock3d(fmt.Sprintf("e%d.a", i), inC, f(i), rng),
			blockB: newBlock3d(fmt.Sprintf("e%d.b", i), f(i), f(i), rng),
			pool:   NewMaxPool3D(fmt.Sprintf("e%d.pool", i)),
		}
		m.encoders = append(m.encoders, e)
		inC = f(i)
	}
	fb := f(cfg.Depth)
	m.bottom[0] = newBlock3d("bottom.a", inC, fb, rng)
	m.bottom[1] = newBlock3d("bottom.b", fb, fb, rng)
	upC := fb
	for i := cfg.Depth - 1; i >= 0; i-- {
		d := &decoder3d{
			up:     NewUpsample3D(fmt.Sprintf("d%d.up", i)),
			mix:    NewConv3D(fmt.Sprintf("d%d.mix", i), upC, f(i), 1, 1, 0, rng),
			blockA: newBlock3d(fmt.Sprintf("d%d.a", i), 2*f(i), f(i), rng),
			blockB: newBlock3d(fmt.Sprintf("d%d.b", i), f(i), f(i), rng),
			skipC:  f(i),
		}
		m.decoders = append(m.decoders, d)
		upC = f(i)
	}
	m.head = NewConv3D("head", upC, cfg.NumClasses, 1, 1, 0, rng)
	m.softmax = nn.NewSoftmax("softmax")

	for _, e := range m.encoders {
		m.params = append(m.params, e.blockA.params()...)
		m.params = append(m.params, e.blockB.params()...)
	}
	m.params = append(m.params, m.bottom[0].params()...)
	m.params = append(m.params, m.bottom[1].params()...)
	for _, d := range m.decoders {
		m.params = append(m.params, d.mix.Params()...)
		m.params = append(m.params, d.blockA.params()...)
		m.params = append(m.params, d.blockB.params()...)
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
		h = e.blockA.forward(h, train)
		h = e.blockB.forward(h, train)
		skips[i] = h
		h = e.pool.Forward(h, train)
	}
	h = m.bottom[0].forward(h, train)
	h = m.bottom[1].forward(h, train)
	for i, d := range m.decoders {
		h = d.up.Forward(h, train)
		h = d.mix.Forward(h, train)
		h = concat3d(skips[len(skips)-1-i], h)
		h = d.blockA.forward(h, train)
		h = d.blockB.forward(h, train)
	}
	h = m.head.Forward(h, train)
	dd, hh, ww := h.Shape[2], h.Shape[3], h.Shape[4]
	return unflatten5D(m.softmax.Forward(flatten5D(h), train), dd, hh, ww)
}

// Backward propagates dLoss/dProbs and accumulates gradients.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d0, h0, w0 := grad.Shape[2], grad.Shape[3], grad.Shape[4]
	g := unflatten5D(m.softmax.Backward(flatten5D(grad)), d0, h0, w0)
	g = m.head.Backward(g)
	skipGrads := make([]*tensor.Tensor, len(m.encoders))
	for i := len(m.decoders) - 1; i >= 0; i-- {
		d := m.decoders[i]
		g = d.blockB.backward(g)
		g = d.blockA.backward(g)
		skipG, upG := split3d(g, d.skipC)
		skipGrads[len(m.encoders)-1-i] = skipG
		g = d.mix.Backward(upG)
		g = d.up.Backward(g)
	}
	g = m.bottom[1].backward(g)
	g = m.bottom[0].backward(g)
	for i := len(m.encoders) - 1; i >= 0; i-- {
		e := m.encoders[i]
		g = e.pool.Backward(g)
		g.AddInPlace(skipGrads[i])
		g = e.blockB.backward(g)
		g = e.blockA.backward(g)
	}
	return g
}

// Predict returns per-voxel argmax classes, flattened to [N*D*H*W].
func (m *Model) Predict(x *tensor.Tensor) []uint8 {
	p := m.Forward(x, false)
	return tensor.ArgmaxChannels(flatten5D(p))
}

// concat3d concatenates along channels; both NCDHW.
func concat3d(a, b *tensor.Tensor) *tensor.Tensor {
	d, h, w := a.Shape[2], a.Shape[3], a.Shape[4]
	cat := tensor.ConcatChannels(flatten5D(a), flatten5D(b))
	return unflatten5D(cat, d, h, w)
}

// split3d splits a channel concat back into its two parts.
func split3d(x *tensor.Tensor, ca int) (*tensor.Tensor, *tensor.Tensor) {
	d, h, w := x.Shape[2], x.Shape[3], x.Shape[4]
	a, b := tensor.SplitChannels(flatten5D(x), ca)
	return unflatten5D(a, d, h, w), unflatten5D(b, d, h, w)
}
