// Package unet builds the SENECA 2D U-Net models of paper Table II and runs
// their training-time forward/backward passes, including the encoder/decoder
// skip connections of Section III-B.
//
// Each encoder stack is two 3×3 convolutions (batch-norm + ReLU after each),
// doubling the filter count going downward, followed by 2×2 max pooling and
// dropout. Each decoder stack mirrors it with a 3×3 stride-2 transpose
// convolution for upsampling and a concatenation with the matching encoder
// feature map, halving the filter count. The head is a 3×3 convolution to
// NumClasses probability maps through a softmax; predictions are the
// per-pixel argmax.
package unet

import (
	"fmt"
	"math/rand"
	"strings"

	"seneca/internal/nn"
	"seneca/internal/tensor"
)

// Config selects one of the Table II model configurations.
type Config struct {
	// Name labels the configuration ("1M" … "16M").
	Name string
	// Depth is the number of encoder stacks; the paper's "layers" count is
	// 2·Depth+1 (encoders + bottleneck + decoders): 9 → Depth 4, 11 → Depth 5.
	Depth int
	// BaseFilters is the filter count of the first encoder stack ("Filters"
	// column of Table II); deeper stacks double it.
	BaseFilters int
	// InChannels is 1 for gray-scale CT slices.
	InChannels int
	// NumClasses is 6: five organs + background.
	NumClasses int
	// DropoutRate is applied after every encoder pool and decoder stack.
	DropoutRate float32
	// Seed drives weight initialization and dropout masks.
	Seed int64
}

// Layers returns the paper's "Layers" figure for this configuration.
func (c Config) Layers() int { return 2*c.Depth + 1 }

// TableII returns the five model configurations evaluated in the paper
// (Table II): 1M (9 layers, 8 filters), 2M (11, 6), 4M (11, 8), 8M (11, 11)
// and 16M (11, 16).
func TableII() []Config {
	base := Config{InChannels: 1, NumClasses: 6, DropoutRate: 0.1, Seed: 1}
	mk := func(name string, depth, filters int) Config {
		c := base
		c.Name = name
		c.Depth = depth
		c.BaseFilters = filters
		return c
	}
	return []Config{
		mk("1M", 4, 8),
		mk("2M", 5, 6),
		mk("4M", 5, 8),
		mk("8M", 5, 11),
		mk("16M", 5, 16),
	}
}

// ConfigByName returns the Table II configuration with the given name.
func ConfigByName(name string) (Config, error) {
	for _, c := range TableII() {
		if strings.EqualFold(c.Name, name) {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("unet: unknown configuration %q (want 1M, 2M, 4M, 8M or 16M)", name)
}

// encoderStack is two conv blocks, a pool and dropout; its pre-pool
// activation is the skip connection.
type encoderStack struct {
	blockA, blockB *nn.ConvBlock
	pool           *nn.MaxPool2D
	drop           *nn.Dropout
}

// decoderStack is the transpose-conv upsample, skip concat, two conv blocks
// and dropout.
type decoderStack struct {
	up             *nn.ConvTranspose2D
	blockA, blockB *nn.ConvBlock
	drop           *nn.Dropout
	skipChannels   int
}

// Model is a trainable SENECA U-Net.
type Model struct {
	Cfg        Config
	encoders   []*encoderStack
	bottleneck [2]*nn.ConvBlock
	decoders   []*decoderStack
	head       *nn.Conv
	softmax    *nn.Softmax
	params     []*nn.Param
	layers     []nn.Layer
}

// maxWidth bounds a configuration's input channels and its widest layer, the
// bottleneck's BaseFilters<<Depth channels, as xmodel bounds a loaded node's.
const maxWidth = 1 << 16

// validate names the first field of c that New cannot build from.
func (c Config) validate() error {
	switch {
	case c.Depth < 1:
		return fmt.Errorf("unet: invalid depth %d", c.Depth)
	case c.BaseFilters < 1 || c.BaseFilters > maxWidth>>c.Depth:
		return fmt.Errorf("unet: invalid base filters %d at depth %d (bottleneck over %d channels)", c.BaseFilters, c.Depth, maxWidth)
	case c.InChannels < 1 || c.InChannels > maxWidth:
		return fmt.Errorf("unet: invalid input channels %d", c.InChannels)
	case c.NumClasses < 2 || c.NumClasses > 256:
		return fmt.Errorf("unet: invalid class count %d (masks are uint8)", c.NumClasses)
	}
	return nil
}

// paramCount is New(c).ParamCount() in closed form, for a valid c.
func paramCount(c Config) int {
	conv := func(in, out int) int { return 9*in*out + out }         // 3×3 weights, bias
	block := func(in, out int) int { return conv(in, out) + 2*out } // batch-norm γ, β
	n, in := 0, c.InChannels
	for i := 0; i <= c.Depth; i++ { // encoders, then the bottleneck
		f := c.BaseFilters << i
		n += block(in, f) + block(f, f)
		in = f
	}
	for i := c.Depth - 1; i >= 0; i-- { // decoders: upsample from 2f, concat to 2f
		f := c.BaseFilters << i
		n += conv(2*f, f) + block(2*f, f) + block(f, f)
	}
	return n + conv(c.BaseFilters, c.NumClasses)
}

// New builds a model for the given configuration with deterministic
// initialization.
func New(cfg Config) *Model {
	if err := cfg.validate(); err != nil {
		panic(err.Error())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg}

	filters := func(level int) int { return cfg.BaseFilters << level }

	inC := cfg.InChannels
	for i := 0; i < cfg.Depth; i++ {
		f := filters(i)
		e := &encoderStack{
			blockA: nn.NewConvBlock(fmt.Sprintf("enc%d.a", i), 2, inC, f, rng),
			blockB: nn.NewConvBlock(fmt.Sprintf("enc%d.b", i), 2, f, f, rng),
			pool:   nn.NewMaxPool2D(fmt.Sprintf("enc%d.pool", i)),
			drop:   nn.NewDropout(fmt.Sprintf("enc%d.drop", i), cfg.DropoutRate, cfg.Seed+int64(i)*7919),
		}
		m.encoders = append(m.encoders, e)
		inC = f
	}
	fb := filters(cfg.Depth)
	m.bottleneck[0] = nn.NewConvBlock("bottleneck.a", 2, inC, fb, rng)
	m.bottleneck[1] = nn.NewConvBlock("bottleneck.b", 2, fb, fb, rng)

	upC := fb
	for i := cfg.Depth - 1; i >= 0; i-- {
		f := filters(i)
		d := &decoderStack{
			up:           nn.NewConvTranspose2D(fmt.Sprintf("dec%d.up", i), upC, f, 3, 2, 1, 1, rng, nil),
			blockA:       nn.NewConvBlock(fmt.Sprintf("dec%d.a", i), 2, 2*f, f, rng),
			blockB:       nn.NewConvBlock(fmt.Sprintf("dec%d.b", i), 2, f, f, rng),
			drop:         nn.NewDropout(fmt.Sprintf("dec%d.drop", i), cfg.DropoutRate, cfg.Seed+int64(i)*104729),
			skipChannels: f,
		}
		m.decoders = append(m.decoders, d)
		upC = f
	}
	m.head = nn.NewConv("head.conv", 2, upC, cfg.NumClasses, 3, 1, 1, rng, nil)
	m.softmax = nn.NewSoftmax("head.softmax")

	for _, e := range m.encoders {
		m.layers = append(m.layers, e.blockA.Layers()...)
		m.layers = append(m.layers, e.blockB.Layers()...)
		m.layers = append(m.layers, e.pool, e.drop)
	}
	m.layers = append(m.layers, m.bottleneck[0].Layers()...)
	m.layers = append(m.layers, m.bottleneck[1].Layers()...)
	for _, d := range m.decoders {
		m.layers = append(m.layers, d.up)
		m.layers = append(m.layers, d.blockA.Layers()...)
		m.layers = append(m.layers, d.blockB.Layers()...)
		m.layers = append(m.layers, d.drop)
	}
	m.layers = append(m.layers, m.head, m.softmax)
	for _, l := range m.layers {
		m.params = append(m.params, l.Params()...)
	}
	return m
}

// Params returns every trainable parameter of the model.
func (m *Model) Params() []*nn.Param { return m.params }

// batchNorms returns every batch-norm layer (running statistics live
// outside Params and must be checkpointed separately).
func (m *Model) batchNorms() []*nn.BatchNorm2D {
	var out []*nn.BatchNorm2D
	for _, l := range m.layers {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			out = append(out, bn)
		}
	}
	return out
}

// ParamCount returns the total number of trainable scalars.
func (m *Model) ParamCount() int {
	n := 0
	for _, p := range m.params {
		n += p.Numel()
	}
	return n
}

// MinInputSize returns the smallest square input size the model accepts
// (spatial dims must survive Depth halvings and stay even).
func (m *Model) MinInputSize() int { return 1 << (m.Cfg.Depth + 1) }

// Forward runs the network on an NCHW batch (C must equal InChannels and
// H, W must be divisible by 2^Depth) and returns per-pixel class
// probabilities, shape [N, NumClasses, H, W].
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Shape[1] != m.Cfg.InChannels {
		panic(fmt.Sprintf("unet: input %v, want %d channels", x.Shape, m.Cfg.InChannels))
	}
	if x.Shape[2]%(1<<m.Cfg.Depth) != 0 || x.Shape[3]%(1<<m.Cfg.Depth) != 0 {
		panic(fmt.Sprintf("unet: input %v spatial dims must be divisible by %d", x.Shape, 1<<m.Cfg.Depth))
	}
	h := x
	// The skips live only as long as this call: held on the model, they
	// would pin one activation per level after every forward.
	skips := make([]*tensor.Tensor, len(m.encoders))
	for i, e := range m.encoders {
		h = e.blockA.Forward(h, train)
		h = e.blockB.Forward(h, train)
		skips[i] = h
		h = e.pool.Forward(h, train)
		h = e.drop.Forward(h, train)
	}
	h = m.bottleneck[0].Forward(h, train)
	h = m.bottleneck[1].Forward(h, train)
	for i, d := range m.decoders {
		h = d.up.Forward(h, train)
		h = tensor.ConcatChannels(skips[len(skips)-1-i], h)
		h = d.blockA.Forward(h, train)
		h = d.blockB.Forward(h, train)
		h = d.drop.Forward(h, train)
	}
	h = m.head.Forward(h, train)
	return m.softmax.Forward(h, train)
}

// Backward propagates dLoss/dProbs through the whole network, accumulating
// parameter gradients, and returns dLoss/dInput.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := m.softmax.Backward(grad)
	g = m.head.Backward(g)
	skipGrads := make([]*tensor.Tensor, len(m.encoders))
	for i := len(m.decoders) - 1; i >= 0; i-- {
		d := m.decoders[i]
		g = d.drop.Backward(g)
		g = d.blockB.Backward(g)
		g = d.blockA.Backward(g)
		skipG, upG := tensor.SplitChannels(g, d.skipChannels)
		skipGrads[len(m.encoders)-1-i] = skipG
		g = d.up.Backward(upG)
	}
	g = m.bottleneck[1].Backward(g)
	g = m.bottleneck[0].Backward(g)
	for i := len(m.encoders) - 1; i >= 0; i-- {
		e := m.encoders[i]
		g = e.drop.Backward(g)
		g = e.pool.Backward(g)
		g.AddInPlace(skipGrads[i])
		g = e.blockB.Backward(g)
		g = e.blockA.Backward(g)
	}
	return g
}

// Predict runs inference and returns the per-pixel argmax class map,
// flattened to [N*H*W].
func (m *Model) Predict(x *tensor.Tensor) []uint8 {
	return tensor.ArgmaxChannels(m.Forward(x, false))
}
