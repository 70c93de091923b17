package unet

import (
	"seneca/internal/graph"
	"seneca/internal/nn"
)

// Export lowers the trained model into the inference-graph IR for the given
// input geometry. Weights and inference-time batch-norm affine parameters
// are deep-copied, so subsequent graph transformations (folding,
// quantization) never mutate the trainable model.
func (m *Model) Export(inH, inW int) *graph.Graph {
	g := graph.New(m.Cfg.InChannels, inH, inW)
	prev := g.InputName

	convNode := func(l *nn.Conv, input string) string {
		return g.Add(&graph.Node{
			Name: l.Name(), Kind: graph.KindConv, Inputs: []string{input},
			Kernel: l.Kernel, Stride: l.Stride, Pad: l.Pad,
			InC: l.InC, OutC: l.OutC,
			Weight: l.Weight.Value.Clone(),
			Bias:   append([]float32(nil), l.Bias.Value.Data...),
		}).Name
	}

	block := func(b *nn.ConvBlock, input string) string {
		cur := convNode(b.Conv, input)
		scale, shift := b.BN.FoldInto()
		bn := g.Add(&graph.Node{
			Name: b.BN.Name(), Kind: graph.KindBatchNorm, Inputs: []string{cur},
			Scale: scale, Shift: shift,
		})
		relu := g.Add(&graph.Node{Name: b.ReLU.Name(), Kind: graph.KindReLU, Inputs: []string{bn.Name}})
		return relu.Name
	}

	skips := make([]string, 0, len(m.encoders))
	for _, e := range m.encoders {
		prev = block(e.blockA, prev)
		prev = block(e.blockB, prev)
		skips = append(skips, prev)
		pool := g.Add(&graph.Node{Name: e.pool.Name(), Kind: graph.KindMaxPool, Inputs: []string{prev}})
		drop := g.Add(&graph.Node{Name: e.drop.Name(), Kind: graph.KindDropout, Inputs: []string{pool.Name}})
		prev = drop.Name
	}
	prev = block(m.bottleneck[0], prev)
	prev = block(m.bottleneck[1], prev)
	for i, d := range m.decoders {
		up := g.Add(&graph.Node{
			Name: d.up.Name(), Kind: graph.KindConvTranspose, Inputs: []string{prev},
			Kernel: d.up.Kernel, Stride: d.up.Stride, Pad: d.up.Pad, OutPad: d.up.OutPad,
			InC: d.up.InC, OutC: d.up.OutC,
			Weight: d.up.Weight.Value.Clone(),
			Bias:   append([]float32(nil), d.up.Bias.Value.Data...),
		})
		skip := skips[len(skips)-1-i]
		cat := g.Add(&graph.Node{
			Name: d.up.Name() + ".concat", Kind: graph.KindConcat,
			Inputs: []string{skip, up.Name},
		})
		prev = cat.Name
		prev = block(d.blockA, prev)
		prev = block(d.blockB, prev)
		drop := g.Add(&graph.Node{Name: d.drop.Name(), Kind: graph.KindDropout, Inputs: []string{prev}})
		prev = drop.Name
	}
	head := convNode(m.head, prev)
	g.Add(&graph.Node{Name: m.softmax.Name(), Kind: graph.KindSoftmax, Inputs: []string{head}})
	if err := g.Validate(); err != nil {
		panic("unet: exported graph invalid: " + err.Error())
	}
	if err := g.InferShapes(); err != nil {
		panic("unet: exported graph shapes: " + err.Error())
	}
	return g
}
