package graph

import (
	"fmt"

	"seneca/internal/tensor"
)

// Forward runs the FP32 reference executor on a single CHW image and
// returns the output tensor. It is used as the calibration executor by the
// quantizer and as the accuracy reference for INT8 comparisons. If tap is
// non-nil it is invoked with every node's output (activation observation).
func (g *Graph) Forward(img *tensor.Tensor, tap func(node *Node, out *tensor.Tensor)) (*tensor.Tensor, error) {
	if img.Rank() != 3 || img.Shape[0] != g.InC || img.Shape[1] != g.InH || img.Shape[2] != g.InW {
		return nil, fmt.Errorf("graph: input shape %v, want [%d %d %d]", img.Shape, g.InC, g.InH, g.InW)
	}
	acts := make(map[string]*tensor.Tensor, len(g.Nodes))
	for _, n := range g.Nodes {
		var out *tensor.Tensor
		switch n.Kind {
		case KindInput:
			out = img
		case KindConv:
			out = convForward(n, acts[n.Inputs[0]])
		case KindConvTranspose:
			out = convTransposeForward(n, acts[n.Inputs[0]])
		case KindBatchNorm:
			out = bnForward(n, acts[n.Inputs[0]])
		case KindReLU:
			out = acts[n.Inputs[0]].Clone()
			out.Apply(func(v float32) float32 {
				if v < 0 {
					return 0
				}
				return v
			})
		case KindMaxPool:
			in := acts[n.Inputs[0]]
			p, _ := tensor.MaxPool2x2(in.Reshape(1, in.Shape[0], in.Shape[1], in.Shape[2]))
			out = p.Reshape(p.Shape[1], p.Shape[2], p.Shape[3])
		case KindConcat:
			a, b := acts[n.Inputs[0]], acts[n.Inputs[1]]
			cc := tensor.ConcatChannels(
				a.Reshape(1, a.Shape[0], a.Shape[1], a.Shape[2]),
				b.Reshape(1, b.Shape[0], b.Shape[1], b.Shape[2]))
			out = cc.Reshape(cc.Shape[1], cc.Shape[2], cc.Shape[3])
		case KindDropout:
			out = acts[n.Inputs[0]] // identity at inference
		case KindSoftmax:
			in := acts[n.Inputs[0]]
			s := tensor.SoftmaxChannels(in.Reshape(1, in.Shape[0], in.Shape[1], in.Shape[2]))
			out = s.Reshape(s.Shape[1], s.Shape[2], s.Shape[3])
		default:
			return nil, fmt.Errorf("graph: unsupported node kind %s", n.Kind)
		}
		if n.FusedReLU && n.Kind != KindReLU {
			out.Apply(func(v float32) float32 {
				if v < 0 {
					return 0
				}
				return v
			})
		}
		acts[n.Name] = out
		if tap != nil {
			tap(n, out)
		}
	}
	return acts[g.OutputName], nil
}

func convForward(n *Node, x *tensor.Tensor) *tensor.Tensor {
	g := tensor.NewConv(1, n.InC, n.OutC, x.Shape[1:], n.Kernel, n.Stride, n.Pad)
	out := tensor.New(n.OutC, g.Y[1], g.Y[2])
	g.Forward(out.Data, x.Data, n.Weight.Data, n.Bias)
	return out
}

func convTransposeForward(n *Node, x *tensor.Tensor) *tensor.Tensor {
	g := tensor.NewConvTranspose(1, n.OutC, n.InC, x.Shape[1:], n.Kernel, n.Stride, n.Pad, n.OutPad)
	out := tensor.New(n.OutC, g.X[1], g.X[2])
	g.Adjoint(out.Data, x.Data, n.Weight.Data, n.Bias)
	return out
}

func bnForward(n *Node, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	c := x.Shape[0]
	hw := x.Shape[1] * x.Shape[2]
	for ch := 0; ch < c; ch++ {
		s, b := n.Scale[ch], n.Shift[ch]
		src := x.Data[ch*hw : (ch+1)*hw]
		dst := out.Data[ch*hw : (ch+1)*hw]
		for i, v := range src {
			dst[i] = v*s + b
		}
	}
	return out
}
