package nn

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"seneca/internal/tensor"
)

// TestNCDHWMatchesFlattenedView runs every channel-wise layer, loss and
// tensor op on an NCDHW batch and on its NC(D·H)W view of the same data.
// The spatial rank must not change a single float32 bit, and the NCDHW run
// must keep its shape.
func TestNCDHWMatchesFlattenedView(t *testing.T) {
	const n, c, d, h, w = 2, 3, 3, 4, 5
	rng := rand.New(rand.NewSource(21))
	x, gy := randomTensor(rng, n, c, d, h, w), randomTensor(rng, n, c, d, h, w)
	labels := make([]uint8, n*d*h*w)
	for i := range labels {
		labels[i] = uint8(rng.Intn(c))
	}
	weights := []float32{0.5, 1, 2}
	scalar := func(v float64) *tensor.Tensor { return tensor.FromSlice([]float32{float32(v)}, 1) }
	cases := []struct {
		name string
		run  func(x, gy *tensor.Tensor) []*tensor.Tensor
	}{
		{"batch norm", func(x, gy *tensor.Tensor) []*tensor.Tensor {
			bn := NewBatchNorm2D("bn", c)
			y := bn.Forward(x, true)
			gx := bn.Backward(gy)
			return []*tensor.Tensor{y, gx, bn.Gamma.Grad, bn.Beta.Grad, bn.Forward(x, false),
				tensor.FromSlice(bn.RunningMean, c), tensor.FromSlice(bn.RunningVar, c)}
		}},
		{"softmax", func(x, gy *tensor.Tensor) []*tensor.Tensor {
			s := NewSoftmax("s")
			return []*tensor.Tensor{s.Forward(x, true), s.Backward(gy)}
		}},
		{"focal tversky", func(x, _ *tensor.Tensor) []*tensor.Tensor {
			p := tensor.SoftmaxChannels(x)
			l := NewFocalTversky(weights)
			return []*tensor.Tensor{p, scalar(l.Forward(p, labels)), l.Backward()}
		}},
		{"cross entropy", func(x, _ *tensor.Tensor) []*tensor.Tensor {
			p := tensor.SoftmaxChannels(x)
			l := &CrossEntropy{Weights: weights}
			return []*tensor.Tensor{scalar(l.Forward(p, labels)), l.Backward()}
		}},
		{"dice", func(x, _ *tensor.Tensor) []*tensor.Tensor {
			p := tensor.SoftmaxChannels(x)
			l := NewDiceLoss(c)
			return []*tensor.Tensor{scalar(l.Forward(p, labels)), l.Backward()}
		}},
		{"argmax", func(x, _ *tensor.Tensor) []*tensor.Tensor {
			am := tensor.ArgmaxChannels(x)
			out := tensor.New(len(am))
			for i, v := range am {
				out.Data[i] = float32(v)
			}
			return []*tensor.Tensor{out}
		}},
		{"concat and split", func(x, gy *tensor.Tensor) []*tensor.Tensor {
			cat := tensor.ConcatChannels(x, gy)
			a, b := tensor.SplitChannels(cat, 1)
			return []*tensor.Tensor{cat, a, b}
		}},
	}
	flat := func(t *tensor.Tensor) *tensor.Tensor { return t.Reshape(n, c, d*h, w) }
	for _, tc := range cases {
		want, got := tc.run(flat(x), flat(gy)), tc.run(x, gy)
		for i := range want {
			shape := want[i].Shape
			if len(shape) == 4 {
				shape = []int{n, shape[1], d, h, w}
			}
			if !slices.Equal(got[i].Shape, shape) {
				t.Errorf("%s: result %d shaped %v, want %v", tc.name, i, got[i].Shape, shape)
				continue
			}
			for j, v := range want[i].Data {
				if math.Float32bits(got[i].Data[j]) != math.Float32bits(v) {
					t.Errorf("%s: result %d element %d is %v, %v on the flattened view", tc.name, i, j, got[i].Data[j], v)
					break
				}
			}
		}
	}
}

// TestConvRefusesOtherRanks: a convolution over 2 axes takes only NCHW and
// one over 3 only NCDHW, whatever the channel count says.
func TestConvRefusesOtherRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, tc := range []struct {
		axes  int
		shape []int
	}{{2, []int{1, 2, 3, 4, 5}}, {3, []int{1, 2, 4, 5}}} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "spatial axes") {
					t.Errorf("%d-axis convolution of %v: panic %q, want a refusal", tc.axes, tc.shape, r)
				}
			}()
			NewConv("c", tc.axes, 2, 2, 3, 1, 1, rng, nil).Forward(tensor.New(tc.shape...), false)
		}()
	}
}
