package nn

import (
	"math"
	"math/rand"
	"testing"

	"seneca/internal/tensor"
)

// naiveConv3D is the direct reference convolution of one CDHW image.
func naiveConv3D(x, w *tensor.Tensor, stride, pad int) *tensor.Tensor {
	cin, d, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cout, k := w.Shape[0], w.Shape[2]
	od := tensor.ConvOutSize(d, k, stride, pad)
	oh := tensor.ConvOutSize(h, k, stride, pad)
	ow := tensor.ConvOutSize(wd, k, stride, pad)
	out := tensor.New(cout, od, oh, ow)
	for oc := 0; oc < cout; oc++ {
		for oz := 0; oz < od; oz++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float64
					for ic := 0; ic < cin; ic++ {
						for kz := 0; kz < k; kz++ {
							for ky := 0; ky < k; ky++ {
								for kx := 0; kx < k; kx++ {
									iz := oz*stride - pad + kz
									iy := oy*stride - pad + ky
									ix := ox*stride - pad + kx
									if iz < 0 || iz >= d || iy < 0 || iy >= h || ix < 0 || ix >= wd {
										continue
									}
									s += float64(x.Data[((ic*d+iz)*h+iy)*wd+ix]) *
										float64(w.Data[(((oc*cin+ic)*k+kz)*k+ky)*k+kx])
								}
							}
						}
					}
					out.Data[((oc*od+oz)*oh+oy)*ow+ox] = float32(s)
				}
			}
		}
	}
	return out
}

func randomTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// TestConv3DMatchesDirectConv checks the layer at three axes, image by
// image and with its bias, against the direct convolution.
func TestConv3DMatchesDirectConv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, d, h, w, cout, k := 2, 4, 5, 6, 3, 3
	layer := NewConv("c", 3, c, cout, k, 1, 1, rng, nil)
	for i := range layer.Bias.Value.Data {
		layer.Bias.Value.Data[i] = float32(i) - 1
	}
	x := randomTensor(rng, 2, c, d, h, w)
	got := layer.Forward(x, false)
	vol := cout * d * h * w // stride 1, pad 1
	for img := 0; img < 2; img++ {
		want := naiveConv3D(tensor.FromSlice(x.Data[img*c*d*h*w:(img+1)*c*d*h*w], c, d, h, w), layer.Weight.Value, 1, 1)
		for i, v := range want.Data {
			v += layer.Bias.Value.Data[i/(d*h*w)]
			if g := got.Data[img*vol+i]; math.Abs(float64(g-v)) > 1e-4 {
				t.Fatalf("image %d voxel %d: %v vs %v", img, i, g, v)
			}
		}
	}
}

// TestConv3DBackwardIsAdjoint verifies <Forward(x), y> == <x, Backward(y)>
// at zero bias: the input gradient is the adjoint of the convolution.
func TestConv3DBackwardIsAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layer := NewConv("c", 3, 2, 3, 3, 2, 1, rng, nil)
	x := randomTensor(rng, 2, 2, 4, 4, 4)
	fx := layer.Forward(x, true)
	y := randomTensor(rng, fx.Shape...)
	back := layer.Backward(y)
	var lhs, rhs float64
	for i := range fx.Data {
		lhs += float64(fx.Data[i]) * float64(y.Data[i])
	}
	for i := range back.Data {
		rhs += float64(back.Data[i]) * float64(x.Data[i])
	}
	if math.Abs(lhs-rhs) > 1e-3*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestConv3DGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layer := NewConv("c", 3, 2, 2, 3, 1, 1, rng, nil)
	x := tensor.New(1, 2, 4, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	// Linear probe loss L = Σ c·y.
	coef := tensor.New(1, 2, 4, 4, 4)
	for i := range coef.Data {
		coef.Data[i] = float32(rng.NormFloat64())
	}
	value := func() float64 {
		y := layer.Forward(x, true)
		var s float64
		for i := range y.Data {
			s += float64(coef.Data[i]) * float64(y.Data[i])
		}
		return s
	}
	value()
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	gradIn := layer.Backward(coef.Clone())

	const eps = 1e-3
	check := func(name string, data, analytic []float32, idx int) {
		t.Helper()
		orig := data[idx]
		data[idx] = orig + eps
		lp := value()
		data[idx] = orig - eps
		lm := value()
		data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		got := float64(analytic[idx])
		scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(got)))
		if math.Abs(numeric-got)/scale > 2e-2 {
			t.Errorf("%s[%d]: analytic %v vs numeric %v", name, idx, got, numeric)
		}
	}
	for idx := 0; idx < layer.Weight.Numel(); idx += 13 {
		check("weight", layer.Weight.Value.Data, layer.Weight.Grad.Data, idx)
	}
	check("bias", layer.Bias.Value.Data, layer.Bias.Grad.Data, 0)
	for idx := 0; idx < x.Len(); idx += 17 {
		check("input", x.Data, gradIn.Data, idx)
	}
}

func TestMaxPool3DRoundTrip(t *testing.T) {
	x := tensor.New(1, 1, 2, 2, 2)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	p := NewMaxPool2D("p")
	y := p.Forward(x, true)
	if y.Len() != 1 || y.Data[0] != 7 {
		t.Fatalf("pool output %v", y.Data)
	}
	g := tensor.New(1, 1, 1, 1, 1)
	g.Data[0] = 2
	back := p.Backward(g)
	for i, v := range back.Data {
		if i == 7 && v != 2 {
			t.Fatalf("gradient not routed to max: %v", back.Data)
		}
		if i != 7 && v != 0 {
			t.Fatalf("gradient leaked to %d", i)
		}
	}
}
