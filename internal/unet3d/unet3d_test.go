package unet3d

import (
	"math"
	"math/rand"
	"testing"

	"seneca/internal/nn"
	"seneca/internal/tensor"
)

// naiveConv3D is the direct reference for the vol2col path.
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

// TestConv3DMatchesDirectConv checks the layer's lowering, image by image
// and with its bias, against the direct convolution.
func TestConv3DMatchesDirectConv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, d, h, w, cout, k := 2, 4, 5, 6, 3, 3
	layer := NewConv3D("c", c, cout, k, 1, 1, rng)
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
	layer := NewConv3D("c", 2, 3, 3, 2, 1, rng)
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
	layer := NewConv3D("c", 2, 2, 3, 1, 1, rng)
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
	p := NewMaxPool3D("p")
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

func TestUpsample3D(t *testing.T) {
	x := tensor.New(1, 1, 1, 2, 2)
	copy(x.Data, []float32{1, 2, 3, 4})
	u := NewUpsample3D("u")
	y := u.Forward(x, true)
	if y.Shape[2] != 2 || y.Shape[3] != 4 || y.Shape[4] != 4 {
		t.Fatalf("upsample shape %v", y.Shape)
	}
	// Top-left 2×2 block replicates value 1.
	if y.Data[0] != 1 || y.Data[1] != 1 || y.Data[4] != 1 || y.Data[5] != 1 {
		t.Fatalf("replication wrong: %v", y.Data[:8])
	}
	// Backward: gradient of each replicated cell sums (8 copies in 3D).
	g := tensor.New(1, 1, 2, 4, 4)
	g.Fill(1)
	back := u.Backward(g)
	for i, v := range back.Data {
		if v != 8 {
			t.Fatalf("grad[%d] = %v, want 8", i, v)
		}
	}
}

func TestModelForwardShapesAndProbs(t *testing.T) {
	m := New(Config{Name: "t", Depth: 2, BaseFilters: 4, InChannels: 1, NumClasses: 6, Seed: 1})
	x := tensor.New(1, 1, 8, 8, 8)
	rng := rand.New(rand.NewSource(4))
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	p := m.Forward(x, false)
	if p.Shape[1] != 6 || p.Shape[2] != 8 || p.Shape[3] != 8 || p.Shape[4] != 8 {
		t.Fatalf("output shape %v", p.Shape)
	}
	vol := 8 * 8 * 8
	for voxel := 0; voxel < vol; voxel += 37 {
		var s float64
		for c := 0; c < 6; c++ {
			s += float64(p.Data[c*vol+voxel])
		}
		if math.Abs(s-1) > 1e-4 {
			t.Fatalf("voxel %d probabilities sum %v", voxel, s)
		}
	}
}

func TestModel3DLearns(t *testing.T) {
	m := New(Config{Name: "t", Depth: 1, BaseFilters: 4, InChannels: 1, NumClasses: 3, Seed: 2})
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(1, 1, 8, 8, 8)
	labels := make([]uint8, 8*8*8)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64()) * 0.1
	}
	// Bright top half = class 1, dark bottom = class 0, a cube = class 2.
	for z := 0; z < 8; z++ {
		for y := 0; y < 8; y++ {
			for xx := 0; xx < 8; xx++ {
				idx := (z*8+y)*8 + xx
				switch {
				case z >= 2 && z < 5 && y >= 2 && y < 5 && xx >= 2 && xx < 5:
					labels[idx] = 2
					x.Data[idx] += 2
				case y < 4:
					labels[idx] = 1
					x.Data[idx] += 1
				}
			}
		}
	}
	w := []float32{1, 1, 1}
	loss := nn.NewFocalTversky(w)
	opt := nn.NewAdam(5e-3)
	var first, last float64
	for step := 0; step < 15; step++ {
		p := m.Forward(x, true)
		l := loss.Forward(flatten5D(p), labels)
		if step == 0 {
			first = l
		}
		last = l
		g := loss.Backward()
		m.Backward(unflatten5D(g, 8, 8, 8))
		nn.ClipGradNorm(m.Params(), 5)
		opt.Step(m.Params())
	}
	if !(last < first*0.8) {
		t.Fatalf("3D model did not learn: loss %v → %v", first, last)
	}
	pred := m.Predict(x)
	correct := 0
	for i := range pred {
		if pred[i] == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(pred)); acc < 0.7 {
		t.Fatalf("voxel accuracy %.2f after training", acc)
	}
}

func TestParamCountGrowsWithFilters(t *testing.T) {
	small := New(Config{Name: "s", Depth: 2, BaseFilters: 4, InChannels: 1, NumClasses: 6, Seed: 1})
	big := New(Config{Name: "b", Depth: 2, BaseFilters: 8, InChannels: 1, NumClasses: 6, Seed: 1})
	if big.ParamCount() <= small.ParamCount() {
		t.Fatal("parameter count did not grow")
	}
	// 3D kernels are K× larger than 2D ones per filter pair: sanity check
	// that a conv3d layer has 27·InC·OutC+OutC parameters.
	rng := rand.New(rand.NewSource(1))
	c := NewConv3D("c", 3, 5, 3, 1, 1, rng)
	if got := c.Weight.Numel() + c.Bias.Numel(); got != 27*3*5+5 {
		t.Fatalf("conv3d params %d", got)
	}
}

// TestBackwardReleasesActivationCaches is the 3D layers' twin of nn's: after
// Backward no layer holds its forward cache, and an inference forward does
// not fill it, so a second Backward finds nothing to differentiate and
// panics.
func TestBackwardReleasesActivationCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	conv := NewConv3D("conv", 2, 2, 3, 1, 1, rng)
	pool := NewMaxPool3D("pool")
	up := NewUpsample3D("up")
	x := randomTensor(rng, 2, 2, 4, 4, 4)
	y := conv.Forward(x, true)
	p := pool.Forward(y, true)
	u := up.Forward(p, true)
	// Each layer's backward, given a tensor of its output's shape.
	steps := []struct {
		layer nn.Layer
		grad  *tensor.Tensor
	}{{up, randomTensor(rng, u.Shape...)}, {pool, p}, {conv, y}}
	for _, s := range steps {
		s.layer.Backward(s.grad)
	}
	refused := func(when string) {
		t.Helper()
		for _, s := range steps {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s still holds its forward cache %s", s.layer.Name(), when)
					}
				}()
				s.layer.Backward(s.grad)
			}()
		}
	}
	refused("after Backward")
	up.Forward(pool.Forward(conv.Forward(x, false), false), false)
	refused("after an inference Forward")
}
