package unet3d

import (
	"math"
	"math/rand"
	"testing"

	"seneca/internal/nn"
	"seneca/internal/tensor"
)

func randomTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
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
		l := loss.Forward(p, labels)
		if step == 0 {
			first = l
		}
		last = l
		g := loss.Backward()
		m.Backward(g)
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
	// that a convolution over 3 axes has 27·InC·OutC+OutC parameters.
	rng := rand.New(rand.NewSource(1))
	c := nn.NewConv("c", 3, 3, 5, 3, 1, 1, rng, nil)
	if got := c.Weight.Numel() + c.Bias.Numel(); got != 27*3*5+5 {
		t.Fatalf("conv3d params %d", got)
	}
}

// TestBackwardReleasesActivationCaches is nn's test on the 3D baseline's
// convolution, pooling and upsampling over NCDHW volumes: after Backward no
// layer holds its forward cache, and an inference forward does not fill it,
// so a second Backward finds nothing to differentiate and panics.
func TestBackwardReleasesActivationCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	conv := nn.NewConv("conv", 3, 2, 2, 3, 1, 1, rng, nil)
	pool := nn.NewMaxPool2D("pool")
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
