package nn

import (
	"math"
	"math/rand"
	"testing"

	"seneca/internal/tensor"
)

// scalarLoss is a fixed random linear functional L(y) = Σ c·y used to turn a
// layer output into a scalar for finite-difference gradient checking.
type scalarLoss struct{ c *tensor.Tensor }

func newScalarLoss(rng *rand.Rand, shape []int) *scalarLoss {
	c := tensor.New(shape...)
	for i := range c.Data {
		c.Data[i] = float32(rng.NormFloat64())
	}
	return &scalarLoss{c: c}
}

func (s *scalarLoss) value(y *tensor.Tensor) float64 {
	var sum float64
	for i := range y.Data {
		sum += float64(s.c.Data[i]) * float64(y.Data[i])
	}
	return sum
}

// grad returns dL/dy = c.
func (s *scalarLoss) grad() *tensor.Tensor { return s.c.Clone() }

// checkGrad compares the analytic gradient of every parameter (and the
// input) against central finite differences (eps = 1e-3, relative error
// against max(1, |analytic|, |numeric|)).
//
// Per-layer tolerances. FP32 forward passes give central differences
// roughly sqrt(machine-eps) ≈ 3e-4 of headroom per accumulation, so the
// tolerance scales with how many values each output (and hence the probed
// derivative) accumulates:
//
//	ReLU, MaxPool, Dropout   1e-2  elementwise / routing only
//	Softmax                  2e-2  one reduction across channels
//	Conv, ConvTranspose2D    2e-2  InC·K² (InC·K³ in 3D) products per output
//	BatchNorm2D              3e-2  batch-wide mean/variance reductions
//
// Kinked or tied values (ReLU at 0, equal pool candidates) are kept away
// from the probe range by construction in each test.
func checkGrad(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))

	forward := func() *tensor.Tensor { return layer.Forward(x, true) }
	y := forward()
	loss := newScalarLoss(rng, y.Shape)

	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	gradIn := layer.Backward(loss.grad())

	const eps = 1e-3
	checkOne := func(name string, data []float32, analytic []float32, idx int) {
		t.Helper()
		orig := data[idx]
		data[idx] = orig + eps
		lp := loss.value(forward())
		data[idx] = orig - eps
		lm := loss.value(forward())
		data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		got := float64(analytic[idx])
		scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(got)))
		if math.Abs(numeric-got)/scale > tol {
			t.Errorf("%s[%d]: analytic %v vs numeric %v", name, idx, got, numeric)
		}
	}

	for _, p := range layer.Params() {
		n := p.Numel()
		stride := n/7 + 1 // probe a handful of entries
		for idx := 0; idx < n; idx += stride {
			checkOne(p.Name, p.Value.Data, p.Grad.Data, idx)
		}
	}
	n := x.Len()
	stride := n/7 + 1
	for idx := 0; idx < n; idx += stride {
		checkOne("input", x.Data, gradIn.Data, idx)
	}
}

func TestConv2DGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewConv("c", 2, 2, 3, 3, 1, 1, rng, nil)
	x := tensor.New(2, 2, 5, 5)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	checkGrad(t, layer, x, 2e-2)
}

func TestConv2DStridedGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layer := NewConv("c", 2, 1, 2, 3, 2, 1, rng, nil)
	x := tensor.New(1, 1, 6, 6)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	checkGrad(t, layer, x, 2e-2)
}

func TestConvTranspose2DGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layer := NewConvTranspose2D("ct", 3, 2, 3, 2, 1, 1, rng, nil)
	x := tensor.New(2, 3, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	checkGrad(t, layer, x, 2e-2)
}

func TestConvTranspose2DStride1Gradient(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	layer := NewConvTranspose2D("ct1", 2, 3, 3, 1, 1, 0, rng, nil)
	x := tensor.New(1, 2, 5, 5)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	checkGrad(t, layer, x, 2e-2)
}

func TestConvTranspose2DNoOutPadGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	layer := NewConvTranspose2D("ct0", 2, 2, 2, 2, 0, 0, rng, nil)
	x := tensor.New(2, 2, 3, 3)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	checkGrad(t, layer, x, 2e-2)
}

func TestBatchNormGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	layer := NewBatchNorm2D("bn", 3)
	x := tensor.New(2, 3, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())*2 + 1
	}
	// Batch-norm's running-stat update makes repeated forwards non-idempotent
	// for the stats but the train-mode output only depends on batch stats,
	// so finite differencing is still valid.
	checkGrad(t, layer, x, 3e-2)
}

func TestBatchNormWarmedAffineGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	layer := NewBatchNorm2D("bnw", 2)
	// Move γ/β off their identity initialization so their gradient terms
	// are exercised with non-trivial values.
	for ch := 0; ch < 2; ch++ {
		layer.Gamma.Value.Data[ch] = 0.5 + float32(ch)
		layer.Beta.Value.Data[ch] = -0.25 * float32(ch+1)
	}
	// Warm the running statistics with a few train-mode passes: the
	// train-mode output still only depends on batch statistics, so finite
	// differencing stays valid, but Backward now runs on a layer whose
	// internal state matches mid-training reality.
	warm := tensor.New(2, 2, 3, 3)
	for pass := 0; pass < 3; pass++ {
		for i := range warm.Data {
			warm.Data[i] = float32(rng.NormFloat64())*3 - 2
		}
		layer.Forward(warm, true)
	}
	x := tensor.New(2, 2, 3, 3)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())*2 + 1
	}
	checkGrad(t, layer, x, 3e-2)
}

func TestReLUGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layer := NewReLU("r")
	x := tensor.New(1, 2, 4, 4)
	for i := range x.Data {
		// Keep values away from the kink where finite differences lie.
		v := float32(rng.NormFloat64())
		if v > -0.05 && v < 0.05 {
			v += 0.2
		}
		x.Data[i] = v
	}
	checkGrad(t, layer, x, 1e-2)
}

func TestMaxPoolGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	layer := NewMaxPool2D("p")
	x := tensor.New(1, 2, 4, 4)
	perm := rng.Perm(len(x.Data))
	for i := range x.Data {
		// Distinct values so the argmax is stable under ±eps probing.
		x.Data[i] = float32(perm[i])
	}
	checkGrad(t, layer, x, 1e-2)
}

func TestMaxPoolNegativeGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	layer := NewMaxPool2D("pn")
	x := tensor.New(2, 1, 6, 6)
	perm := rng.Perm(len(x.Data))
	for i := range x.Data {
		// All-negative distinct values: the argmax must still route the
		// gradient (a ReLU-style "positive only" shortcut would zero it).
		x.Data[i] = -1 - float32(perm[i])
	}
	checkGrad(t, layer, x, 1e-2)
}

func TestDropoutPassthroughGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// Rate 0 makes train-mode dropout the identity, so repeated forwards
	// are deterministic and the full finite-difference check applies. (At
	// rate > 0 each Forward consumes the layer's random stream, so the
	// mask changes between probes; that path is covered exactly, not
	// numerically, in TestDropoutTrainEval.)
	layer := NewDropout("d0", 0, 15)
	x := tensor.New(1, 2, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	checkGrad(t, layer, x, 1e-2)
}

func TestSoftmaxGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layer := NewSoftmax("s")
	x := tensor.New(1, 4, 3, 3)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	checkGrad(t, layer, x, 2e-2)
}

func TestDropoutTrainEval(t *testing.T) {
	d := NewDropout("d", 0.5, 42)
	x := tensor.New(1, 1, 32, 32)
	x.Fill(1)
	// Eval: identity.
	y := d.Forward(x, false)
	for _, v := range y.Data {
		if v != 1 {
			t.Fatalf("eval dropout must be identity, got %v", v)
		}
	}
	// Train: ~half zeroed, survivors scaled by 2.
	y = d.Forward(x, true)
	var zeros, twos int
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	frac := float64(zeros) / float64(len(y.Data))
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("dropout zero fraction %v, want ≈0.5", frac)
	}
	// Backward routes gradients through the same mask with the same
	// 1/(1-rate) scale: dL/dx = dL/dy · mask exactly.
	g := tensor.New(1, 1, 32, 32)
	g.Fill(1)
	gi := d.Backward(g)
	for i := range gi.Data {
		if gi.Data[i] != y.Data[i] {
			t.Fatalf("backward[%d] = %v, want mask value %v", i, gi.Data[i], y.Data[i])
		}
	}
	// After an eval forward the mask is cleared and Backward is the
	// identity — the inference-mode passthrough contract.
	d.Forward(x, false)
	gi = d.Backward(g)
	for i := range gi.Data {
		if gi.Data[i] != 1 {
			t.Fatalf("eval backward[%d] = %v, want 1", i, gi.Data[i])
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)² with Adam; gradient = 2(w-3).
	p := NewParam("w", 1)
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - 3)
		opt.Step([]*Param{p})
	}
	if math.Abs(float64(p.Value.Data[0])-3) > 1e-2 {
		t.Fatalf("Adam converged to %v, want 3", p.Value.Data[0])
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", 2)
	p.Grad.Data[0] = 3
	p.Grad.Data[1] = 4
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-5 {
		t.Fatalf("pre-clip norm %v, want 5", norm)
	}
	var sq float64
	for _, g := range p.Grad.Data {
		sq += float64(g) * float64(g)
	}
	if math.Abs(math.Sqrt(sq)-1) > 1e-4 {
		t.Fatalf("post-clip norm %v, want 1", math.Sqrt(sq))
	}
}

func TestHeNormalStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := NewParam("w", 64, 32, 3, 3)
	HeNormal{}.Init(rng, p, 32*9, 64*9)
	var sum, sq float64
	for _, v := range p.Value.Data {
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	n := float64(p.Numel())
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	want := math.Sqrt(2.0 / float64(32*9))
	if math.Abs(mean) > 0.01 {
		t.Fatalf("He init mean %v", mean)
	}
	if math.Abs(std-want)/want > 0.1 {
		t.Fatalf("He init std %v, want %v", std, want)
	}
}

func TestParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	conv := NewConv("c", 2, 4, 8, 3, 1, 1, rng, nil)
	bn := NewBatchNorm2D("b", 8)
	got := ParamCount([]Layer{conv, bn})
	want := 8*4*3*3 + 8 + 8 + 8
	if got != want {
		t.Fatalf("ParamCount = %d, want %d", got, want)
	}
}
