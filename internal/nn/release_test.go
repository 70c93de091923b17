package nn

import (
	"math/rand"
	"testing"

	"seneca/internal/tensor"
)

// TestBackwardReleasesActivationCaches is the regression test for the
// training-memory leak: every layer cached its forward activations for the
// backward pass and kept them alive indefinitely afterwards, so a model held
// for inference after training pinned a full training batch per layer. After
// Backward the caches must be gone, and inference-mode forwards must not
// repopulate them.
func TestBackwardReleasesActivationCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, c, h, w = 2, 4, 8, 8
	x := tensor.New(n, c, h, w)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}

	conv := NewConv("conv", 2, c, c, 3, 1, 1, rng, nil)
	dconv := NewConvTranspose2D("dconv", c, c, 3, 2, 1, 1, rng, nil)
	bn := NewBatchNorm2D("bn", c)
	relu := NewReLU("relu")
	pool := NewMaxPool2D("pool")
	drop := NewDropout("drop", 0.3, 1)
	soft := NewSoftmax("soft")

	out := conv.Forward(x, true)
	out = bn.Forward(out, true)
	out = relu.Forward(out, true)
	out = drop.Forward(out, true)
	out = pool.Forward(out, true)
	out = dconv.Forward(out, true)
	out = soft.Forward(out, true)

	grad := tensor.New(out.Shape...)
	for i := range grad.Data {
		grad.Data[i] = float32(rng.NormFloat64())
	}
	g := soft.Backward(grad)
	g = dconv.Backward(g)
	g = pool.Backward(g)
	g = drop.Backward(g)
	g = relu.Backward(g)
	g = bn.Backward(g)
	conv.Backward(g)

	assertReleased := func(name string, gone bool) {
		t.Helper()
		if !gone {
			t.Errorf("%s still holds its forward-pass cache after Backward", name)
		}
	}
	assertReleased("Conv", conv.lastInput == nil)
	assertReleased("ConvTranspose2D", dconv.lastInput == nil)
	assertReleased("BatchNorm2D", bn.lastXHat == nil && bn.lastInvStd == nil)
	assertReleased("ReLU", relu.lastMask == nil)
	assertReleased("MaxPool2D", pool.lastArg == nil)
	assertReleased("Dropout", drop.lastMask == nil)
	assertReleased("Softmax", soft.lastOut == nil)

	// Inference-only forwards after training must not repopulate any cache.
	out = conv.Forward(x, false)
	out = bn.Forward(out, false)
	out = relu.Forward(out, false)
	out = drop.Forward(out, false)
	out = pool.Forward(out, false)
	out = dconv.Forward(out, false)
	soft.Forward(out, false)

	assertReleased("Conv (inference)", conv.lastInput == nil)
	assertReleased("ConvTranspose2D (inference)", dconv.lastInput == nil)
	assertReleased("BatchNorm2D (inference)", bn.lastXHat == nil)
	assertReleased("ReLU (inference)", relu.lastMask == nil)
	assertReleased("MaxPool2D (inference)", pool.lastArg == nil)
	assertReleased("Dropout (inference)", drop.lastMask == nil)
	assertReleased("Softmax (inference)", soft.lastOut == nil)
}
