package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"seneca/internal/tensor"
)

// randomProbs builds a valid probability tensor (softmax of random logits)
// and a random label map.
func randomProbs(rng *rand.Rand, n, c, h, w int) (*tensor.Tensor, []uint8) {
	logits := tensor.New(n, c, h, w)
	for i := range logits.Data {
		logits.Data[i] = float32(rng.NormFloat64())
	}
	labels := make([]uint8, n*h*w)
	for i := range labels {
		labels[i] = uint8(rng.Intn(c))
	}
	return tensor.SoftmaxChannels(logits), labels
}

func uniformWeights(c int) []float32 {
	w := make([]float32, c)
	for i := range w {
		w[i] = 1
	}
	return w
}

func TestFocalTverskyPerfectPredictionIsNearZero(t *testing.T) {
	// One-hot probabilities equal to the ground truth → TI=1 per class →
	// loss ≈ 0.
	n, c, h, w := 1, 3, 4, 4
	labels := make([]uint8, n*h*w)
	for i := range labels {
		labels[i] = uint8(i % c)
	}
	probs := tensor.New(n, c, h, w)
	hw := h * w
	for j, lab := range labels {
		probs.Data[int(lab)*hw+j] = 1
	}
	ft := NewFocalTversky(uniformWeights(c))
	loss := ft.Forward(probs, labels)
	if loss > 1e-3 {
		t.Fatalf("perfect prediction loss = %v, want ≈0", loss)
	}
}

func TestFocalTverskyWorstPredictionIsNearOne(t *testing.T) {
	// All mass on the wrong class → TI≈0 → loss ≈ 1.
	n, c, h, w := 1, 2, 4, 4
	labels := make([]uint8, n*h*w) // all class 0
	probs := tensor.New(n, c, h, w)
	hw := h * w
	for j := 0; j < hw; j++ {
		probs.Data[1*hw+j] = 1 // predict class 1 everywhere
	}
	ft := NewFocalTversky(uniformWeights(c))
	ft.Smooth = 1e-4
	loss := ft.Forward(probs, labels)
	if loss < 0.9 {
		t.Fatalf("worst prediction loss = %v, want ≈1", loss)
	}
}

func TestFocalTverskyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ft := NewFocalTversky(uniformWeights(4))
	for trial := 0; trial < 30; trial++ {
		probs, labels := randomProbs(rng, 2, 4, 6, 6)
		loss := ft.Forward(probs, labels)
		if loss < 0 || loss > 1 {
			t.Fatalf("loss %v out of [0,1]", loss)
		}
	}
}

func TestFocalTverskyGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, c, h, w := 1, 3, 3, 3
	probs, labels := randomProbs(rng, n, c, h, w)
	weights := []float32{0.5, 1.5, 1.0}
	ft := NewFocalTversky(weights)

	ft.Forward(probs, labels)
	grad := ft.Backward()

	const eps = 1e-3
	for idx := 0; idx < probs.Len(); idx += 5 {
		orig := probs.Data[idx]
		probs.Data[idx] = orig + eps
		lp := ft.Forward(probs, labels)
		probs.Data[idx] = orig - eps
		lm := ft.Forward(probs, labels)
		probs.Data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		got := float64(grad.Data[idx])
		scale := math.Max(1e-3, math.Max(math.Abs(numeric), math.Abs(got)))
		if math.Abs(numeric-got)/scale > 3e-2 {
			t.Fatalf("grad[%d]: analytic %v vs numeric %v", idx, got, numeric)
		}
	}
	// Restore cache consistency after probing.
	ft.Forward(probs, labels)
}

func TestFocalTverskyWeightsSteerLoss(t *testing.T) {
	// Misclassifying only class 1 must hurt more when class 1's weight is
	// larger — the mechanism the paper uses against class imbalance.
	n, c, h, w := 1, 2, 4, 4
	labels := make([]uint8, n*h*w)
	for i := 8; i < 16; i++ {
		labels[i] = 1
	}
	hw := h * w
	probs := tensor.New(n, c, h, w)
	for j := 0; j < hw; j++ {
		probs.Data[j] = 1 // predict class 0 everywhere: class 1 fully missed
	}
	low := NewFocalTversky([]float32{1, 0.5})
	high := NewFocalTversky([]float32{1, 4})
	if l, h2 := low.Forward(probs, labels), high.Forward(probs, labels); h2 <= l {
		t.Fatalf("higher class weight should raise loss: low=%v high=%v", l, h2)
	}
}

func TestCrossEntropyGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	probs, labels := randomProbs(rng, 1, 3, 3, 3)
	ce := &CrossEntropy{}
	ce.Forward(probs, labels)
	grad := ce.Backward()
	const eps = 1e-4
	for idx := 0; idx < probs.Len(); idx += 4 {
		orig := probs.Data[idx]
		probs.Data[idx] = orig + eps
		lp := ce.Forward(probs, labels)
		probs.Data[idx] = orig - eps
		lm := ce.Forward(probs, labels)
		probs.Data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		got := float64(grad.Data[idx])
		scale := math.Max(1e-3, math.Max(math.Abs(numeric), math.Abs(got)))
		if math.Abs(numeric-got)/scale > 3e-2 {
			t.Fatalf("grad[%d]: analytic %v vs numeric %v", idx, got, numeric)
		}
	}
}

// TestLossesRefuseWrongLabelLength hands each loss a label map one pixel
// short and one pixel long: both must panic naming the two lengths, rather
// than read past the map or leave its tail unread.
func TestLossesRefuseWrongLabelLength(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	probs, labels := randomProbs(rng, 2, 3, 3, 3)
	for _, loss := range []Loss{&CrossEntropy{}, NewFocalTversky(uniformWeights(3))} {
		for _, n := range []int{len(labels) - 1, len(labels) + 1} {
			func() {
				defer func() {
					want := fmt.Sprintf("labels length %d, want %d", n, len(labels))
					if r, _ := recover().(string); !strings.Contains(r, want) {
						t.Errorf("%s with %d labels: panic %q, want one containing %q", loss.Name(), n, r, want)
					}
				}()
				loss.Forward(probs, make([]uint8, n))
			}()
		}
	}
}

func TestDiceLossIsTverskyHalfHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	probs, labels := randomProbs(rng, 1, 4, 4, 4)
	d := NewDiceLoss(4)
	ft := &FocalTversky{Alpha: 0.5, Beta: 0.5, Gamma: 1, Weights: uniformWeights(4), Smooth: 1}
	if got, want := d.Forward(probs, labels), ft.Forward(probs, labels); math.Abs(got-want) > 1e-9 {
		t.Fatalf("dice %v != tversky(0.5,0.5) %v", got, want)
	}
}

func TestInverseFrequencyWeights(t *testing.T) {
	// Background 60%, liver 22%, bladder 2.5%: bladder weight must dominate.
	freq := []float64{0.60, 0.2218, 0.0251}
	w := InverseFrequencyWeightsPow(freq, 0.1, 1) // the raw inverse
	if !(w[2] > w[1] && w[1] > w[0]) {
		t.Fatalf("weights not inversely ordered: %v", w)
	}
	// Mean-normalized.
	var sum float32
	for _, v := range w {
		sum += v
	}
	if math.Abs(float64(sum)/float64(len(w))-1) > 1e-5 {
		t.Fatalf("weights not mean-normalized: %v", w)
	}
}

func TestFocalTverskyGammaFocusesHardExamples(t *testing.T) {
	// For the same moderately-bad prediction, γ>1 shrinks the loss less for
	// hard cases relative to easy ones; concretely loss(γ=4/3) <
	// loss(γ=1) when 1−S < 1 (both in [0,1], power > 1 reduces value) —
	// verify the relationship that pushes training toward hard examples:
	// gradient magnitude near S→1 vanishes faster for γ>1.
	rng := rand.New(rand.NewSource(5))
	probs, labels := randomProbs(rng, 1, 3, 4, 4)
	g1 := &FocalTversky{Alpha: 0.7, Beta: 0.3, Gamma: 1, Weights: uniformWeights(3), Smooth: 1}
	g43 := NewFocalTversky(uniformWeights(3))
	l1 := g1.Forward(probs, labels)
	l43 := g43.Forward(probs, labels)
	if l1 <= 0 || l43 <= 0 {
		t.Skip("degenerate random prediction")
	}
	if !(l43 < l1) {
		t.Fatalf("γ=4/3 loss %v should be below γ=1 loss %v for 1−S<1", l43, l1)
	}
}

func TestFocalTverskyLossInUnitIntervalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		probs, labels := randomProbs(r, 1, 3, 4, 4)
		w := []float32{float32(rng.Float64()) + 0.1, float32(rng.Float64()) + 0.1, float32(rng.Float64()) + 0.1}
		ft := NewFocalTversky(w)
		loss := ft.Forward(probs, labels)
		return loss >= 0 && loss <= 1 && !math.IsNaN(loss)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
