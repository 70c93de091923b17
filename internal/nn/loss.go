package nn

import (
	"fmt"
	"math"

	"seneca/internal/par"
	"seneca/internal/tensor"
)

// Loss maps per-pixel class probabilities and ground-truth label maps to a
// scalar training loss and its gradient w.r.t. the probabilities.
//
// probs is the softmax output, NCHW or NCDHW; labels is the flat class-index
// map, one label per image and spatial position.
type Loss interface {
	// Forward evaluates the loss and caches what Backward needs.
	Forward(probs *tensor.Tensor, labels []uint8) float64
	// Backward returns dLoss/dProbs for the last Forward call.
	Backward() *tensor.Tensor
	// Name identifies the loss in logs and ablation tables.
	Name() string
}

// FocalTversky is the weighted Focal Tversky loss of paper Eq. (1)–(2):
//
//	FTL_w = (1 − Σ_c w_c·TI_c / Σ_c w_c)^γ
//	TI_c  = Σp·g / (Σp·g + α·Σ(1−p)·g + β·Σp·(1−g))
//
// with α=0.7, β=0.3 (false-negative/false-positive regularization, per [25])
// and γ=4/3 (within the suggested [1,3] range of [26]). Class weights w_c are
// inversely proportional to organ size to counter the CT-ORG class imbalance.
type FocalTversky struct {
	Alpha, Beta, Gamma float32
	// Weights holds one weight per class (including background at index 0).
	Weights []float32
	// Smooth is added to numerator and denominator so classes absent from a
	// batch contribute TI=1 instead of 0/0.
	Smooth float32

	lastProbs  *tensor.Tensor
	lastLabels []uint8
	lastNum    []float64
	lastDen    []float64
	lastS      float64
}

// NewFocalTversky constructs the paper's loss: α=0.7, β=0.3, γ=4/3.
func NewFocalTversky(weights []float32) *FocalTversky {
	return &FocalTversky{Alpha: 0.7, Beta: 0.3, Gamma: 4.0 / 3.0, Weights: weights, Smooth: 1}
}

// Name implements Loss.
func (f *FocalTversky) Name() string { return "focal-tversky" }

// Forward implements Loss.
func (f *FocalTversky) Forward(probs *tensor.Tensor, labels []uint8) float64 {
	n, c, hw := probs.Shape[0], probs.Shape[1], tensor.Numel(probs.Shape[2:])
	if len(labels) != n*hw {
		panic(fmt.Sprintf("nn: focal-tversky labels length %d, want %d", len(labels), n*hw))
	}
	if len(f.Weights) != c {
		panic(fmt.Sprintf("nn: focal-tversky has %d weights for %d classes", len(f.Weights), c))
	}
	num := make([]float64, c)
	den := make([]float64, c)
	alpha := float64(f.Alpha)
	beta := float64(f.Beta)
	// Accumulate per class; parallel over classes since each class scans the
	// full tensor independently.
	par.For(c, func(cls int) {
		var tp, fn, fp float64
		for i := 0; i < n; i++ {
			plane := probs.Data[(i*c+cls)*hw : (i*c+cls+1)*hw]
			lab := labels[i*hw : (i+1)*hw]
			for j, p := range plane {
				pf := float64(p)
				if int(lab[j]) == cls {
					tp += pf
					fn += 1 - pf
				} else {
					fp += pf
				}
			}
		}
		num[cls] = tp
		den[cls] = tp + alpha*fn + beta*fp
	})
	var wsum, s float64
	sm := float64(f.Smooth)
	for cls := 0; cls < c; cls++ {
		wc := float64(f.Weights[cls])
		ti := (num[cls] + sm) / (den[cls] + sm)
		s += wc * ti
		wsum += wc
	}
	s /= wsum
	f.lastProbs = probs
	f.lastLabels = labels
	f.lastNum = num
	f.lastDen = den
	f.lastS = s
	loss := math.Pow(1-s, float64(f.Gamma))
	return loss
}

// Backward implements Loss.
func (f *FocalTversky) Backward() *tensor.Tensor {
	probs := f.lastProbs
	if probs == nil {
		panic("nn: focal-tversky Backward before Forward")
	}
	n, c, hw := probs.Shape[0], probs.Shape[1], tensor.Numel(probs.Shape[2:])
	grad := tensor.New(probs.Shape...)
	var wsum float64
	for _, wc := range f.Weights {
		wsum += float64(wc)
	}
	// dL/dTI_c = −γ(1−S)^{γ−1} · w_c/Σw
	base := -float64(f.Gamma) * math.Pow(1-f.lastS, float64(f.Gamma)-1)
	alpha := float64(f.Alpha)
	beta := float64(f.Beta)
	sm := float64(f.Smooth)
	par.For(c, func(cls int) {
		dTI := base * float64(f.Weights[cls]) / wsum
		numS := f.lastNum[cls] + sm
		denS := f.lastDen[cls] + sm
		inv2 := 1 / (denS * denS)
		for i := 0; i < n; i++ {
			gplane := grad.Data[(i*c+cls)*hw : (i*c+cls+1)*hw]
			lab := f.lastLabels[i*hw : (i+1)*hw]
			for j := range gplane {
				// d num/dp and d den/dp for this pixel/class.
				var dnum, dden float64
				if int(lab[j]) == cls {
					dnum = 1
					dden = 1 - alpha // tp term + α·(1−p) term
				} else {
					dden = beta
				}
				dTIdp := (dnum*denS - numS*dden) * inv2
				gplane[j] = float32(dTI * dTIdp)
			}
		}
	})
	return grad
}

// CrossEntropy is the standard per-pixel negative log-likelihood loss,
// included for the loss-function ablation (paper Section III-C motivates the
// focal Tversky choice against it).
type CrossEntropy struct {
	// Weights optionally re-weights classes; nil means uniform.
	Weights []float32

	lastProbs  *tensor.Tensor
	lastLabels []uint8
}

// Name implements Loss.
func (ce *CrossEntropy) Name() string { return "cross-entropy" }

// Forward implements Loss.
func (ce *CrossEntropy) Forward(probs *tensor.Tensor, labels []uint8) float64 {
	n, c, hw := probs.Shape[0], probs.Shape[1], tensor.Numel(probs.Shape[2:])
	if len(labels) != n*hw {
		panic(fmt.Sprintf("nn: cross-entropy labels length %d, want %d", len(labels), n*hw))
	}
	total := par.ReduceSum(n*hw, func(j int) float64 {
		img := j / hw
		pix := j % hw
		cls := int(labels[j])
		p := float64(probs.Data[(img*c+cls)*hw+pix])
		if p < 1e-12 {
			p = 1e-12
		}
		wc := 1.0
		if ce.Weights != nil {
			wc = float64(ce.Weights[cls])
		}
		return -wc * math.Log(p)
	})
	ce.lastProbs = probs
	ce.lastLabels = labels
	return total / float64(n*hw)
}

// Backward implements Loss.
func (ce *CrossEntropy) Backward() *tensor.Tensor {
	probs := ce.lastProbs
	if probs == nil {
		panic("nn: cross-entropy Backward before Forward")
	}
	n, c, hw := probs.Shape[0], probs.Shape[1], tensor.Numel(probs.Shape[2:])
	grad := tensor.New(probs.Shape...)
	inv := 1 / float64(n*hw)
	par.For(n*hw, func(j int) {
		img := j / hw
		pix := j % hw
		cls := int(ce.lastLabels[j])
		idx := (img*c+cls)*hw + pix
		p := float64(probs.Data[idx])
		if p < 1e-12 {
			p = 1e-12
		}
		wc := 1.0
		if ce.Weights != nil {
			wc = float64(ce.Weights[cls])
		}
		grad.Data[idx] = float32(-wc * inv / p)
	})
	return grad
}

// DiceLoss is 1 − mean soft Dice over classes — the unweighted, non-focal
// special case (α=β=0.5, γ=1, uniform weights) used as an ablation baseline.
type DiceLoss struct {
	ft *FocalTversky
}

// NewDiceLoss constructs the Dice ablation loss for c classes.
func NewDiceLoss(c int) *DiceLoss {
	w := make([]float32, c)
	for i := range w {
		w[i] = 1
	}
	return &DiceLoss{ft: &FocalTversky{Alpha: 0.5, Beta: 0.5, Gamma: 1, Weights: w, Smooth: 1}}
}

// Name implements Loss.
func (d *DiceLoss) Name() string { return "dice" }

// Forward implements Loss.
func (d *DiceLoss) Forward(probs *tensor.Tensor, labels []uint8) float64 {
	return d.ft.Forward(probs, labels)
}

// Backward implements Loss.
func (d *DiceLoss) Backward() *tensor.Tensor { return d.ft.Backward() }

// InverseFrequencyWeightsPow derives the per-class loss weights the paper
// assigns "inversely proportional to the organ dimensions" (Section III-C):
// w_c ∝ freq_c^−pow, normalized so the mean weight is 1. The background class
// (index 0) weight is damped by bgDamp (0 < bgDamp ≤ 1) because background
// dominates every slice yet is easy. pow=1 is the raw inverse; pow≈0.5 keeps
// the ordering (small organs weigh more) while preventing the rarest class
// from monopolizing the loss — necessary for stable training when the class
// imbalance spans two orders of magnitude.
func InverseFrequencyWeightsPow(freq []float64, bgDamp, pow float64) []float32 {
	w := make([]float64, len(freq))
	var sum float64
	for i, f := range freq {
		if f <= 0 {
			f = 1e-6
		}
		w[i] = math.Pow(f, -pow)
		if i == 0 {
			w[i] *= bgDamp
		}
		sum += w[i]
	}
	out := make([]float32, len(freq))
	mean := sum / float64(len(freq))
	for i := range w {
		out[i] = float32(w[i] / mean)
	}
	return out
}
