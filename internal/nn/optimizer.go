package nn

import (
	"math"

	"seneca/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba), the optimizer used to
// train the SENECA FP32 models.
type Adam struct {
	Rate    float32
	Beta1   float32
	Beta2   float32
	Eps     float32
	t       int
	moments map[*Param]*adamState
}

type adamState struct {
	m, v *tensor.Tensor
}

// NewAdam constructs an Adam optimizer with the standard defaults
// (β1=0.9, β2=0.999, ε=1e-7, matching TensorFlow 2's defaults).
func NewAdam(lr float32) *Adam {
	return &Adam{Rate: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-7, moments: make(map[*Param]*adamState)}
}

// Step applies one update to every parameter and zeroes the gradients.
func (a *Adam) Step(params []*Param) {
	a.t++
	b1c := 1 - tensor.Powf(a.Beta1, float32(a.t))
	b2c := 1 - tensor.Powf(a.Beta2, float32(a.t))
	for _, p := range params {
		st, ok := a.moments[p]
		if !ok {
			st = &adamState{m: tensor.New(p.Value.Shape...), v: tensor.New(p.Value.Shape...)}
			a.moments[p] = st
		}
		g := p.Grad.Data
		m := st.m.Data
		v := st.v.Data
		w := p.Value.Data
		lr := a.Rate
		for i := range g {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g[i]
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g[i]*g[i]
			mhat := m[i] / b1c
			vhat := v[i] / b2c
			w[i] -= lr * mhat / (tensor.Sqrtf(vhat) + a.Eps)
		}
		p.ZeroGrad()
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm; it returns the pre-clip norm. Stabilizes early U-Net
// training with the focal Tversky loss.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		n := p.Grad.L2Norm()
		sq += n * n
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		s := float32(maxNorm / norm)
		for _, p := range params {
			p.Grad.Scale(s)
		}
	}
	return norm
}
