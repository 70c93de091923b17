package quant

import "seneca/internal/nn"

// QATProjector implements weight fake-quantization for Quantization-Aware
// Training: before every forward pass the FP32 weights are projected onto
// the INT8 grid they will occupy after quantization, and after the backward
// pass the latent FP32 weights are restored so the optimizer updates them —
// the straight-through estimator. The paper evaluates QAT and finds it does
// not improve over PTQ for these models (Section III-D); the ablation
// harness reproduces that comparison.
type QATProjector struct {
	params []*nn.Param
	saved  [][]float32
}

// NewQATProjector wraps the trainable parameters of a model. Only weight
// tensors (rank > 1) are fake-quantized; biases and batch-norm affine
// parameters stay in FP32, as in the Vitis AI QAT flow.
func NewQATProjector(params []*nn.Param) *QATProjector {
	var ws []*nn.Param
	for _, p := range params {
		if p.Value.Rank() > 1 {
			ws = append(ws, p)
		}
	}
	saved := make([][]float32, len(ws))
	for i, p := range ws {
		saved[i] = make([]float32, p.Value.Len())
	}
	return &QATProjector{params: ws, saved: saved}
}

// Project snapshots the latent FP32 weights and overwrites them with their
// quantize-dequantize projection. Call immediately before Forward.
func (qp *QATProjector) Project() {
	for i, p := range qp.params {
		copy(qp.saved[i], p.Value.Data)
		fp := BestFixPos(p.Value.MaxAbs(), Bits8)
		QuantizeDequantize(p.Value.Data, fp)
	}
}

// Restore puts the latent FP32 weights back. Call after Backward, before
// the optimizer step.
func (qp *QATProjector) Restore() {
	for i, p := range qp.params {
		copy(p.Value.Data, qp.saved[i])
	}
}
