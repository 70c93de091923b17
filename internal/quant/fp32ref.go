package quant

import (
	"math"

	"seneca/internal/par"
)

// Reference kernels for the FP32-fallback layers of a mixed-precision graph
// (QConfig): plain gather loops, parallel over output channels only, so
// results are bit-identical for any par.SetMaxWorkers setting. INT8 and INT4
// layers both run the micro-kernel (kernels.go) — these layers are search
// candidates, not the deployed steady state, and the DPU timing model prices
// them independently of how fast this host simulation runs.

// convFP32Ref executes an FP32-fallback convolution: the int8 input is
// dequantized on the fly at inFP, the layer computes in float with the
// retained WeightF/BiasF, and the result is requantized onto the int8
// activation grid at outFP.
func convFP32Ref(src []int8, inFP FixPos, inC, inH, inW int, wf, bf []float32, outC, k, stride, pad int, relu bool, outFP FixPos, dst []int8, outH, outW int) {
	hw := outH * outW
	inv, scale := inFP.InvScale(), math.Pow(2, float64(outFP))
	par.For(outC, func(oc int) {
		var b float32
		if oc < len(bf) {
			b = bf[oc]
		}
		wBase := oc * inC * k * k
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				acc := b
				for ic := 0; ic < inC; ic++ {
					plane := ic * inH * inW
					wRow := wBase + ic*k*k
					for ky := 0; ky < k; ky++ {
						iy := oy*stride - pad + ky
						if iy < 0 || iy >= inH {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*stride - pad + kx
							if ix < 0 || ix >= inW {
								continue
							}
							acc += float32(src[plane+iy*inW+ix]) * inv * wf[wRow+ky*k+kx]
						}
					}
				}
				if relu && acc < 0 {
					acc = 0
				}
				dst[oc*hw+oy*outW+ox] = quantizeOne(acc, scale)
			}
		}
	})
}

// convTransposeFP32Ref is convFP32Ref's transpose counterpart (weight
// layout [InC, OutC, K, K], output-centric gather).
func convTransposeFP32Ref(src []int8, inFP FixPos, inC, inH, inW int, wf, bf []float32, outC, k, stride, pad int, relu bool, outFP FixPos, dst []int8, outH, outW int) {
	hw := outH * outW
	kk := k * k
	inv, scale := inFP.InvScale(), math.Pow(2, float64(outFP))
	par.For(outC, func(oc int) {
		var b float32
		if oc < len(bf) {
			b = bf[oc]
		}
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				acc := b
				for ky := 0; ky < k; ky++ {
					ty := oy + pad - ky
					if ty < 0 || ty%stride != 0 {
						continue
					}
					iy := ty / stride
					if iy >= inH {
						continue
					}
					for kx := 0; kx < k; kx++ {
						tx := ox + pad - kx
						if tx < 0 || tx%stride != 0 {
							continue
						}
						ix := tx / stride
						if ix >= inW {
							continue
						}
						at := iy*inW + ix
						for ic := 0; ic < inC; ic++ {
							acc += float32(src[ic*inH*inW+at]) * inv * wf[(ic*outC+oc)*kk+ky*k+kx]
						}
					}
				}
				if relu && acc < 0 {
					acc = 0
				}
				dst[oc*hw+oy*outW+ox] = quantizeOne(acc, scale)
			}
		}
	})
}
