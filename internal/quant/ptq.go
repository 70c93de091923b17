package quant

import (
	"fmt"

	"seneca/internal/graph"
	"seneca/internal/tensor"
)

// PTQ performs the full Post-Training Quantization flow of Figure 1(D):
// fold batch norm and drop inference-irrelevant nodes, calibrate activation
// ranges over the (unlabeled) calibration images, and emit the quantized
// graph.
func PTQ(g *graph.Graph, images []*tensor.Tensor, opt Options) (*QGraph, error) {
	folded, err := Fold(g)
	if err != nil {
		return nil, err
	}
	cal, err := Calibrate(folded, images)
	if err != nil {
		return nil, err
	}
	q, err := Quantize(folded, cal, opt)
	if err != nil {
		return nil, err
	}
	return q, nil
}

// QuantizeShapeOnly folds the graph and quantizes it with a fixed nominal
// activation scale instead of calibrated ranges. The result is numerically
// meaningless but structurally identical to a PTQ output — exactly what the
// performance model needs, since instruction timing depends only on layer
// shapes. This lets the Table IV / Figure 3 throughput sweeps build
// full-resolution 16M-parameter programs without paying for calibration
// forward passes.
func QuantizeShapeOnly(g *graph.Graph) (*QGraph, error) {
	folded, err := Fold(g)
	if err != nil {
		return nil, err
	}
	cal := &Calibration{MaxAbs: make(map[string]float32), Images: 0}
	for _, n := range folded.Nodes {
		cal.MaxAbs[n.Name] = 1 // nominal ±1 range → fp 6
	}
	return Quantize(folded, cal, Options{})
}

// FFQ performs Fast Finetuning Quantization: PTQ followed by an
// AdaQuant-style [29] layer-wise correction that adjusts each convolution's
// quantized parameters to minimize the output mismatch against the FP32
// reference on the calibration set. The implementation applies per-channel
// bias correction — the dominant first-order term of AdaQuant — over
// `rounds` passes.
func FFQ(g *graph.Graph, images []*tensor.Tensor, opt Options, rounds int) (*QGraph, error) {
	folded, err := Fold(g)
	if err != nil {
		return nil, err
	}
	cal, err := Calibrate(folded, images)
	if err != nil {
		return nil, err
	}
	q, err := Quantize(folded, cal, opt)
	if err != nil {
		return nil, err
	}
	if rounds < 1 {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		if err := biasCorrect(q, folded, images); err != nil {
			return nil, fmt.Errorf("quant: FFQ round %d: %w", r, err)
		}
	}
	return q, nil
}

// channelMeans accumulates per-output-channel activation means.
type channelMeans struct {
	sum   []float64
	count int64
}

// biasCorrect aligns per-channel mean activations between the FP32 folded
// graph and the quantized graph by adjusting the int32 biases of every
// convolution node.
func biasCorrect(q *QGraph, folded *graph.Graph, images []*tensor.Tensor) error {
	fpMeans := make(map[string]*channelMeans)
	qMeans := make(map[string]*channelMeans)

	wantQNode := func(n *QNode) bool {
		// FP32-fallback layers keep float parameters and have no int32 bias
		// to correct; integer layers (8- or 4-bit) both accumulate on the
		// InFP+WeightFP grid the correction is expressed in.
		return n != nil && (n.Kind == graph.KindConv || n.Kind == graph.KindConvTranspose) &&
			effBits(n) != BitsFP32
	}
	wantNode := func(name string) bool { return wantQNode(q.Node(name)) }

	for _, img := range images {
		_, err := folded.Forward(img, func(n *graph.Node, out *tensor.Tensor) {
			if !wantNode(n.Name) {
				return
			}
			m := fpMeans[n.Name]
			if m == nil {
				m = &channelMeans{sum: make([]float64, n.OutShape[0])}
				fpMeans[n.Name] = m
			}
			hw := n.OutShape[1] * n.OutShape[2]
			for c := 0; c < n.OutShape[0]; c++ {
				var s float64
				for _, v := range out.Data[c*hw : (c+1)*hw] {
					s += float64(v)
				}
				m.sum[c] += s
			}
			m.count += int64(hw)
		})
		if err != nil {
			return err
		}
		err = q.runTap(img, wantQNode, func(n *QNode, data []int8, fp FixPos) {
			m := qMeans[n.Name]
			if m == nil {
				m = &channelMeans{sum: make([]float64, n.OutShape[0])}
				qMeans[n.Name] = m
			}
			hw := n.OutShape[1] * n.OutShape[2]
			inv := float64(fp.InvScale())
			for c := range m.sum {
				var s float64
				for _, v := range data[c*hw : (c+1)*hw] {
					s += float64(v)
				}
				m.sum[c] += s * inv
			}
			m.count += int64(hw)
		})
		if err != nil {
			return err
		}
	}

	for _, n := range q.Nodes {
		if n.Kind != graph.KindConv && n.Kind != graph.KindConvTranspose {
			continue
		}
		fm, qm := fpMeans[n.Name], qMeans[n.Name]
		if fm == nil || qm == nil || fm.count == 0 || qm.count == 0 {
			continue
		}
		accScale := float64((n.InFP + n.WeightFP).Scale())
		for c := 0; c < n.OutC && c < len(fm.sum); c++ {
			delta := fm.sum[c]/float64(fm.count) - qm.sum[c]/float64(qm.count)
			n.Bias[c] += int32(roundHalfAway(delta * accScale))
		}
	}
	return nil
}
