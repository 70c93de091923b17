package quant

import (
	"fmt"
	"math"

	"seneca/internal/graph"
	"seneca/internal/obs"
	"seneca/internal/tensor"
)

// Calibration holds the activation statistics observed while running the
// FP32 (folded) graph over the unlabeled calibration set.
type Calibration struct {
	// MaxAbs maps node name → largest absolute activation observed at that
	// node's output.
	MaxAbs map[string]float32
	// Images is the calibration set size, recorded for reporting.
	Images int
}

// Calibrate runs the folded FP32 graph over the calibration images and
// records per-node activation ranges. The paper uses 500 images (Section
// III-D); the choice of images matters — see internal/ctorg's
// ManualCalibration for the Table III distribution correction.
func Calibrate(g *graph.Graph, images []*tensor.Tensor) (*Calibration, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("quant: empty calibration set")
	}
	defer obs.Time("calibrate")()
	cal := &Calibration{MaxAbs: make(map[string]float32), Images: len(images)}
	for _, img := range images {
		_, err := g.Forward(img, func(n *graph.Node, out *tensor.Tensor) {
			m := out.MaxAbs()
			if m > cal.MaxAbs[n.Name] {
				cal.MaxAbs[n.Name] = m
			}
		})
		if err != nil {
			return nil, fmt.Errorf("quant: calibration forward: %w", err)
		}
	}
	// Guard against dead activations (all-zero outputs would otherwise get
	// an extreme fix position).
	for name, m := range cal.MaxAbs {
		if m == 0 || math.IsNaN(float64(m)) {
			cal.MaxAbs[name] = 1e-3
		}
	}
	return cal, nil
}

// FixPositions derives the per-node output fix positions from the observed
// ranges.
func (c *Calibration) FixPositions() map[string]FixPos {
	out := make(map[string]FixPos, len(c.MaxAbs))
	for name, m := range c.MaxAbs {
		out[name] = BestFixPos(m, Bits8)
	}
	return out
}
