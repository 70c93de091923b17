package quant

import (
	"math"
	"math/rand"
	"testing"

	"seneca/internal/graph"
	"seneca/internal/tensor"
	"seneca/internal/unet"
)

// buildTestModel trains nothing — random weights with exercised BN running
// stats are enough to validate numeric agreement between FP32 and INT8.
func buildTestModel(t *testing.T) (*unet.Model, *graph.Graph, []*tensor.Tensor) {
	t.Helper()
	cfg := unet.Config{Name: "tiny", Depth: 2, BaseFilters: 4, InChannels: 1, NumClasses: 6, DropoutRate: 0.1, Seed: 5}
	m := unet.New(cfg)
	rng := rand.New(rand.NewSource(2))
	warm := tensor.New(2, 1, 16, 16)
	for i := range warm.Data {
		warm.Data[i] = float32(rng.NormFloat64() * 0.5)
	}
	m.Forward(warm, true) // populate BN running statistics

	g := m.Export(16, 16)
	var calib []*tensor.Tensor
	for i := 0; i < 8; i++ {
		img := tensor.New(1, 16, 16)
		for j := range img.Data {
			img.Data[j] = float32(rng.NormFloat64() * 0.5)
		}
		calib = append(calib, img)
	}
	return m, g, calib
}

func TestFoldRemovesBNAndDropout(t *testing.T) {
	_, g, _ := buildTestModel(t)
	folded, err := Fold(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range folded.Nodes {
		if n.Kind == graph.KindBatchNorm {
			t.Errorf("batch-norm node %q survived folding", n.Name)
		}
		if n.Kind == graph.KindDropout {
			t.Errorf("dropout node %q survived folding", n.Name)
		}
	}
	if len(folded.Nodes) >= len(g.Nodes) {
		t.Errorf("folding did not shrink the graph: %d → %d nodes", len(g.Nodes), len(folded.Nodes))
	}
}

func TestFoldPreservesFunction(t *testing.T) {
	_, g, calib := buildTestModel(t)
	folded, err := Fold(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range calib[:3] {
		want, err := g.Forward(img, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := folded.Forward(img, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
				t.Fatalf("folded output differs at %d: %v vs %v", i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestCalibrateRecordsAllNodes(t *testing.T) {
	_, g, calib := buildTestModel(t)
	folded, err := Fold(g)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(folded, calib)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range folded.Nodes {
		if _, ok := cal.MaxAbs[n.Name]; !ok {
			t.Errorf("no calibration stats for node %q", n.Name)
		}
	}
	if cal.Images != len(calib) {
		t.Errorf("calibration image count %d", cal.Images)
	}
}

// TestPTQCloseToFP32 is the core quantization-quality gate: INT8 execution
// must track the FP32 graph closely — per-pixel probability error small and
// argmax agreement high (the paper reports no global accuracy loss from
// PTQ).
func TestPTQCloseToFP32(t *testing.T) {
	_, g, calib := buildTestModel(t)
	q, err := PTQ(g, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	agree, total := 0, 0
	var maxErr float64
	for _, img := range calib[:4] {
		want, err := g.Forward(img, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Execute(img)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			e := math.Abs(float64(got.Data[i] - want.Data[i]))
			if e > maxErr {
				maxErr = e
			}
		}
		wantLab := tensor.ArgmaxChannels(want.Reshape(1, 6, 16, 16))
		gotLab, err := q.ExecuteLabels(img)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantLab {
			if wantLab[i] == gotLab[i] {
				agree++
			}
			total++
		}
	}
	if maxErr > 0.25 {
		t.Errorf("max probability error %v too large", maxErr)
	}
	// An untrained model emits near-uniform class probabilities, so argmax
	// is maximally sensitive to rounding; 0.9 is a meaningful bar here.
	// (Trained-model INT8-vs-FP32 Dice agreement is gated end-to-end in
	// internal/core's integration tests.)
	if frac := float64(agree) / float64(total); frac < 0.90 {
		t.Errorf("argmax agreement %.3f, want ≥0.90", frac)
	}
}

func TestQuantizeRejectsUnfoldedGraph(t *testing.T) {
	_, g, calib := buildTestModel(t)
	cal, err := Calibrate(g, calib) // calibrating the unfolded graph is fine
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Quantize(g, cal, Options{}); err == nil {
		t.Fatal("Quantize must reject graphs with batch-norm nodes")
	}
}

func TestFFQNotWorseThanPTQ(t *testing.T) {
	_, g, calib := buildTestModel(t)
	ptq, err := PTQ(g, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ffq, err := FFQ(g, calib, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	mse := func(q *QGraph) float64 {
		var sum float64
		var n int
		for _, img := range calib {
			want, _ := g.Forward(img, nil)
			got, err := q.Execute(img)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				d := float64(got.Data[i] - want.Data[i])
				sum += d * d
				n++
			}
		}
		return sum / float64(n)
	}
	p, f := mse(ptq), mse(ffq)
	// FFQ optimizes exactly this objective on the calibration set, so it
	// must not be more than marginally worse.
	if f > p*1.25+1e-9 {
		t.Errorf("FFQ mse %v worse than PTQ %v", f, p)
	}
}

func TestPerChannelWeightsOption(t *testing.T) {
	_, g, calib := buildTestModel(t)
	q, err := PTQ(g, calib, Options{PerChannelWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Execute(calib[0]); err != nil {
		t.Fatal(err)
	}
}

func TestInputScaleStoredInQGraph(t *testing.T) {
	_, g, calib := buildTestModel(t)
	q, err := PTQ(g, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Inputs are in [-1, 1]-ish; the stored factor must be a usable scale.
	if q.InputFP < 0 || q.InputFP > 16 {
		t.Errorf("input fix position %v implausible for [-1,1] inputs", q.InputFP)
	}
	if q.NumClasses != 6 {
		t.Errorf("NumClasses = %d", q.NumClasses)
	}
}

func TestQATProjectorRoundTrip(t *testing.T) {
	cfg := unet.Config{Name: "t", Depth: 1, BaseFilters: 2, InChannels: 1, NumClasses: 3, DropoutRate: 0, Seed: 1}
	m := unet.New(cfg)
	orig := make([][]float32, 0)
	for _, p := range m.Params() {
		orig = append(orig, append([]float32(nil), p.Value.Data...))
	}
	qp := NewQATProjector(m.Params())
	qp.Project()
	// Weights must now sit exactly on their int8 grids.
	changed := false
	for _, p := range m.Params() {
		if p.Value.Rank() <= 1 {
			continue
		}
		fp := BestFixPos(p.Value.MaxAbs(), Bits8)
		codes := make([]int8, p.Value.Len())
		QuantizeSlice(p.Value.Data, fp, Bits8, codes)
		for i, v := range p.Value.Data {
			q := float64(codes[i]) * float64(fp.InvScale())
			if math.Abs(q-float64(v)) > 1e-6 {
				t.Fatalf("projected weight %v not on grid", v)
			}
		}
	}
	qp.Restore()
	for i, p := range m.Params() {
		for j := range p.Value.Data {
			if p.Value.Data[j] != orig[i][j] {
				changed = true
			}
		}
	}
	if changed {
		t.Fatal("Restore did not recover latent weights")
	}
}
