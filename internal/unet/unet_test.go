package unet

import (
	"math"
	"math/rand"
	"testing"

	"seneca/internal/nn"
	"seneca/internal/tensor"
)

func TestTableIIConfigurations(t *testing.T) {
	configs := TableII()
	if len(configs) != 5 {
		t.Fatalf("TableII has %d configs, want 5", len(configs))
	}
	wantLayers := map[string]int{"1M": 9, "2M": 11, "4M": 11, "8M": 11, "16M": 11}
	wantFilters := map[string]int{"1M": 8, "2M": 6, "4M": 8, "8M": 11, "16M": 16}
	for _, c := range configs {
		if c.Layers() != wantLayers[c.Name] {
			t.Errorf("%s: layers %d, want %d", c.Name, c.Layers(), wantLayers[c.Name])
		}
		if c.BaseFilters != wantFilters[c.Name] {
			t.Errorf("%s: filters %d, want %d", c.Name, c.BaseFilters, wantFilters[c.Name])
		}
		if c.NumClasses != 6 || c.InChannels != 1 {
			t.Errorf("%s: classes/channels %d/%d", c.Name, c.NumClasses, c.InChannels)
		}
	}
}

func TestConfigByName(t *testing.T) {
	c, err := ConfigByName("8m")
	if err != nil || c.Name != "8M" {
		t.Fatalf("ConfigByName(8m) = %v, %v", c, err)
	}
	if _, err := ConfigByName("32M"); err == nil {
		t.Fatal("unknown config must error")
	}
}

// TestParameterCountScaling verifies the paper's Table II scaling law: the
// parameter count grows quadratically in the base filter count, so the
// 4M/16M ratio equals (8/16)² and 2M/16M equals (6/16)² etc. (see DESIGN.md
// §4.1 for why absolute counts differ from the printed values).
func TestParameterCountScaling(t *testing.T) {
	counts := make(map[string]int)
	for _, cfg := range TableII() {
		counts[cfg.Name] = New(cfg).ParamCount()
	}
	ratio := func(a, b string) float64 { return float64(counts[a]) / float64(counts[b]) }
	checks := []struct {
		a, b string
		want float64
	}{
		{"4M", "16M", 0.25},   // (8/16)²
		{"2M", "16M", 0.1406}, // (6/16)²
		{"8M", "16M", 0.4727}, // (11/16)²
	}
	for _, c := range checks {
		got := ratio(c.a, c.b)
		if math.Abs(got-c.want)/c.want > 0.06 {
			t.Errorf("param ratio %s/%s = %.4f, want ≈%.4f", c.a, c.b, got, c.want)
		}
	}
	// Ordering matches the table.
	if !(counts["1M"] < counts["2M"] && counts["2M"] < counts["4M"] &&
		counts["4M"] < counts["8M"] && counts["8M"] < counts["16M"]) {
		t.Errorf("parameter counts not ordered: %v", counts)
	}
}

func tinyConfig() Config {
	return Config{Name: "tiny", Depth: 2, BaseFilters: 4, InChannels: 1, NumClasses: 6, DropoutRate: 0.1, Seed: 7}
}

func TestForwardShapesAndProbabilities(t *testing.T) {
	m := New(tinyConfig())
	x := tensor.New(2, 1, 16, 16)
	rng := rand.New(rand.NewSource(1))
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	p := m.Forward(x, false)
	if p.Shape[0] != 2 || p.Shape[1] != 6 || p.Shape[2] != 16 || p.Shape[3] != 16 {
		t.Fatalf("output shape %v", p.Shape)
	}
	hw := 16 * 16
	for img := 0; img < 2; img++ {
		for pix := 0; pix < hw; pix++ {
			var s float64
			for c := 0; c < 6; c++ {
				s += float64(p.Data[(img*6+c)*hw+pix])
			}
			if math.Abs(s-1) > 1e-4 {
				t.Fatalf("pixel probability sum %v", s)
			}
		}
	}
}

func TestMinInputSize(t *testing.T) {
	m := New(tinyConfig())
	if m.MinInputSize() != 8 {
		t.Fatalf("MinInputSize = %d", m.MinInputSize())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd input size must panic")
		}
	}()
	m.Forward(tensor.New(1, 1, 10, 10), false)
}

// TestTrainingReducesLoss is the end-to-end learning smoke test: a few Adam
// steps on a fixed batch must reduce the focal Tversky loss.
func TestTrainingReducesLoss(t *testing.T) {
	cfg := tinyConfig()
	cfg.DropoutRate = 0 // deterministic loss for comparison
	m := New(cfg)
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(2, 1, 16, 16)
	labels := make([]uint8, 2*16*16)
	// Learnable structure: class = quadrant-ish function of intensity.
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	for img := 0; img < 2; img++ {
		for y := 0; y < 16; y++ {
			for xx := 0; xx < 16; xx++ {
				cls := 0
				if y >= 8 {
					cls += 1
				}
				if xx >= 8 {
					cls += 2
				}
				labels[img*256+y*16+xx] = uint8(cls)
				x.Data[img*256+y*16+xx] += float32(cls) // make it visible
			}
		}
	}
	weights := make([]float32, 6)
	for i := range weights {
		weights[i] = 1
	}
	loss := nn.NewFocalTversky(weights)
	opt := nn.NewAdam(3e-3)

	first := -1.0
	last := 0.0
	for step := 0; step < 12; step++ {
		p := m.Forward(x, true)
		l := loss.Forward(p, labels)
		if first < 0 {
			first = l
		}
		last = l
		g := loss.Backward()
		m.Backward(g)
		nn.ClipGradNorm(m.Params(), 5)
		opt.Step(m.Params())
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %v last %v", first, last)
	}
	if math.IsNaN(last) {
		t.Fatal("loss is NaN")
	}
}

func TestBackwardGradientFlowsToAllParams(t *testing.T) {
	cfg := tinyConfig()
	cfg.DropoutRate = 0
	m := New(cfg)
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(1, 1, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	labels := make([]uint8, 256)
	for i := range labels {
		labels[i] = uint8(i % 6)
	}
	w := make([]float32, 6)
	for i := range w {
		w[i] = 1
	}
	loss := nn.NewFocalTversky(w)
	p := m.Forward(x, true)
	loss.Forward(p, labels)
	m.Backward(loss.Backward())
	for _, prm := range m.Params() {
		var nz bool
		for _, g := range prm.Grad.Data {
			if g != 0 {
				nz = true
				break
			}
		}
		if !nz {
			t.Errorf("parameter %s received no gradient", prm.Name)
		}
	}
}

func TestPredictReturnsValidClasses(t *testing.T) {
	m := New(tinyConfig())
	x := tensor.New(1, 1, 16, 16)
	pred := m.Predict(x)
	if len(pred) != 256 {
		t.Fatalf("prediction length %d", len(pred))
	}
	for _, c := range pred {
		if c >= 6 {
			t.Fatalf("invalid class %d", c)
		}
	}
}

// TestExportGraphMatchesModel checks the exported inference graph computes
// the same function as the eval-mode model.
func TestExportGraphMatchesModel(t *testing.T) {
	cfg := tinyConfig()
	m := New(cfg)
	// Perturb running stats away from the init so BN folding is exercised.
	rng := rand.New(rand.NewSource(4))
	xT := tensor.New(2, 1, 16, 16)
	for i := range xT.Data {
		xT.Data[i] = float32(rng.NormFloat64())
	}
	m.Forward(xT, true) // updates running statistics

	g := m.Export(16, 16)
	x := tensor.New(1, 1, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	want := m.Forward(x, false)
	got, err := g.Forward(x.Reshape(1, 16, 16), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("graph output %v vs model %v", got.Shape, want.Shape)
	}
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
			t.Fatalf("graph/model mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestExportGraphIsIndependentOfModel(t *testing.T) {
	m := New(tinyConfig())
	g := m.Export(16, 16)
	// Mutating the model's weights must not change the exported graph.
	var convNodeWeight float32
	for _, n := range g.Nodes {
		if n.Weight != nil {
			convNodeWeight = n.Weight.Data[0]
			break
		}
	}
	for _, p := range m.Params() {
		p.Value.Fill(123)
	}
	for _, n := range g.Nodes {
		if n.Weight != nil {
			if n.Weight.Data[0] != convNodeWeight {
				t.Fatal("exported graph shares weight storage with the model")
			}
			return
		}
	}
}
