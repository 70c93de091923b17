package experiments

import (
	"bytes"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"seneca/internal/ctorg"
)

// Shared tiny environment: built once, reused by every harness test.
var (
	envOnce sync.Once
	tinyEnv *Env
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	if raceEnabled {
		t.Skip("harness environment trains models, too slow under the race detector")
	}
	envOnce.Do(func() {
		tinyEnv = NewEnv(TinyScale(), io.Discard)
	})
	return tinyEnv
}

func TestTable1Frequencies(t *testing.T) {
	e := testEnv(t)
	var buf bytes.Buffer
	freqs := e.Table1(&buf)
	var sum float64
	for c := uint8(1); c < ctorg.NumClasses; c++ {
		sum += freqs[c]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("frequencies sum to %v", sum)
	}
	for _, organ := range []string{"liver", "bladder", "lungs", "kidneys", "bones"} {
		if !strings.Contains(buf.String(), organ) {
			t.Errorf("Table 1 output missing %s", organ)
		}
	}
	// The class-imbalance ordering the paper's loss design rests on.
	if !(freqs[3] > freqs[4] && freqs[4] > freqs[2]) {
		t.Errorf("lungs > kidneys > bladder violated: %v", freqs)
	}
}

func TestTable2ModelZoo(t *testing.T) {
	var buf bytes.Buffer
	rows := Table2(&buf)
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Parameters <= rows[i-1].Parameters {
			t.Errorf("parameter counts not increasing at %s", rows[i].Config)
		}
	}
	if rows[0].Layers != 9 || rows[4].Layers != 11 {
		t.Errorf("layer counts wrong: %+v", rows)
	}
}

func TestTable3CalibrationShift(t *testing.T) {
	e := testEnv(t)
	var buf bytes.Buffer
	res := e.Table3(&buf)
	// Manual sampling must boost the bladder fraction over random sampling
	// (Table III's defining property).
	if res.Manual[2] <= res.Random[2] {
		t.Errorf("manual bladder %.4f not above random %.4f", res.Manual[2], res.Random[2])
	}
	if res.Manual[4] <= res.Random[4] {
		t.Errorf("manual kidneys %.4f not above random %.4f", res.Manual[4], res.Random[4])
	}
}

// TestTable4PerformanceShape checks the timing half of Table IV at full
// 256×256 resolution: FPGA beats GPU everywhere, EE gap is an order of
// magnitude, small models are the most efficient.
func TestTable4PerformanceShape(t *testing.T) {
	e := testEnv(t)
	var buf bytes.Buffer
	rows, err := e.Table4(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]Table4Row{}
	for _, r := range rows {
		byName[r.Config] = r
		if r.FPGAFPS.Mean <= r.GPUFPS.Mean {
			t.Errorf("%s: FPGA %.1f FPS not above GPU %.1f", r.Config, r.FPGAFPS.Mean, r.GPUFPS.Mean)
		}
		ratio := r.FPGAEE.Mean / r.GPUEE.Mean
		if ratio < 5 || ratio > 20 {
			t.Errorf("%s: EE ratio %.1f× outside the paper's 6.6–12.8× band (±tolerance)", r.Config, ratio)
		}
		if r.FPGAWatts.Mean >= r.GPUWatts.Mean {
			t.Errorf("%s: FPGA power %.1f W not below GPU %.1f W", r.Config, r.FPGAWatts.Mean, r.GPUWatts.Mean)
		}
		if r.FPGAFPS.Std <= 0 || r.GPUFPS.Std <= 0 {
			t.Errorf("%s: run-to-run σ missing", r.Config)
		}
	}
	// Headline claim: 1M speedup ≈4.65×, EE gain ≈12.7×.
	speedup := byName["1M"].FPGAFPS.Mean / byName["1M"].GPUFPS.Mean
	if speedup < 3.5 || speedup > 6.5 {
		t.Errorf("1M speedup %.2f×, paper reports 4.65×", speedup)
	}
	eeGain := byName["1M"].FPGAEE.Mean / byName["1M"].GPUEE.Mean
	if eeGain < 9 || eeGain > 17 {
		t.Errorf("1M EE gain %.1f×, paper reports 12.7×", eeGain)
	}
	// Table IV orderings, including the 2M/4M inversion.
	if !(byName["1M"].FPGAFPS.Mean > byName["2M"].FPGAFPS.Mean &&
		byName["4M"].FPGAFPS.Mean > byName["2M"].FPGAFPS.Mean &&
		byName["8M"].FPGAFPS.Mean > byName["16M"].FPGAFPS.Mean) {
		t.Error("Table IV FPGA FPS ordering violated")
	}
}

func TestFigure3Shape(t *testing.T) {
	e := testEnv(t)
	var buf bytes.Buffer
	series, err := e.Figure3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("%d series", len(series))
	}
	oneT, twoT, fourT, gpu := series[0], series[1], series[2], series[3]
	for _, cfgName := range []string{"1M", "2M", "4M", "8M", "16M"} {
		// Every quantized configuration beats the GPU (the paper's first
		// Figure 3 observation).
		if fourT.EE[cfgName] <= gpu.EE[cfgName] {
			t.Errorf("%s: 4-thread EE %.2f not above GPU %.2f", cfgName, fourT.EE[cfgName], gpu.EE[cfgName])
		}
		// EE grows with threads up to 4 (the second observation).
		if !(oneT.EE[cfgName] < twoT.EE[cfgName] && twoT.EE[cfgName] < fourT.EE[cfgName]) {
			t.Errorf("%s: EE not increasing with threads: %.2f/%.2f/%.2f",
				cfgName, oneT.EE[cfgName], twoT.EE[cfgName], fourT.EE[cfgName])
		}
	}
	// Decreasing trend with model size at 4 threads (third observation;
	// 2M/4M may swap, 1M must beat 8M and 16M).
	if !(fourT.EE["1M"] > fourT.EE["8M"] && fourT.EE["8M"] > fourT.EE["16M"]) {
		t.Errorf("EE size trend violated: %v", fourT.EE)
	}
}

func TestThreadScalingAblation(t *testing.T) {
	e := testEnv(t)
	var buf bytes.Buffer
	pts, err := e.AblationThreadScaling(&buf, "1M")
	if err != nil {
		t.Fatal(err)
	}
	byThreads := map[int]ThreadScalingPoint{}
	for _, p := range pts {
		byThreads[p.Threads] = p
	}
	// Section IV-B: "instantiating eight or more threads requires more
	// power without a gain in FPS".
	if byThreads[8].FPS > byThreads[4].FPS*1.02 {
		t.Errorf("8 threads gained FPS: %.1f vs %.1f", byThreads[8].FPS, byThreads[4].FPS)
	}
	if byThreads[8].Watts <= byThreads[4].Watts {
		t.Errorf("8 threads did not cost power: %.2f vs %.2f", byThreads[8].Watts, byThreads[4].Watts)
	}
	if byThreads[8].EE >= byThreads[4].EE {
		t.Errorf("EE should peak at 4 threads")
	}
}

func TestAblationLossesRuns(t *testing.T) {
	e := testEnv(t)
	var buf bytes.Buffer
	rows, err := e.AblationLosses(&buf, "1M")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d loss rows", len(rows))
	}
	var weighted, unweighted LossResult
	for _, r := range rows {
		if r.GlobalDSC < 0 || r.GlobalDSC > 1 {
			t.Errorf("%s: DSC %v out of range", r.Loss, r.GlobalDSC)
		}
		switch r.Loss {
		case "focal-tversky":
			weighted = r
		case "focal-tversky-unweighted":
			unweighted = r
		}
	}
	// The paper's motivation: class weighting exists to help small organs.
	// At tiny scale we only log the comparison (short training is noisy);
	// the fast-scale harness asserts it (see EXPERIMENTS.md A3).
	t.Logf("small-organ DSC: weighted %.3f vs unweighted %.3f",
		weighted.SmallOrganDSC, unweighted.SmallOrganDSC)
}

func TestAblationQuantModesRuns(t *testing.T) {
	e := testEnv(t)
	var buf bytes.Buffer
	rows, err := e.AblationQuantModes(&buf, "1M")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d quant rows", len(rows))
	}
	// Section III-D: FFQ and QAT do not significantly improve over PTQ.
	var ptq float64
	for _, r := range rows {
		if r.Mode == "ptq" {
			ptq = r.GlobalDSC
		}
	}
	for _, r := range rows {
		if r.GlobalDSC < ptq-0.15 {
			t.Errorf("%s collapsed relative to PTQ: %.3f vs %.3f", r.Mode, r.GlobalDSC, ptq)
		}
	}
}

func TestSurfaceQuality(t *testing.T) {
	e := testEnv(t)
	var buf bytes.Buffer
	rows, err := e.SurfaceQuality(&buf, "1M")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != int(ctorg.NumClasses)-1 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.HD95INT8 < 0 || r.ASSDINT8 < 0 {
			t.Errorf("%s: negative distances", r.Organ)
		}
		if r.SlicesEvaluated > 0 && r.HD95INT8 < r.ASSDINT8 {
			t.Errorf("%s: HD95 %.2f below ASSD %.2f", r.Organ, r.HD95INT8, r.ASSDINT8)
		}
	}
}

func TestDPUFamilySweep(t *testing.T) {
	e := testEnv(t)
	var buf bytes.Buffer
	pts, err := e.DPUFamilySweep(&buf, "1M")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("%d family points", len(pts))
	}
	byName := map[string]DPUFamilyPoint{}
	for _, p := range pts {
		byName[p.Device[:15]] = p // "DPUCZDX8G-Bxxxx" prefix
	}
	// The B4096 (the paper's device) is the fastest of the family…
	for _, p := range pts {
		if p.FPS > byName["DPUCZDX8G-B4096"].FPS*1.001 {
			t.Errorf("%s outruns the B4096", p.Device)
		}
	}
	// …and peak ops/cycle is NOT a monotone predictor: the B1024 (8×8×8)
	// beats the nominally-bigger B1152 (4×12×12) on the 1M model because
	// the model's 8-filter layers waste 12-wide channel lanes while pixel
	// parallelism always helps — the lane-occupancy effect behind the
	// paper's Table IV anomalies, surfaced as a design-space insight.
	if byName["DPUCZDX8G-B1024"].FPS <= byName["DPUCZDX8G-B1152"].FPS {
		t.Errorf("expected B1024 (%.1f FPS) above B1152 (%.1f FPS) on the 1M model",
			byName["DPUCZDX8G-B1024"].FPS, byName["DPUCZDX8G-B1152"].FPS)
	}
}

func TestBaseline3DRuns(t *testing.T) {
	e := testEnv(t)
	var buf bytes.Buffer
	res, err := e.Baseline3D(&buf, "1M")
	if err != nil {
		t.Fatal(err)
	}
	if res.Global2D.N == 0 || res.Global3D.N == 0 {
		t.Fatal("no per-patient evaluations")
	}
	for _, s := range []float64{res.Global2D.Mean, res.Global3D.Mean} {
		if s < 0 || s > 1 {
			t.Fatalf("global dice %v out of range", s)
		}
	}
	if res.Params3D <= 0 || res.Params2D <= 0 {
		t.Fatal("missing parameter counts")
	}
	t.Logf("2D %.3f±%.3f vs 3D %.3f±%.3f (3D train %v)",
		res.Global2D.Mean, res.Global2D.Std, res.Global3D.Mean, res.Global3D.Std, res.TrainTime3D)
}

// TestTable5BestModel runs Table V's deep dive on the tiny environment: the
// deployed FPGA beats the GPU on energy efficiency, as in the paper, and every
// accuracy cell is a fraction.
func TestTable5BestModel(t *testing.T) {
	e := testEnv(t)
	var buf bytes.Buffer
	res, err := e.Table5(&buf, "1M")
	if err != nil {
		t.Fatal(err)
	}
	if res.FPGAEE.Mean <= res.GPUEE.Mean {
		t.Errorf("FPGA EE %.2f not above GPU EE %.2f", res.FPGAEE.Mean, res.GPUEE.Mean)
	}
	for _, v := range []float64{res.GlobalFPGA.Mean, res.GlobalGPU.Mean, res.GlobalTPR, res.GlobalTNR} {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Errorf("accuracy cell %v out of range:\n%s", v, buf.String())
		}
	}
	if len(res.OrganFPGA) == 0 || len(res.OrganGPU) == 0 {
		t.Fatal("no per-organ rows")
	}
}

// TestAblationPruningRuns runs the pruning sweep on the tiny environment: the
// unpruned baseline plus one row per fraction, and pruning never slows the
// simulated deployment down.
func TestAblationPruningRuns(t *testing.T) {
	e := testEnv(t)
	var buf bytes.Buffer
	pts, err := e.AblationPruning(&buf, "1M", []float64{0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || pts[0].Fraction != 0 {
		t.Fatalf("pruning rows %+v", pts)
	}
	for _, p := range pts {
		if p.GlobalDSC < 0 || p.GlobalDSC > 1 {
			t.Errorf("%.0f%% pruned: DSC %v out of range", p.Fraction*100, p.GlobalDSC)
		}
		if p.FPS < pts[0].FPS {
			t.Errorf("%.0f%% pruned runs at %.1f FPS, below the unpruned %.1f", p.Fraction*100, p.FPS, pts[0].FPS)
		}
	}
}

// TestAccuracyExperiments exercises the trained half of the harness at tiny
// scale: Table 4 with accuracy, Figure 4, Figure 6, Figure 5 panels.
func TestAccuracyExperiments(t *testing.T) {
	e := testEnv(t)
	var buf bytes.Buffer

	pts, err := e.Figure4(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("%d Figure 4 points", len(pts))
	}
	for _, p := range pts {
		if p.Score != p.DSC*p.EE {
			t.Errorf("%s: score %.3f != DSC·EE %.3f", p.Config, p.Score, p.DSC*p.EE)
		}
	}
	// Eq. 7 trend: small models dominate (1M within the top two scores).
	best, second := "", ""
	bestV, secondV := -1.0, -1.0
	for _, p := range pts {
		if p.Score > bestV {
			second, secondV = best, bestV
			best, bestV = p.Config, p.Score
		} else if p.Score > secondV {
			second, secondV = p.Config, p.Score
		}
	}
	if best != "1M" && second != "1M" {
		t.Errorf("1M not among top-2 DSC·EE: best=%s second=%s (%v)", best, second, pts)
	}

	boxes, err := e.Figure6(&buf, "1M")
	if err != nil {
		t.Fatal(err)
	}
	for cls, b := range boxes {
		if b.Min < 0 || b.Max > 1 {
			t.Errorf("%s boxplot out of range: %+v", ctorg.ClassNames[cls], b)
		}
	}

	dir := t.TempDir()
	panels, err := e.Figure5(&buf, "1M", dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) == 0 {
		t.Fatal("no Figure 5 panels")
	}
	for _, p := range panels {
		if len(p.GT) != p.Size*p.Size || len(p.INT8) != len(p.GT) || len(p.FP32) != len(p.GT) {
			t.Fatalf("panel geometry wrong")
		}
	}
}
