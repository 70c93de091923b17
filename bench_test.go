// Benchmarks that regenerate the paper's evaluation artifacts — one bench
// target per table and figure (see DESIGN.md §3 for the experiment index)
// plus kernel micro-benchmarks. The table/figure benches run the experiment
// harness at tiny scale so `go test -bench=.` finishes in minutes;
// `go run ./cmd/seneca-bench -scale fast|paper` produces the larger runs.
package seneca_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"seneca"
	"seneca/internal/experiments"
	"seneca/internal/imaging"
	"seneca/internal/nifti"
	"seneca/internal/nn"
	"seneca/internal/phantom"
	"seneca/internal/quant"
	"seneca/internal/serve"
	"seneca/internal/study"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/vart"
	"seneca/internal/xmodel"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv = seneca.NewExperiments(seneca.TinyScale(), io.Discard)
	})
	return benchEnv
}

// BenchmarkTable1_OrganFrequencies regenerates Table I: the labeled-pixel
// organ distribution of the dataset.
func BenchmarkTable1_OrganFrequencies(b *testing.B) {
	e := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Table1(io.Discard)
	}
}

// BenchmarkTable2_ModelZoo regenerates Table II: building all five model
// configurations and counting parameters.
func BenchmarkTable2_ModelZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(io.Discard)
	}
}

// BenchmarkTable3_CalibrationSampling regenerates Table III: random vs
// manual calibration-set construction.
func BenchmarkTable3_CalibrationSampling(b *testing.B) {
	e := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Table3(io.Discard)
	}
}

// BenchmarkTable4_FullComparison regenerates Table IV's performance half:
// GPU-FP32 vs FPGA-INT8 (4 threads) FPS/W/EE for all five configurations
// at full 256×256 geometry, µ±σ over repeated runs. (The accuracy half
// trains models; run `seneca-bench -scale fast -experiments table4`.)
func BenchmarkTable4_FullComparison(b *testing.B) {
	e := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Table4(io.Discard, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5_BestModel regenerates Table V: the 1M best-model deep
// dive (training included on first iteration, cached afterwards).
func BenchmarkTable5_BestModel(b *testing.B) {
	e := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Table5(io.Discard, "1M"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3_EnergyEfficiency regenerates Figure 3: EE of every model
// on the GPU and on the ZCU104 at 1/2/4 threads.
func BenchmarkFigure3_EnergyEfficiency(b *testing.B) {
	e := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Figure3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4_DSCxEE regenerates Figure 4: Dice·EnergyEfficiency
// (Eq. 7) per model at 4 threads.
func BenchmarkFigure4_DSCxEE(b *testing.B) {
	e := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Figure4(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5_Qualitative regenerates Figure 5: the qualitative
// input/GT/INT8/FP32 panels.
func BenchmarkFigure5_Qualitative(b *testing.B) {
	e := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Figure5(io.Discard, "1M", "", 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6_OrganBoxplots regenerates Figure 6: per-organ Dice
// boxplots of the deployed model.
func BenchmarkFigure6_OrganBoxplots(b *testing.B) {
	e := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Figure6(io.Discard, "1M"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ThreadScaling regenerates the Section IV-B thread sweep
// (1..8 threads: saturation at 4, power-only cost beyond).
func BenchmarkAblation_ThreadScaling(b *testing.B) {
	e := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AblationThreadScaling(io.Discard, "1M"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_QuantModes regenerates the Section III-D comparison of
// PTQ, FFQ and QAT (three trainings; cached env, heavy first iteration).
func BenchmarkAblation_QuantModes(b *testing.B) {
	e := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AblationQuantModes(io.Discard, "1M"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_LossFunctions regenerates the Section III-C loss study
// (four trainings per iteration).
func BenchmarkAblation_LossFunctions(b *testing.B) {
	e := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AblationLosses(io.Discard, "1M"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Pruning regenerates the future-work pruning sweep
// (Section V): structured filter pruning vs throughput/EE/DSC.
func BenchmarkAblation_Pruning(b *testing.B) {
	e := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AblationPruning(io.Discard, "1M", []float64{0.25, 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPUFamilySweep runs the accelerator design-space exploration
// (B512…B4096) on the best model.
func BenchmarkDPUFamilySweep(b *testing.B) {
	e := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.DPUFamilySweep(io.Discard, "1M"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaseline3D regenerates the 2D-vs-3D comparison behind Table V's
// CT-ORG column: trains the volumetric baseline and evaluates both.
func BenchmarkBaseline3D(b *testing.B) {
	e := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Baseline3D(io.Discard, "1M"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Kernel micro-benchmarks ------------------------------------------

func randomImage(size int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	img := tensor.New(1, size, size)
	for i := range img.Data {
		img.Data[i] = float32(rng.NormFloat64() * 0.3)
	}
	return img
}

func benchProgram(b *testing.B, name string, size int) *xmodel.Program {
	b.Helper()
	cfg, err := unet.ConfigByName(name)
	if err != nil {
		b.Fatal(err)
	}
	for (1 << (cfg.Depth + 1)) > size {
		cfg.Depth--
	}
	m := unet.New(cfg)
	g := m.Export(size, size)
	q, err := quant.QuantizeShapeOnly(g)
	if err != nil {
		b.Fatal(err)
	}
	p, err := xmodel.Compile(q, name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkINT8Inference measures the functional INT8 executor (the
// bit-accurate path behind every accuracy number).
func BenchmarkINT8Inference(b *testing.B) {
	prog := benchProgram(b, "1M", 64)
	img := randomImage(64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFP32Forward measures the FP32 training-forward pass.
func BenchmarkFP32Forward(b *testing.B) {
	cfg, _ := unet.ConfigByName("1M")
	cfg.Depth = 3
	m := unet.New(cfg)
	x := tensor.New(1, 1, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, false)
	}
}

// BenchmarkTrainingStep measures one full forward+backward+Adam step.
func BenchmarkTrainingStep(b *testing.B) {
	cfg, _ := unet.ConfigByName("1M")
	cfg.Depth = 3
	m := unet.New(cfg)
	x := randomImage(64, 2).Reshape(1, 1, 64, 64)
	labels := make([]uint8, 64*64)
	for i := range labels {
		labels[i] = uint8(i % 6)
	}
	weights := make([]float32, 6)
	for i := range weights {
		weights[i] = 1
	}
	loss := benchLoss(weights)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := m.Forward(x, true)
		loss.Forward(p, labels)
		m.Backward(loss.Backward())
		for _, prm := range m.Params() {
			prm.ZeroGrad()
		}
	}
}

func benchLoss(weights []float32) nn.Loss { return nn.NewFocalTversky(weights) }

// BenchmarkDPUFrameModel measures the analytic timing model itself.
func BenchmarkDPUFrameModel(b *testing.B) {
	prog := benchProgram(b, "1M", 256)
	dev := seneca.NewZCU104()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.TimeFrame(prog)
	}
}

// BenchmarkVARTSimulation measures the discrete-event throughput simulator
// (2000 frames, 4 threads).
func BenchmarkVARTSimulation(b *testing.B) {
	prog := benchProgram(b, "1M", 256)
	runner := vart.New(seneca.NewZCU104(), prog, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.SimulateThroughput(2000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXmodelSerialize measures compile artifact serialization.
func BenchmarkXmodelSerialize(b *testing.B) {
	prog := benchProgram(b, "1M", 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := prog.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPUSimInference measures one frame through the gpu-sim backend:
// bit-accurate INT8 functional execution priced by the FP32 GPU roofline.
func BenchmarkGPUSimInference(b *testing.B) {
	prog := benchProgram(b, "1M", 64)
	be, err := seneca.NewBackend("gpu-sim", seneca.NewZCU104(), prog, seneca.BackendOptions{Threads: 1})
	if err != nil {
		b.Fatal(err)
	}
	imgs := []*tensor.Tensor{randomImage(64, 1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := be.Execute(imgs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPUSimInference measures one frame through the dpu-sim backend:
// the VART runtime over the discrete-event DPU model.
func BenchmarkDPUSimInference(b *testing.B) {
	prog := benchProgram(b, "1M", 64)
	be, err := seneca.NewBackend("dpu-sim", seneca.NewZCU104(), prog, seneca.BackendOptions{Threads: 1})
	if err != nil {
		b.Fatal(err)
	}
	imgs := []*tensor.Tensor{randomImage(64, 1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := be.Execute(imgs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Volume-job harness (outside TIER1_BENCH) ---------------------------
//
// `go test -run '^$' -bench StudyJob -cpuprofile cpu.out .` answers "where
// does a volume job's CPU go": INT8 frames vs study.runJob's own stages vs
// the HTTP upload/poll/download around them (EXPERIMENTS.md quotes the split).

// benchCT is the volume_study input of the repository's benchmark, built the
// same way: a 12-slice 256×256 phantom CT cut from the middle of a longer one.
func benchCT(b *testing.B) *nifti.Volume {
	b.Helper()
	const size, nz = 256, 12
	opt := phantom.DefaultOptions()
	opt.Size, opt.Slices = size, (nz*4+2)/3
	full := phantom.Generate(0, opt).CT
	if full.Nz < nz {
		b.Fatalf("phantom gave %d slices, need %d", full.Nz, nz)
	}
	ct := nifti.NewVolume(size, size, nz, full.Datatype)
	ct.PixDim = full.PixDim
	z0 := (full.Nz - nz) / 2
	copy(ct.Data, full.Data[z0*size*size:(z0+nz)*size*size])
	return ct
}

// BenchmarkStudyJob runs one whole-volume job per iteration in process: the
// 1M U-Net at the paper's 256×256 behind serve.Server, study.Service over a
// scratch store, and the HTTP API through httptest — upload, poll the status
// every 5 ms, download the mask — exactly the client volume_study is.
func BenchmarkStudyJob(b *testing.B) {
	prog := benchProgram(b, "1M", 256)
	srv, err := serve.New(seneca.NewZCU104(), prog, serve.Config{Threads: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	svc, err := study.New(srv, study.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var body bytes.Buffer
	if err := nifti.Write(&body, benchCT(b)); err != nil {
		b.Fatal(err)
	}
	job := func() {
		resp, err := http.Post(ts.URL+"/v1/volumes", "application/x-nifti", bytes.NewReader(body.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		var accepted struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&accepted)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit: status %d, err %v", resp.StatusCode, err)
		}
		for {
			resp, err := http.Get(ts.URL + "/v1/volumes/" + accepted.ID)
			if err != nil {
				b.Fatal(err)
			}
			var j struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&j)
			resp.Body.Close()
			if err != nil || j.State == "failed" {
				b.Fatalf("job: state %q (%s), err %v", j.State, j.Error, err)
			}
			if j.State == "done" {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		resp, err = http.Get(ts.URL + "/v1/volumes/" + accepted.ID + "/mask")
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || n == 0 {
			b.Fatalf("mask: status %d, %d bytes, err %v", resp.StatusCode, n, err)
		}
	}
	job() // warm the executors and the lazily packed weights
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job()
	}
}

// BenchmarkPreprocessSlice measures the Section III-A input pipeline on one
// 256×256 CT slice (resample, 1%/99% saturation, [-1, 1] rescale).
func BenchmarkPreprocessSlice(b *testing.B) {
	ct := benchCT(b)
	slice := ct.Slice(ct.Nz / 2)
	b.SetBytes(int64(4 * len(slice)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = imaging.Preprocess(slice, ct.Ny, ct.Nx, 256)
	}
}

// benchSink keeps a measured call's result alive.
var benchSink []float32

// BenchmarkINT8Inference256 is BenchmarkINT8Inference at the paper's
// 256×256, where a frame's working set leaves L2 (the volume_study frame).
func BenchmarkINT8Inference256(b *testing.B) {
	prog := benchProgram(b, "1M", 256)
	img := randomImage(256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(img); err != nil {
			b.Fatal(err)
		}
	}
}
