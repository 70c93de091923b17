// Benchmarks for the parts of the workflow the repository's benchmark
// (benchmark/, BENCHMARK.json) does not probe yet — the FP32 training path —
// plus in-process harnesses to profile a volume job, one preprocessed slice
// and one 256×256 INT8 frame under. Every other number (INT8 frames, backend
// executes, the DPU timing model, the VART simulator, xmodel serialisation)
// is a probe metric there; the paper's tables and figures are
// `go run ./cmd/seneca-bench -experiments …` and internal/experiments' tests.
package seneca_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"seneca"
	"seneca/internal/imaging"
	"seneca/internal/nifti"
	"seneca/internal/nn"
	"seneca/internal/phantom"
	"seneca/internal/quant"
	"seneca/internal/serve"
	"seneca/internal/study"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

func randomImage(size int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	img := tensor.New(1, size, size)
	for i := range img.Data {
		img.Data[i] = float32(rng.NormFloat64() * 0.3)
	}
	return img
}

// benchProgram compiles a Table II model at size×size from untrained weights
// and shape-only quantization, its depth clamped so the bottleneck stays at
// least 1×1 (the benchmark's probes build their models the same way).
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

// ---- FP32 training path --------------------------------------------------

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

// ---- Volume-job harness ------------------------------------------------
//
// `go test -run '^$' -bench StudyJob -cpuprofile cpu.out .` answers "where
// does a volume job's CPU go": INT8 frames vs study.runJob's own stages vs
// the HTTP upload/poll/download around them (EXPERIMENTS.md quotes the split).

// benchCT is the volume_study input of the repository's benchmark, built the
// same way: a 12-slice 256×256 phantom CT cut from the middle of a longer one.
func benchCT(tb testing.TB) *nifti.Volume {
	tb.Helper()
	const size, nz = 256, 12
	opt := phantom.DefaultOptions()
	opt.Size, opt.Slices = size, (nz*4+2)/3
	full := phantom.Generate(0, opt).CT
	if full.Nz < nz {
		tb.Fatalf("phantom gave %d slices, need %d", full.Nz, nz)
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
// 256×256 CT slice (resample, 1%/99% saturation, [-1, 1] rescale): the
// phantom's, whose air is one value over most of the slice, so the 1% rank
// falls in a tie run. BenchmarkPreprocessSliceNoise is its tie-free twin.
func BenchmarkPreprocessSlice(b *testing.B) {
	ct := benchCT(b)
	benchPreprocess(b, ct.Slice(ct.Nz/2))
}

// BenchmarkPreprocessSliceNoise is BenchmarkPreprocessSlice on N(0, 1)
// noise, where no two pixels are likely to be equal.
func BenchmarkPreprocessSliceNoise(b *testing.B) {
	benchPreprocess(b, normalSlice(1, 256*256))
}

func benchPreprocess(b *testing.B, slice []float32) {
	b.SetBytes(int64(4 * len(slice)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = imaging.Preprocess(slice, 256, 256, 256)
	}
}

// benchSink keeps a measured call's result alive.
var benchSink []float32

// BenchmarkINT8Inference256 runs one INT8 frame at the paper's 256×256,
// where a frame's working set leaves L2 (the volume_study frame): the
// harness to take a one-core CPU profile of the kernels under.
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
