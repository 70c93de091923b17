// Worker-count determinism: every numeric kernel in this repository must
// produce bit-identical results no matter how many goroutines internal/par
// hands it. The INT8 path is exact integer arithmetic partitioned over
// disjoint output regions; the FP32 path fixes each output element's
// accumulation order regardless of how the index space is chunked. These
// tests sweep par.SetMaxWorkers across 1..2·NumCPU and compare everything
// against the serial run. The FP32 inference output of a slice also does not
// depend on how many slices share its batch, which lets every evaluation run
// one slice per forward.
package seneca_test

import (
	"runtime"
	"testing"

	"seneca/internal/nn"
	"seneca/internal/par"
	"seneca/internal/quant"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/unet3d"
	"seneca/internal/xmodel"
)

func testProgram(t *testing.T, name string, size int) *xmodel.Program {
	t.Helper()
	cfg, err := unet.ConfigByName(name)
	if err != nil {
		t.Fatal(err)
	}
	for (1 << (cfg.Depth + 1)) > size {
		cfg.Depth--
	}
	m := unet.New(cfg)
	g := m.Export(size, size)
	q, err := quant.QuantizeShapeOnly(g)
	if err != nil {
		t.Fatal(err)
	}
	p, err := xmodel.Compile(q, name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sweepWorkers runs body under worker caps 1..2·NumCPU (at least 4, so
// single-core hosts still exercise multi-goroutine chunking) and restores
// the previous cap afterwards.
func sweepWorkers(t *testing.T, body func(workers int)) {
	t.Helper()
	max := 2 * runtime.NumCPU()
	if max < 4 {
		max = 4
	}
	prev := par.MaxWorkers()
	defer par.SetMaxWorkers(prev)
	for w := 1; w <= max; w++ {
		par.SetMaxWorkers(w)
		body(w)
	}
}

func TestINT8MaskBitIdenticalAcrossWorkerCounts(t *testing.T) {
	prog := testProgram(t, "1M", 32)
	img := randomImage(32, 7)
	prev := par.SetMaxWorkers(1)
	defer par.SetMaxWorkers(prev)
	want, err := prog.Run(img)
	if err != nil {
		t.Fatal(err)
	}
	sweepWorkers(t, func(workers int) {
		got, err := prog.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: mask diverges from serial run at pixel %d: %d vs %d", workers, i, got[i], want[i])
			}
		}
	})
}

// trainStep runs one training forward and backward under a fixed output
// gradient and returns the output, the input gradient and every parameter
// gradient.
func trainStep(forward func(*tensor.Tensor, bool) *tensor.Tensor, backward func(*tensor.Tensor) *tensor.Tensor, params []*nn.Param, x *tensor.Tensor) [][]float32 {
	y := forward(x, true)
	g := tensor.New(y.Shape...)
	for i := range g.Data {
		g.Data[i] = float32(i%7-3) / 64
	}
	out := [][]float32{y.Data, backward(g).Data}
	for _, p := range params {
		out = append(out, p.Grad.Data)
	}
	return out
}

// TestFP32ForwardBitIdenticalAcrossWorkerCounts sweeps the FP32 path: the
// 2D U-Net's inference forward and one training step's gradients, and the
// 3D baseline's forward and backward. The convolutions' shared lowering
// splits im2col by row chunk and col2im by channel, and only the backward
// passes and the 3D layers reach every split. Each run builds its model
// afresh, so dropout masks and batch statistics start from the same state.
func TestFP32ForwardBitIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg, err := unet.ConfigByName("1M")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Depth = 2
	x := randomImage(32, 8).Reshape(1, 1, 32, 32)
	vol := tensor.FromSlice(append(randomImage(32, 9).Data, randomImage(32, 10).Data...), 1, 1, 8, 16, 16)
	runs := []struct {
		name string
		run  func() [][]float32
	}{
		{"2D forward", func() [][]float32 { return [][]float32{unet.New(cfg).Forward(x, false).Data} }},
		{"2D training step", func() [][]float32 {
			m := unet.New(cfg)
			return trainStep(m.Forward, m.Backward, m.Params(), x)
		}},
		{"3D forward and backward", func() [][]float32 {
			m := unet3d.New(unet3d.CTORGBaseline())
			return append(trainStep(m.Forward, m.Backward, m.Params(), vol), m.Forward(vol, false).Data)
		}},
	}
	prev := par.SetMaxWorkers(1)
	defer par.SetMaxWorkers(prev)
	for _, r := range runs {
		want := r.run()
		sweepWorkers(t, func(workers int) {
			for p, got := range r.run() {
				for i := range got {
					if got[i] != want[p][i] {
						t.Fatalf("workers=%d: %s diverges from serial run in result %d at %d: %v vs %v", workers, r.name, p, i, got[i], want[p][i])
					}
				}
			}
		})
	}
}

// TestFP32MaskIndependentOfBatchSize runs N slices through the 2D U-Net in
// one batch and in batches of 1, 2 and 4: each slice's softmax output, and so
// its Predict mask, must be the same bits whichever batch it rode in.
func TestFP32MaskIndependentOfBatchSize(t *testing.T) {
	cfg, err := unet.ConfigByName("1M")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Depth = 2
	m := unet.New(cfg)
	const n, size = 6, 32
	hw, out := size*size, cfg.NumClasses*size*size
	x := tensor.New(n, 1, size, size)
	for i := 0; i < n; i++ {
		copy(x.Data[i*hw:], randomImage(size, int64(20+i)).Data)
	}
	wantOut := m.Forward(x, false).Data
	wantMask := m.Predict(x)
	for _, b := range []int{1, 2, 4} {
		for lo := 0; lo < n; lo += b {
			hi := min(lo+b, n)
			part := tensor.FromSlice(x.Data[lo*hw:hi*hw], hi-lo, 1, size, size)
			for i, v := range m.Forward(part, false).Data {
				if v != wantOut[lo*out+i] {
					t.Fatalf("batch %d: slice %d output %d is %v, %v in one batch of %d", b, lo+i/out, i%out, v, wantOut[lo*out+i], n)
				}
			}
			for i, c := range m.Predict(part) {
				if c != wantMask[lo*hw+i] {
					t.Fatalf("batch %d: slice %d mask pixel %d is %d, %d in one batch of %d", b, lo+i/hw, i%hw, c, wantMask[lo*hw+i], n)
				}
			}
		}
	}
}

// TestMatMulVariantsBitIdenticalAcrossWorkerCounts pins the three GEMM
// kernels directly: the blocked inner loops fix each output element's
// accumulation order, so chunking the row space differently must not move a
// single bit.
func TestMatMulVariantsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const m, k, n = 37, 53, 29
	a := tensor.New(m, k)
	b := tensor.New(k, n)
	at := tensor.New(k, m)
	bt := tensor.New(n, k)
	fill := func(ts *tensor.Tensor, seed float32) {
		for i := range ts.Data {
			ts.Data[i] = seed * float32(i%17-8) / float32(i%11+1)
		}
	}
	fill(a, 0.3)
	fill(b, -0.7)
	fill(at, 1.1)
	fill(bt, 0.9)
	prev := par.SetMaxWorkers(1)
	defer par.SetMaxWorkers(prev)
	wantAB := tensor.New(m, n)
	wantAT := tensor.New(m, n)
	wantBT := tensor.New(m, n)
	tensor.MatMulInto(wantAB, a, b)
	tensor.MatMulATInto(wantAT, at, b)
	tensor.MatMulBTInto(wantBT, a, bt)
	got := tensor.New(m, n)
	check := func(workers int, name string, want *tensor.Tensor) {
		t.Helper()
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: %s diverges from serial run at %d: %v vs %v", workers, name, i, got.Data[i], want.Data[i])
			}
		}
	}
	sweepWorkers(t, func(workers int) {
		tensor.MatMulInto(got, a, b)
		check(workers, "MatMulInto", wantAB)
		tensor.MatMulATInto(got, at, b)
		check(workers, "MatMulATInto", wantAT)
		tensor.MatMulBTInto(got, a, bt)
		check(workers, "MatMulBTInto", wantBT)
	})
}
