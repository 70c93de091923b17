package backend

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"seneca/internal/ctorg"
	"seneca/internal/dpu"
	"seneca/internal/phantom"
	"seneca/internal/quant"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

// testProgram compiles a tiny shape-only-quantized U-Net at the given
// input size, plus the DPU device every backend factory receives.
func testProgram(t testing.TB, size int) (*dpu.Device, *xmodel.Program) {
	t.Helper()
	cfg := unet.Config{Name: "tiny", Depth: 2, BaseFilters: 8, InChannels: 1, NumClasses: 6, DropoutRate: 0, Seed: 2}
	m := unet.New(cfg)
	g := m.Export(size, size)
	q, err := quant.QuantizeShapeOnly(g)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := xmodel.Compile(q, cfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	return dpu.New(dpu.ZCU104B4096()), prog
}

// phantomImages renders a small synthetic CT-ORG-style slice set at the
// given resolution — the conformance suite's shared input batch.
func phantomImages(t testing.TB, size int) []*tensor.Tensor {
	t.Helper()
	vols := phantom.GenerateDataset(2, phantom.Options{Size: 2 * size, Slices: 6, Seed: 5, NoiseSigma: 12})
	ds := ctorg.Build(vols, size)
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	return ds.Images(idx)
}

// randomImages draws noise inputs of the program's geometry for tests that
// only need valid shapes.
func randomImages(size, n int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		img := tensor.New(1, size, size)
		for j := range img.Data {
			img.Data[j] = float32(rng.NormFloat64() * 0.3)
		}
		imgs[i] = img
	}
	return imgs
}

func TestKindsRegistered(t *testing.T) {
	kinds := Kinds()
	for _, want := range []string{KindCPUInt8, KindDPUSim, KindGPUSim} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("kind %q not registered (have %v)", want, kinds)
		}
	}
}

func TestParseSpec(t *testing.T) {
	got, err := ParseSpec("dpu-sim:2, cpu-int8 ,gpu-sim")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"dpu-sim", "dpu-sim", "cpu-int8", "gpu-sim"}
	if len(got) != len(want) {
		t.Fatalf("ParseSpec expanded to %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: %q, want %q", i, got[i], want[i])
		}
	}

	for _, bad := range []string{"", " , ", "npu-sim", "dpu-sim:0", "dpu-sim:x", "dpu-sim:-1",
		"dpu-sim:2000000000", "dpu-sim:1025", "dpu-sim:1000,cpu-int8:25"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted, want error", bad)
		}
	}
	if got, err := ParseSpec("dpu-sim:1000,cpu-int8:24"); err != nil || len(got) != MaxPoolSlots {
		t.Fatalf("a pool of exactly MaxPoolSlots: %d slots, err %v", len(got), err)
	}
}

func TestNewRejectsUnknownKindAndNilProgram(t *testing.T) {
	dev, prog := testProgram(t, 16)
	if _, err := New("npu-sim", dev, prog, Options{}); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("unknown kind error = %v", err)
	}
	if _, err := New(KindCPUInt8, dev, nil, Options{}); err == nil {
		t.Fatal("nil program accepted")
	}
	if _, err := New(KindDPUSim, nil, prog, Options{}); err == nil {
		t.Fatal("dpu-sim without a device accepted")
	}
}

func TestCostPositiveAndMonotonic(t *testing.T) {
	dev, prog := testProgram(t, 16)
	for _, kind := range Kinds() {
		be, err := New(kind, dev, prog, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := be.Health(); err != nil {
			t.Fatalf("%s: unhealthy at construction: %v", kind, err)
		}
		prev := Cost{}
		for _, frames := range []int{1, 2, 4, 8} {
			c := be.Cost(frames)
			if c.Latency <= 0 || c.Joules <= 0 {
				t.Fatalf("%s: Cost(%d) = %+v, want positive latency and energy", kind, frames, c)
			}
			if c.Latency < prev.Latency || c.Joules < prev.Joules {
				t.Fatalf("%s: Cost(%d) = %+v regressed below Cost of fewer frames %+v", kind, frames, c, prev)
			}
			prev = c
		}
	}
}

// TestCostIsExecuteAtSeedZero pins the one price: for every kind, the
// router's prediction for n frames is exactly the report Execute charges a
// batch of n frames at seed 0 — same latency, bit-equal joules.
func TestCostIsExecuteAtSeedZero(t *testing.T) {
	const size = 16
	dev, prog := testProgram(t, size)
	imgs := randomImages(size, 8, 5)
	for _, kind := range Kinds() {
		be, err := New(kind, dev, prog, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= len(imgs); n++ {
			_, rep, err := be.Execute(imgs[:n], 0)
			if err != nil {
				t.Fatal(err)
			}
			if c := be.Cost(n); rep.Frames != n || c.Latency != rep.Duration || c.Joules != rep.Joules {
				t.Fatalf("%s: Cost(%d) = %+v, Execute charged %+v", kind, n, c, rep)
			}
		}
	}
}

// TestExecuteRacesCost is the interface's concurrency contract under -race:
// Cost is called while batches execute on the same backend (the serving tier
// prices every batch this way), on every kind, and neither disturbs the
// other — every mask matches the reference and every prediction the idle
// one.
func TestExecuteRacesCost(t *testing.T) {
	const size = 16
	dev, prog := testProgram(t, size)
	imgs := randomImages(size, 4, 9)
	want := make([][]uint8, len(imgs))
	for i, img := range imgs {
		var err error
		if want[i], err = prog.Run(img); err != nil {
			t.Fatal(err)
		}
	}
	for _, kind := range Kinds() {
		be, err := New(kind, dev, prog, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		idle := be.Cost(len(imgs))
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(2)
			go func(seed int64) {
				defer wg.Done()
				masks, _, err := be.Execute(imgs, seed)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range masks {
					if !bytes.Equal(masks[i], want[i]) {
						t.Errorf("%s: frame %d differs from Program.Run under concurrent pricing", kind, i)
					}
				}
			}(int64(g))
			go func() {
				defer wg.Done()
				for n := 0; n < 50; n++ {
					if c := be.Cost(len(imgs)); c != idle {
						t.Errorf("%s: Cost moved under a concurrent Execute: %+v, idle %+v", kind, c, idle)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestSteadyKindsPriceUnchanged pins cpu-int8's and gpu-sim's one-frame price
// for every Table II configuration at 64² to the values their roofline frames
// have always had (each kind's instruction-stream roofline at its own
// constants, at constant watts).
func TestSteadyKindsPriceUnchanged(t *testing.T) {
	want := []struct {
		model, kind string
		latency     time.Duration
		joules      float64
	}{
		{"1M", KindCPUInt8, 1456321, 0.055340198},
		{"1M", KindGPUSim, 9748476, 0.760381128},
		{"2M", KindCPUInt8, 1262467, 0.047973746},
		{"2M", KindGPUSim, 9833980, 0.7670504400000001},
		{"4M", KindCPUInt8, 1604567, 0.060973546},
		{"4M", KindGPUSim, 9946118, 0.7757972040000001},
		{"8M", KindCPUInt8, 2305013, 0.08759049399999999},
		{"8M", KindGPUSim, 10177500, 0.793845},
		{"16M", KindCPUInt8, 3941458, 0.149775404},
		{"16M", KindGPUSim, 10713890, 0.8356834200000001},
	}
	progs := map[string]*xmodel.Program{}
	for _, cfg := range unet.TableII() {
		q, err := quant.QuantizeShapeOnly(unet.New(cfg).Export(64, 64))
		if err != nil {
			t.Fatal(err)
		}
		if progs[cfg.Name], err = xmodel.Compile(q, cfg.Name); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range want {
		be, err := New(w.kind, nil, progs[w.model], Options{})
		if err != nil {
			t.Fatal(err)
		}
		if c := be.Cost(1); c.Latency != w.latency || c.Joules != w.joules {
			t.Errorf("%s on %s: Cost(1) = %d ns, %v J; want %d ns, %v J", w.model, w.kind, c.Latency, c.Joules, w.latency, w.joules)
		}
	}
}
