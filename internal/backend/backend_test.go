package backend

import (
	"math/rand"
	"strings"
	"testing"

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
