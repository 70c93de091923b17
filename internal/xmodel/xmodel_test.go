package xmodel

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"seneca/internal/graph"
	"seneca/internal/quant"
	"seneca/internal/tensor"
	"seneca/internal/unet"
)

func compiledTestProgram(t *testing.T) (*Program, *quant.QGraph, []*tensor.Tensor) {
	t.Helper()
	q, calib := quantizedTestGraph(t, quant.Options{})
	prog, err := Compile(q, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	return prog, q, calib
}

// quantizedTestGraph is the tiny test network after PTQ under opt.
func quantizedTestGraph(t *testing.T, opt quant.Options) (*quant.QGraph, []*tensor.Tensor) {
	t.Helper()
	cfg := unet.Config{Name: "tiny", Depth: 2, BaseFilters: 4, InChannels: 1, NumClasses: 6, DropoutRate: 0.1, Seed: 11}
	m := unet.New(cfg)
	rng := rand.New(rand.NewSource(3))
	warm := tensor.New(2, 1, 16, 16)
	for i := range warm.Data {
		warm.Data[i] = float32(rng.NormFloat64() * 0.5)
	}
	m.Forward(warm, true)
	g := m.Export(16, 16)
	var calib []*tensor.Tensor
	for i := 0; i < 6; i++ {
		img := tensor.New(1, 16, 16)
		for j := range img.Data {
			img.Data[j] = float32(rng.NormFloat64() * 0.5)
		}
		calib = append(calib, img)
	}
	q, err := quant.PTQ(g, calib, opt)
	if err != nil {
		t.Fatal(err)
	}
	return q, calib
}

func TestCompileFusesReLU(t *testing.T) {
	prog, q, _ := compiledTestProgram(t)
	var reluNodes, fusedConvs int
	for _, n := range prog.Graph.Nodes {
		if n.Kind == graph.KindReLU {
			reluNodes++
		}
		if (n.Kind == graph.KindConv || n.Kind == graph.KindConvTranspose) && n.FusedReLU {
			fusedConvs++
		}
	}
	if reluNodes != 0 {
		t.Errorf("%d standalone ReLU nodes survived fusion", reluNodes)
	}
	if fusedConvs == 0 {
		t.Error("no convolutions carry a fused ReLU")
	}
	// Fusion must not mutate the source graph.
	for _, n := range q.Nodes {
		if n.FusedReLU {
			t.Fatalf("Compile mutated input graph node %q", n.Name)
		}
	}
}

func TestCompiledProgramMatchesQuantizedGraph(t *testing.T) {
	prog, q, calib := compiledTestProgram(t)
	for _, img := range calib {
		want, err := q.ExecuteLabels(img)
		if err != nil {
			t.Fatal(err)
		}
		got, err := prog.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		mismatch := 0
		for i := range want {
			if got[i] != want[i] {
				mismatch++
			}
		}
		// ReLU fusion changes only the scale at which intermediate
		// activations are stored (finer post-ReLU grid), so predictions may
		// flip on a tiny fraction of boundary pixels.
		if frac := float64(mismatch) / float64(len(want)); frac > 0.05 {
			t.Fatalf("fused program disagrees with quantized graph on %.1f%% of pixels", frac*100)
		}
	}
}

// TestStoreTargetFusionBitIdentical locks the store-target (concat elision)
// pass to its contract: the fused graph — convolutions writing straight into
// the consuming concat's buffer with two-step rounding — must be bit-for-bit
// identical to the unfused graph that materializes each side and copies it,
// on both the dequantized outputs and the argmax masks. The mixed-precision
// cases put a reference-kernel node on each side of a concat that still has
// a store target: a skip producer whose plain int8 output is widened and
// then copied in beside the fused planes, and a consumer that narrows the
// concat's planes back out.
func TestStoreTargetFusionBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layers map[string]int
	}{
		{"int8", nil},
		{"int4 producer, fp32 consumer", map[string]int{"enc1.b.conv": quant.Bits4, "dec1.a.conv": quant.BitsFP32}},
		{"fp32 producer, int4 consumer", map[string]int{"enc0.b.conv": quant.BitsFP32, "dec0.a.conv": quant.Bits4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := quant.Options{}
			if tc.layers != nil {
				opt.Config = &quant.QConfig{Layers: tc.layers}
			}
			q, calib := quantizedTestGraph(t, opt)
			for name := range tc.layers {
				if q.Node(name) == nil {
					t.Fatalf("the test network has no layer %q", name)
				}
			}
			unfused, err := fuseActivations(q)
			if err != nil {
				t.Fatal(err)
			}
			fused, err := fuseActivations(q)
			if err != nil {
				t.Fatal(err)
			}
			fuseStoreTargets(fused)
			var annotated int
			for _, n := range fused.Nodes {
				if n.StoreTarget != "" {
					annotated++
				}
			}
			if annotated == 0 {
				t.Fatal("store-target fusion annotated no producers; the comparison is vacuous")
			}
			for fi, img := range calib {
				wantOut, err := unfused.Execute(img)
				if err != nil {
					t.Fatal(err)
				}
				gotOut, err := fused.Execute(img)
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantOut.Data {
					if gotOut.Data[i] != wantOut.Data[i] {
						t.Fatalf("frame %d: fused output diverges at %d: %v vs %v", fi, i, gotOut.Data[i], wantOut.Data[i])
					}
				}
				wantMask, err := unfused.ExecuteLabels(img)
				if err != nil {
					t.Fatal(err)
				}
				gotMask, err := fused.ExecuteLabels(img)
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantMask {
					if gotMask[i] != wantMask[i] {
						t.Fatalf("frame %d: fused mask diverges at pixel %d: %d vs %d", fi, i, gotMask[i], wantMask[i])
					}
				}
			}
		})
	}
}

func TestInstructionStreamStructure(t *testing.T) {
	prog, _, _ := compiledTestProgram(t)
	if len(prog.Instructions) == 0 {
		t.Fatal("no instructions")
	}
	last := prog.Instructions[len(prog.Instructions)-1]
	if last.Op != OpSave {
		t.Fatalf("last instruction %s, want SAVE", last.Op)
	}
	var convs, pools, concats int
	for _, in := range prog.Instructions {
		switch in.Op {
		case OpConv:
			convs++
			if in.MACs <= 0 || in.WeightBytes <= 0 {
				t.Errorf("conv %q has empty workload: %+v", in.Node, in)
			}
		case OpDConv:
			if in.MACs <= 0 {
				t.Errorf("dconv %q has no MACs", in.Node)
			}
		case OpPool:
			pools++
		case OpConcat:
			concats++
		}
	}
	// Depth-2 U-Net: 4 encoder convs + 2 bottleneck + 4 decoder convs +
	// head = 11 convs; 2 pools; 2 concats.
	if convs != 11 {
		t.Errorf("%d CONV instructions, want 11", convs)
	}
	if pools != 2 || concats != 2 {
		t.Errorf("pools/concats = %d/%d, want 2/2", pools, concats)
	}
}

func TestStatsPositive(t *testing.T) {
	prog, _, _ := compiledTestProgram(t)
	s := prog.Stats()
	if s.MACs <= 0 || s.WeightBytes <= 0 || s.FeatureMapBytes <= 0 {
		t.Fatalf("stats not positive: %+v", s)
	}
	if s.Instructions != len(prog.Instructions) {
		t.Fatalf("instruction count mismatch")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	prog, _, calib := compiledTestProgram(t)
	var buf bytes.Buffer
	if err := prog.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != prog.Name {
		t.Fatalf("name %q", loaded.Name)
	}
	if len(loaded.Instructions) != len(prog.Instructions) {
		t.Fatalf("instruction count %d vs %d", len(loaded.Instructions), len(prog.Instructions))
	}
	// Bit-exact functional agreement.
	for _, img := range calib {
		want, err := prog.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("loaded program disagrees at pixel %d", i)
			}
		}
	}
}

// TestWriteBytesGolden pins the bytes Write produces for the INT8 and the
// mixed-precision test programs, so a change to the encoder that keeps
// round trips working but moves a byte on disk is caught.
func TestWriteBytesGolden(t *testing.T) {
	int8Prog, _, _ := compiledTestProgram(t)
	mixedProg, _ := mixedTestProgram(t)
	for _, c := range []struct {
		name string
		prog *Program
		want string
	}{
		{"int8", int8Prog, "ec22721d1c215ecd9927f0d5fef999f2c0b87b83d2ddfffee879467665cdc7fb"},
		{"mixed", mixedProg, "30d35dfd2684e2bf308c27311d16a4c599822efcab1bacd4734e0b1707efb057"},
	} {
		var buf bytes.Buffer
		if err := c.prog.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.want {
			t.Errorf("%s: Write bytes sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not an xmodel at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// A well-formed file with a stride-2 convolution is refused when it is
	// read, naming the node, not at the first frame of an executor built
	// lazily after the server has started.
	data, name := stridedConvBytes(t)
	want := fmt.Sprintf("node %q: convolution at stride 2", name)
	if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("stride-2 convolution: error %v, want %q", err, want)
	}
}

func TestWriteReadFile(t *testing.T) {
	prog, _, _ := compiledTestProgram(t)
	path := t.TempDir() + "/m.xmodel"
	if err := prog.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats() != prog.Stats() {
		t.Fatal("stats differ after file round trip")
	}
}

// TestArenaBytes pins what one executor of the benchmark's volume model — the
// 1M U-Net at the paper's 256×256, compiled — keeps resident: every
// activation once, as cells, a concat's inputs inside the concat, and nothing
// beside them. (Before the arena held cells it was 14.9 MiB: 6.36 of int8
// activations, a 2.03 widened plane and 6.50 of transpose-convolution columns
// and accumulators.)
func TestArenaBytes(t *testing.T) {
	cfg, err := unet.ConfigByName("1M")
	if err != nil {
		t.Fatal(err)
	}
	q, err := quant.QuantizeShapeOnly(unet.New(cfg).Export(256, 256))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(q, "1M")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := quant.NewExecutor(prog.Graph)
	if err != nil {
		t.Fatal(err)
	}
	const want = 11906704 // 11.36 MiB
	if got := ex.ArenaBytes(); got != want {
		t.Fatalf("arena is %d bytes (%.2f MiB), want %d", got, float64(got)/(1<<20), want)
	}
}
