package xmodel

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"seneca/internal/quant"
	"seneca/internal/tensor"
	"seneca/internal/unet"
)

// mixedTestProgram compiles the tiny test network with one INT4 layer and
// one FP32-fallback layer.
func mixedTestProgram(t *testing.T) (*Program, []*tensor.Tensor) {
	t.Helper()
	cfg := unet.Config{Name: "tiny-mixed", Depth: 2, BaseFilters: 4, InChannels: 1, NumClasses: 6, DropoutRate: 0.1, Seed: 11}
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
	q, err := quant.PTQ(g, calib, quant.Options{Config: &quant.QConfig{Layers: map[string]int{
		"bottleneck.a.conv": quant.Bits4,
		"enc0.a.conv":       quant.BitsFP32,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(q, cfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	return prog, calib
}

// TestMixedPrecisionSerializationRoundTrip checks the v2 format carries
// per-layer precision and FP32 payloads losslessly: the reloaded program
// must agree bit-for-bit with the original.
func TestMixedPrecisionSerializationRoundTrip(t *testing.T) {
	prog, calib := mixedTestProgram(t)
	var buf bytes.Buffer
	if err := prog.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n4 := loaded.Graph.Node("bottleneck.a.conv")
	if n4 == nil || n4.Bits != quant.Bits4 {
		t.Fatalf("INT4 layer lost its precision on reload")
	}
	nf := loaded.Graph.Node("enc0.a.conv")
	if nf == nil || nf.Bits != quant.BitsFP32 || len(nf.WeightF) == 0 || len(nf.BiasF) == 0 {
		t.Fatalf("FP32-fallback layer lost its float payload on reload")
	}
	for fi, img := range calib {
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
				t.Fatalf("frame %d: reloaded mixed program disagrees at pixel %d", fi, i)
			}
		}
	}
}

// TestLoweringScalesBytesWithBits compares the instruction streams of the
// uniform-INT8 and mixed-precision compiles: the INT4 layer must move fewer
// weight and output bytes, the FP32 layer four bytes per parameter.
func TestLoweringScalesBytesWithBits(t *testing.T) {
	prog8, _, _ := compiledTestProgram(t)
	progM, _ := mixedTestProgram(t)
	find := func(p *Program, node string) *Instruction {
		for i := range p.Instructions {
			if p.Instructions[i].Node == node {
				return &p.Instructions[i]
			}
		}
		t.Fatalf("instruction for %q not found", node)
		return nil
	}
	i8, i4 := find(prog8, "bottleneck.a.conv"), find(progM, "bottleneck.a.conv")
	if i4.Bits != quant.Bits4 {
		t.Fatalf("INT4 instruction tagged bits %d", i4.Bits)
	}
	if i4.WeightBytes >= i8.WeightBytes {
		t.Errorf("INT4 weight bytes %d not below INT8's %d", i4.WeightBytes, i8.WeightBytes)
	}
	if i4.OutBytes >= i8.OutBytes {
		t.Errorf("INT4 output bytes %d not below INT8's %d", i4.OutBytes, i8.OutBytes)
	}
	if i4.MACs != i8.MACs {
		t.Errorf("MAC count changed with precision: %d vs %d", i4.MACs, i8.MACs)
	}
	f8, fM := find(prog8, "enc0.a.conv"), find(progM, "enc0.a.conv")
	if fM.Bits != quant.BitsFP32 {
		t.Fatalf("FP32 instruction tagged bits %d", fM.Bits)
	}
	wantF := 4 * (int64(fM.InC*fM.OutC*fM.Kernel*fM.Kernel) + int64(fM.OutC))
	if fM.WeightBytes != wantF {
		t.Errorf("FP32 weight bytes %d, want 4 bytes per parameter = %d", fM.WeightBytes, wantF)
	}
	if fM.WeightBytes <= f8.WeightBytes {
		t.Errorf("FP32 weight bytes %d not above INT8's %d", fM.WeightBytes, f8.WeightBytes)
	}
	if fM.OutBytes != f8.OutBytes {
		t.Errorf("FP32 output bytes %d changed (output re-enters the int8 grid), want %d", fM.OutBytes, f8.OutBytes)
	}
}

// miniFile hand-builds a one-node xmodel file at the given version; bits is
// the precision byte (version 2 only).
func miniFile(ver uint32, bits byte) []byte {
	var b bytes.Buffer
	b.WriteString("XMDL")
	w32 := func(v uint32) { b.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}) }
	wstr := func(s string) { w32(uint32(len(s))); b.WriteString(s) }
	w32(ver)
	wstr("m")
	w32(1) // inC
	w32(8) // inH
	w32(8) // inW
	w32(6) // inputFP
	w32(3) // numClasses
	wstr("in")
	w32(1) // node count
	wstr("in")
	b.WriteByte(0) // KindInput
	w32(0)         // no inputs
	for i := 0; i < 9; i++ {
		w32(0)
	}
	b.WriteByte(0) // fusedReLU
	if ver >= 2 {
		b.WriteByte(bits)
	}
	w32(1) // outShape C
	w32(8) // H
	w32(8) // W
	w32(0) // weight len
	w32(0) // bias len
	if ver >= 2 {
		w32(0) // weightF len
		w32(0) // biasF len
	}
	return b.Bytes()
}

// TestReadVersionCompat pins the compatibility contract: version-1 files
// (no precision byte) still load as uniform INT8, and version-2 files with
// an out-of-range bitwidth fail with an error, not a panic.
func TestReadVersionCompat(t *testing.T) {
	prog, err := Read(bytes.NewReader(miniFile(1, 0)))
	if err != nil {
		t.Fatalf("version-1 file rejected: %v", err)
	}
	for _, n := range prog.Graph.Nodes {
		if n.Bits != 0 {
			t.Fatalf("version-1 node %q loaded with bits %d", n.Name, n.Bits)
		}
	}
	if _, err := Read(bytes.NewReader(miniFile(2, 8))); err != nil {
		t.Fatalf("version-2 file rejected: %v", err)
	}
	for _, bad := range []byte{1, 2, 5, 16, 64, 255} {
		if _, err := Read(bytes.NewReader(miniFile(2, bad))); err == nil {
			t.Errorf("bitwidth %d accepted", bad)
		}
	}
}

// TestReadDeclaredSizeHoldsNoMemory: an FP32 node whose float weights declare
// 2^24 values over a short body costs what the body holds, not the 64 MiB it
// declares.
func TestReadDeclaredSizeHoldsNoMemory(t *testing.T) {
	b := miniFile(2, quant.BitsFP32)
	b = append(b[:len(b)-8], 0, 0, 0, 1) // weightF len 1<<24, replacing both float lengths
	b = append(b, make([]byte, 64)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "float") {
		t.Fatalf("truncated float payload: error %v, want one naming it", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Read allocated %d bytes for a %d-byte file", got, len(b))
	}
}
