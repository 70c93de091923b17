package xmodel

import (
	"bytes"
	"testing"

	"seneca/internal/graph"
	"seneca/internal/quant"
	"seneca/internal/tensor"
	"seneca/internal/unet"
)

// tinyProgramBytes compiles and serializes a minimal real network for the
// seed corpus.
func tinyProgramBytes(t testing.TB) []byte {
	t.Helper()
	cfg := unet.Config{Name: "fuzz-seed", Depth: 1, BaseFilters: 4, InChannels: 1, NumClasses: 3, Seed: 7}
	g := unet.New(cfg).Export(8, 8)
	q, err := quant.QuantizeShapeOnly(g)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(q, cfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prog.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stridedConvBytes serializes the tiny network with its first convolution
// set to stride 2, which Write stores and Read must refuse. It returns the
// bytes and the node's name.
func stridedConvBytes(t testing.TB) ([]byte, string) {
	t.Helper()
	prog, err := Read(bytes.NewReader(tinyProgramBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	var name string
	for _, n := range prog.Graph.Nodes {
		if n.Kind == graph.KindConv {
			n.Stride, name = 2, n.Name
			break
		}
	}
	var buf bytes.Buffer
	if err := prog.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), name
}

// mixedProgramBytes serializes the same network with a per-layer precision
// mix (INT4 + FP32 fallback), seeding the corpus with the version-2 bits
// byte and float payloads.
func mixedProgramBytes(t testing.TB) []byte {
	t.Helper()
	cfg := unet.Config{Name: "fuzz-seed-mixed", Depth: 1, BaseFilters: 4, InChannels: 1, NumClasses: 3, Seed: 7}
	g := unet.New(cfg).Export(8, 8)
	img := tensor.New(1, 8, 8)
	for i := range img.Data {
		img.Data[i] = float32(i%13)/13 - 0.5
	}
	q, err := quant.PTQ(g, []*tensor.Tensor{img}, quant.Options{Config: &quant.QConfig{Layers: map[string]int{
		"bottleneck.a.conv": quant.Bits4,
		"head.conv":         quant.BitsFP32,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(q, cfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prog.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadProgram feeds arbitrary bytes to the xmodel decoder. The
// contract: Read returns a compiled program or an error — it must never
// panic, even though decoding re-runs the full Compile pass (activation
// fusion, instruction lowering) on whatever graph the bytes describe.
// Historical panics this guards against: a ReLU node with zero inputs
// (index out of range in fuseActivations) and a transpose convolution
// with stride 0 (integer divide in loweredConv).
func FuzzReadProgram(f *testing.F) {
	seed := tinyProgramBytes(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte("XMDL"))
	f.Add([]byte{})
	mixed := mixedProgramBytes(f)
	f.Add(mixed)
	f.Add(mixed[:len(mixed)*3/4])
	// Version-2 one-node files: a valid INT8 node, and precision bytes the
	// decoder must reject without panicking.
	f.Add(miniFile(2, 8))
	f.Add(miniFile(2, 5))
	f.Add(miniFile(2, 255))
	strided, _ := stridedConvBytes(f)
	f.Add(strided)

	// A hand-built minimal file: input node only, version 1.
	var mini bytes.Buffer
	mini.WriteString("XMDL")
	w32 := func(v uint32) { mini.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}) }
	wstr := func(s string) { w32(uint32(len(s))); mini.WriteString(s) }
	w32(1)            // version
	wstr("m")         // name
	w32(1)            // inC
	w32(8)            // inH
	w32(8)            // inW
	w32(6)            // inputFP
	w32(3)            // numClasses
	wstr("in")        // outputName
	w32(1)            // node count
	wstr("in")        // node name
	mini.WriteByte(0) // KindInput
	w32(0)            // no inputs
	for i := 0; i < 9; i++ {
		w32(0) // kernel..weightFP
	}
	mini.WriteByte(0) // fusedReLU
	w32(1)            // outShape C
	w32(8)            // H
	w32(8)            // W
	w32(0)            // weight len
	w32(0)            // bias len
	f.Add(mini.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := Read(bytes.NewReader(data))
		if err != nil {
			if prog != nil {
				t.Fatal("Read returned both a program and an error")
			}
			return
		}
		// Anything the decoder accepts must survive its own invariants:
		// a workload summary and a re-serialization round trip.
		_ = prog.Stats()
		var buf bytes.Buffer
		if err := prog.Write(&buf); err != nil {
			t.Fatalf("re-encoding accepted program: %v", err)
		}
		if _, err := Read(&buf); err != nil {
			t.Fatalf("re-decoding own output: %v", err)
		}
	})
}
