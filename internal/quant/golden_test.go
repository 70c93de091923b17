package quant

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"seneca/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// ptqGolden is the committed snapshot of one full PTQ round trip: the
// deterministic tiny model of buildTestModel, quantized over its fixed
// calibration set and executed on a fixed input.
type ptqGolden struct {
	// InputFP is the input quantization factor stored in the xmodel.
	InputFP int `json:"input_fp"`
	// NodeFP maps every quantized node to its output fix position.
	NodeFP map[string]int `json:"node_fp"`
	// WeightFP maps each convolution to its weight fix position.
	WeightFP map[string]int `json:"weight_fp"`
	// WeightSum is the per-convolution sum of quantized weight codes — a
	// cheap digest that pins the exact INT8 rounding without committing
	// every kernel.
	WeightSum map[string]int `json:"weight_sum"`
	// Mask is the INT8 argmax segmentation of the fixed probe image, one
	// row per string, classes as digits.
	Mask []string `json:"mask"`
	// Int4Layer is the convolution flipped to INT4 for the mixed-precision
	// round-trip entry; the fields below pin its 4-bit weight rounding,
	// narrow output grid and the resulting segmentation.
	Int4Layer     string   `json:"int4_layer"`
	Int4WeightFP  int      `json:"int4_weight_fp"`
	Int4WeightSum int      `json:"int4_weight_sum"`
	Int4OutFP     int      `json:"int4_out_fp"`
	Int4Mask      []string `json:"int4_mask"`
}

// maskRows renders a 16×16 label map as digit strings, one per row.
func maskRows(labels []uint8) []string {
	rows := make([]string, 0, 16)
	for y := 0; y < 16; y++ {
		row := make([]byte, 16)
		for x := 0; x < 16; x++ {
			row[x] = '0' + labels[y*16+x]
		}
		rows = append(rows, string(row))
	}
	return rows
}

func goldenPath(name string) string { return filepath.Join("testdata", name) }

// TestPTQGoldenRoundTrip locks the whole INT8 PTQ pipeline — fold,
// calibrate, quantize, execute — against committed golden values. Any
// change to fix-position selection, weight rounding or the integer
// execution path shows up as a diff here before it can silently shift
// accuracy numbers. Regenerate with:
//
//	go test ./internal/quant/ -run PTQGolden -update
func TestPTQGoldenRoundTrip(t *testing.T) {
	_, g, calib := buildTestModel(t)
	q, err := PTQ(g, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}

	probe := tensor.New(1, 16, 16)
	rng := rand.New(rand.NewSource(77))
	for i := range probe.Data {
		probe.Data[i] = float32(rng.NormFloat64() * 0.5)
	}
	labels, err := q.ExecuteLabels(probe)
	if err != nil {
		t.Fatal(err)
	}

	got := ptqGolden{
		InputFP:   int(q.InputFP),
		NodeFP:    map[string]int{},
		WeightFP:  map[string]int{},
		WeightSum: map[string]int{},
	}
	for _, n := range q.Nodes {
		got.NodeFP[n.Name] = int(n.OutFP)
		if len(n.Weight) > 0 {
			got.WeightFP[n.Name] = int(n.WeightFP)
			sum := 0
			for _, w := range n.Weight {
				sum += int(w)
			}
			got.WeightSum[n.Name] = sum
		}
	}
	got.Mask = maskRows(labels)

	// Mixed-precision entry: the same model with one bottleneck convolution
	// dropped to INT4, locking BestFixPos, QuantizeSlice and RoundShift on the
	// 4-bit grid and the narrow-precision reference kernel in one round trip.
	got.Int4Layer = "bottleneck.a.conv"
	q4, err := PTQ(g, calib, Options{Config: &QConfig{Layers: map[string]int{got.Int4Layer: Bits4}}})
	if err != nil {
		t.Fatal(err)
	}
	n4 := q4.Node(got.Int4Layer)
	if n4 == nil || n4.Bits != Bits4 {
		t.Fatalf("golden INT4 layer %q missing or not INT4", got.Int4Layer)
	}
	got.Int4WeightFP = int(n4.WeightFP)
	got.Int4OutFP = int(n4.OutFP)
	for _, w := range n4.Weight {
		got.Int4WeightSum += int(w)
	}
	labels4, err := q4.ExecuteLabels(probe)
	if err != nil {
		t.Fatal(err)
	}
	got.Int4Mask = maskRows(labels4)

	path := goldenPath("ptq_golden.json")
	if *updateGolden {
		blob, err := json.MarshalIndent(&got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s", path)
		return
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	var want ptqGolden
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if got.InputFP != want.InputFP {
		t.Errorf("input fix position %d, golden %d", got.InputFP, want.InputFP)
	}
	if !reflect.DeepEqual(got.NodeFP, want.NodeFP) {
		t.Errorf("node fix positions diverged from golden:\n got %v\nwant %v", got.NodeFP, want.NodeFP)
	}
	if !reflect.DeepEqual(got.WeightFP, want.WeightFP) {
		t.Errorf("weight fix positions diverged from golden:\n got %v\nwant %v", got.WeightFP, want.WeightFP)
	}
	if !reflect.DeepEqual(got.WeightSum, want.WeightSum) {
		t.Errorf("quantized weight digests diverged from golden:\n got %v\nwant %v", got.WeightSum, want.WeightSum)
	}
	for y := range want.Mask {
		if y >= len(got.Mask) || got.Mask[y] != want.Mask[y] {
			t.Errorf("mask row %2d: got %s, golden %s", y, got.Mask[y], want.Mask[y])
		}
	}
	if got.Int4Layer != want.Int4Layer {
		t.Errorf("INT4 layer %q, golden %q", got.Int4Layer, want.Int4Layer)
	}
	if got.Int4WeightFP != want.Int4WeightFP {
		t.Errorf("INT4 weight fix position %d, golden %d", got.Int4WeightFP, want.Int4WeightFP)
	}
	if got.Int4WeightSum != want.Int4WeightSum {
		t.Errorf("INT4 weight digest %d, golden %d", got.Int4WeightSum, want.Int4WeightSum)
	}
	if got.Int4OutFP != want.Int4OutFP {
		t.Errorf("INT4 output fix position %d, golden %d", got.Int4OutFP, want.Int4OutFP)
	}
	for y := range want.Int4Mask {
		if y >= len(got.Int4Mask) || got.Int4Mask[y] != want.Int4Mask[y] {
			t.Errorf("INT4 mask row %2d: got %s, golden %s", y, got.Int4Mask[y], want.Int4Mask[y])
		}
	}
}
