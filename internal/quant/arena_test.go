package quant

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"seneca/internal/graph"
	"seneca/internal/par"
	"seneca/internal/tensor"
	"seneca/internal/unet"
)

// TestExecutorReuseBitIdentical runs one executor across many frames and
// checks every mask against a fresh executor. Arena buffers are reused dirty
// between frames, so any kernel that reads stale state (unzeroed im2col
// padding, uncleaned accumulators) diverges here.
func TestExecutorReuseBitIdentical(t *testing.T) {
	_, g, calib := buildTestModel(t)
	q, err := PTQ(g, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reused, err := NewExecutor(q)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i, img := range calib {
			got, err := reused.ExecuteLabels(img)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewExecutor(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.ExecuteLabels(img)
			if err != nil {
				t.Fatal(err)
			}
			for p := range want {
				if got[p] != want[p] {
					t.Fatalf("round %d frame %d: reused arena diverges at pixel %d: %d vs %d", round, i, p, got[p], want[p])
				}
			}
		}
	}
}

// storeTargets annotates q the way the compiler does: an INT8 convolution or
// transpose convolution read by one concat and nobody else writes straight
// into that concat's buffer.
func storeTargets(q *QGraph) {
	readers := make(map[string]int)
	for _, n := range q.Nodes {
		for _, in := range n.Inputs {
			readers[in]++
		}
	}
	for _, n := range q.Nodes {
		if n.Kind != graph.KindConcat {
			continue
		}
		offset := 0
		for _, name := range n.Inputs {
			p := q.Node(name)
			if (p.Kind == graph.KindConv || p.Kind == graph.KindConvTranspose) && readers[name] == 1 && effBits(p) == Bits8 {
				p.StoreTarget, p.StoreOffset, p.StoreShift = n.Name, offset, RequantShift(p.OutFP, n.OutFP)
			}
			offset += p.OutShape[0]
		}
	}
}

// TestBordersStayZero pins the invariant the arena's layout rests on: a
// border or ghost cell is zeroed when the arena is made and no kernel ever
// writes one. After twenty random frames through one executor — every Table
// II configuration with its store targets, and a graph that mixes INT8, INT4
// and FP32 layers — every cell outside every activation's interior is still
// zero, and frame 21 on frame 1's input gives frame 1's mask.
func TestBordersStayZero(t *testing.T) {
	graphs := make(map[string]*QGraph)
	for _, cfg := range unet.TableII() {
		q, err := QuantizeShapeOnly(unet.New(cfg).Export(64, 64))
		if err != nil {
			t.Fatal(err)
		}
		storeTargets(q)
		graphs[cfg.Name] = q
	}
	_, g, calib := buildTestModel(t)
	names := convNames(t, g)
	mixed, err := PTQ(g, calib, Options{Config: &QConfig{Layers: map[string]int{
		names[1]: Bits4, names[len(names)/2]: BitsFP32, names[len(names)-2]: Bits4,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	storeTargets(mixed)
	graphs["mixed"] = mixed

	for name, q := range graphs {
		ex, err := NewExecutor(q)
		if err != nil {
			t.Fatal(err)
		}
		var fused int
		for i := range ex.steps {
			if ex.steps[i].out.target != nil {
				fused++
			}
		}
		if fused == 0 {
			t.Fatalf("%s: no activation is a store target's planes", name)
		}
		rng := rand.New(rand.NewSource(24))
		frame := func() *tensor.Tensor {
			img := tensor.New(q.InC, q.InH, q.InW)
			for i := range img.Data {
				img.Data[i] = float32(rng.NormFloat64())
			}
			return img
		}
		first := frame()
		want, err := ex.ExecuteLabels(first)
		if err != nil {
			t.Fatal(err)
		}
		for f := 1; f < 20; f++ {
			if _, err := ex.ExecuteLabels(frame()); err != nil {
				t.Fatal(err)
			}
		}
		for i := range ex.steps {
			if s := &ex.steps[i]; s.out.target == nil {
				bordersZero(t, name+"/"+s.n.Name, s.out)
			}
		}
		got, err := ex.ExecuteLabels(first)
		if err != nil {
			t.Fatal(err)
		}
		for p := range want {
			if got[p] != want[p] {
				t.Fatalf("%s: frame 21 differs from frame 1 on the same input at pixel %d: %d vs %d", name, p, got[p], want[p])
			}
		}
	}
}

// TestExecuteLabelsAllocs pins the arena's purpose: after the pool is warm,
// an INT8 inference on one worker allocates at most one closure a pass of
// the frame — its nodes and the argmax — plus the returned mask, not a
// fresh buffer per layer. On the PTQ test model and on the 1M U-Net at the
// paper's 256×256, every element-wise pass there on its assembly body.
func TestExecuteLabelsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	_, g, calib := buildTestModel(t)
	small, err := PTQ(g, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := QuantizeShapeOnly(unet.New(unet.TableII()[0]).Export(256, 256))
	if err != nil {
		t.Fatal(err)
	}
	defer par.SetMaxWorkers(par.SetMaxWorkers(1)) // goroutine spawn costs would otherwise dominate
	for _, c := range []struct {
		name string
		q    *QGraph
		img  *tensor.Tensor
	}{{"test model", small, calib[0]}, {"1M@256", big, tensor.New(1, 256, 256)}} {
		ex, err := NewExecutor(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.ExecuteLabels(c.img); err != nil { // pack the weights
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := ex.ExecuteLabels(c.img); err != nil {
				t.Fatal(err)
			}
		})
		if limit := len(ex.steps) + 1 + 1; allocs > float64(limit) {
			t.Fatalf("%s: steady-state INT8 inference does %v allocs, want ≤ %d (%d nodes, the argmax and the mask)", c.name, allocs, limit, len(ex.steps))
		}
	}
}

// TestStepsMatchExecuteLabels drives frames through Steps' visitor, which
// seneca-inspect -profile times: every node in execution order and then the
// argmax is visited exactly once, and the mask Steps returns is the one
// ExecuteLabels returns for the same image, on every body this host can
// run.
func TestStepsMatchExecuteLabels(t *testing.T) {
	_, g, calib := buildTestModel(t)
	q, err := PTQ(g, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(q)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, n := range q.Nodes {
		want = append(want, n.Name)
	}
	want = append(want, "argmax")
	for _, b := range hostBodies() {
		withBody(b, func() {
			for _, img := range calib[:3] {
				var visited []string
				mask, err := ex.Steps(img, func(s Step, run func()) {
					if (s.Node == nil) != (s.Name == "argmax") || s.Node != nil && s.Node.Name != s.Name {
						t.Fatalf("step %q carries node %v", s.Name, s.Node)
					}
					visited = append(visited, s.Name)
					run()
				})
				if err != nil {
					t.Fatal(err)
				}
				if strings.Join(visited, " ") != strings.Join(want, " ") {
					t.Fatalf("%s: Steps visited %v, want %v", KernelISA(), visited, want)
				}
				labels, err := q.ExecuteLabels(img)
				if err != nil {
					t.Fatal(err)
				}
				if string(mask) != string(labels) {
					t.Fatalf("%s: Steps' mask differs from ExecuteLabels'", KernelISA())
				}
			}
		})
	}
}

// TestNewExecutorRejectsMalformedGraph checks the constructor fails cleanly,
// with an error naming the node, instead of panicking inside a kernel or
// running a layer no kernel is for.
func TestNewExecutorRejectsMalformedGraph(t *testing.T) {
	input := &QNode{Name: "in", Kind: graph.KindInput, OutShape: [3]int{2, 8, 8}}
	for _, tc := range []struct {
		what, want           string
		from                 string
		stride, bits, biases int
	}{
		{"a dangling input", `node "conv" input "missing" has no producer`, "missing", 1, Bits8, 4},
		{"a strided convolution", `node "conv": convolution at stride 2`, "in", 2, Bits8, 4},
		{"a strided INT4 convolution", `node "conv": convolution at stride 2`, "in", 2, Bits4, 4},
		{"an INT4 convolution short of biases", `node "conv": 3 biases for 4 output channels`, "in", 1, Bits4, 3},
	} {
		conv := &QNode{Name: "conv", Kind: graph.KindConv, Inputs: []string{tc.from},
			Kernel: 3, Stride: tc.stride, Pad: 1, InC: 2, OutC: 4, OutShape: [3]int{4, 8 / tc.stride, 8 / tc.stride},
			Weight: make([]int8, 4*2*3*3), Bias: make([]int32, tc.biases), Bits: tc.bits}
		q := &QGraph{Nodes: []*QNode{input, conv}, InC: 2, InH: 8, InW: 8, InputName: "in", OutputName: "conv"}
		q.RebuildIndex()
		if _, err := NewExecutor(q); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("NewExecutor on a graph with %s: error %v, want %q", tc.what, err, tc.want)
		}
	}
}

// TestFreeListIsBoundedAndSurvivesGC pins the two properties the free list
// has and a sync.Pool lacks: however many callers run at once it retains at
// most GOMAXPROCS executors, and the ones it retains are still there after
// garbage collections (a pool is emptied every second cycle, which cost a
// volume job one ≈20 MiB arena rebuild per job).
func TestFreeListIsBoundedAndSurvivesGC(t *testing.T) {
	_, g, calib := buildTestModel(t)
	q, err := PTQ(g, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	limit := runtime.GOMAXPROCS(0)
	held := make([]*Executor, 2*limit+1)
	for i := range held { // as many executors out at once as that many concurrent frames
		if held[i], err = q.executor(); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range held {
		q.recycle(e)
	}
	if len(q.free) != limit {
		t.Fatalf("free list holds %d executors after %d came back, want GOMAXPROCS = %d", len(q.free), len(held), limit)
	}
	kept := append([]*Executor(nil), q.free...)
	runtime.GC()
	runtime.GC()
	runtime.GC()
	for i := len(kept) - 1; i >= 0; i-- {
		e, err := q.executor()
		if err != nil {
			t.Fatal(err)
		}
		if e != kept[i] {
			t.Fatal("an idle executor did not survive garbage collection")
		}
	}
	if len(q.free) != 0 {
		t.Fatalf("free list holds %d executors with all of them out", len(q.free))
	}
}

// TestForFrames checks the frame fan-out's contract: every index runs exactly
// once, never on more goroutines than min(threads, GOMAXPROCS, frames), and
// the error reported is the lowest failing frame's.
func TestForFrames(t *testing.T) {
	for _, tc := range []struct{ n, threads int }{{0, 4}, {1, 4}, {3, 1}, {7, 2}, {64, 4}, {64, 64}, {5, 0}} {
		ran := make([]atomic.Int32, tc.n)
		var running, peak atomic.Int32
		err := ForFrames(tc.n, tc.threads, func(i int) error {
			now := running.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			runtime.Gosched() // let the other workers overlap
			ran[i].Add(1)
			running.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d threads=%d: %v", tc.n, tc.threads, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("n=%d threads=%d: frame %d ran %d times", tc.n, tc.threads, i, got)
			}
		}
		limit := max(min(tc.threads, runtime.GOMAXPROCS(0), tc.n), 1)
		if got := int(peak.Load()); tc.n > 0 && got > limit {
			t.Fatalf("n=%d threads=%d: %d frames ran at once, want ≤ %d", tc.n, tc.threads, got, limit)
		}
	}

	boom := errors.New("boom")
	err := ForFrames(16, 4, func(i int) error {
		if i == 5 || i == 11 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "frame 5:") {
		t.Fatalf("error = %v, want frame 5's", err)
	}
}
