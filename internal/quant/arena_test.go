package quant

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"seneca/internal/graph"
	"seneca/internal/par"
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

// TestExecuteLabelsSteadyStateAllocs pins the arena's purpose: after the
// pool is warm, an INT8 inference allocates only the returned mask plus a
// handful of closures — not a fresh buffer per layer.
func TestExecuteLabelsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	_, g, calib := buildTestModel(t)
	q, err := PTQ(g, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	old := par.MaxWorkers()
	par.SetMaxWorkers(1) // goroutine spawn costs would otherwise dominate
	defer par.SetMaxWorkers(old)
	img := calib[0]
	if _, err := q.ExecuteLabels(img); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := q.ExecuteLabels(img); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 48 {
		t.Fatalf("steady-state INT8 inference does %v allocs, want ≤48", allocs)
	}
}

// TestNewExecutorRejectsMalformedGraph checks the constructor fails cleanly
// instead of panicking inside a kernel.
func TestNewExecutorRejectsMalformedGraph(t *testing.T) {
	q := &QGraph{
		Nodes: []*QNode{{
			Name: "conv", Kind: graph.KindConv,
			Inputs: []string{"missing"},
			Kernel: 3, Stride: 1, Pad: 1, OutC: 4,
			OutShape: [3]int{4, 8, 8},
		}},
		OutputName: "conv",
	}
	q.RebuildIndex()
	if _, err := NewExecutor(q); err == nil {
		t.Fatal("NewExecutor accepted a graph with a dangling input")
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
