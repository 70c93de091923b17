package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1023} {
		hits := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times, want exactly 1", n, i, h)
			}
		}
	}
}

func TestForChunkedRangesPartition(t *testing.T) {
	n := 1000
	var total int64
	ForChunked(n, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if total != int64(n) {
		t.Fatalf("chunks cover %d indices, want %d", total, n)
	}
}

func TestSetMaxWorkers(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	if MaxWorkers() != 1 {
		t.Fatalf("MaxWorkers = %d, want 1", MaxWorkers())
	}
	// Serial path must still cover every index.
	n := 50
	hits := make([]int, n)
	For(n, func(i int) { hits[i]++ })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("serial: index %d hit %d times", i, h)
		}
	}
}

func TestReduceSumMatchesSerial(t *testing.T) {
	f := func(raw []float64) bool {
		// Constrain magnitudes: float addition is only approximately
		// associative, and quick loves ±1e308 inputs where reordering
		// overflows. Moderate values are what the numeric kernels see.
		vals := make([]float64, len(raw))
		for i, v := range raw {
			for v > 1e6 || v < -1e6 {
				v /= 1e6
			}
			if v != v { // NaN
				v = 0
			}
			vals[i] = v
		}
		var want float64
		for _, v := range vals {
			want += v
		}
		got := ReduceSum(len(vals), func(i int) float64 { return vals[i] })
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if want < 0 {
			scale = -want
		} else if want > 0 {
			scale = want
		}
		return diff <= 1e-9*scale+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSetMaxWorkers exercises SetMaxWorkers racing against running
// loops — the benchmark/test toggling pattern — under the race detector.
func TestConcurrentSetMaxWorkers(t *testing.T) {
	prev := MaxWorkers()
	defer SetMaxWorkers(prev)
	stop := make(chan struct{})
	var togglers sync.WaitGroup
	for w := 1; w <= 4; w++ {
		togglers.Add(1)
		go func(w int) {
			defer togglers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					SetMaxWorkers(w)
				}
			}
		}(w)
	}
	for iter := 0; iter < 200; iter++ {
		n := 64
		hits := make([]int32, n)
		ForChunked(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("iter %d: index %d hit %d times, want 1", iter, i, h)
			}
		}
		if got := ReduceSum(100, func(i int) float64 { return float64(i) }); got != 4950 {
			t.Fatalf("iter %d: ReduceSum = %v, want 4950", iter, got)
		}
	}
	close(stop)
	togglers.Wait()
}

// TestNestedLoopsStayWithinBudget verifies the nested-parallelism budget:
// par loops spawned from within an already-parallel region must still cover
// every index, and the total number of extra workers in flight must never
// exceed MaxWorkers-1 regardless of nesting depth.
func TestNestedLoopsStayWithinBudget(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	outer, inner := 8, 512
	hits := make([]int32, outer*inner)
	var peak int32
	For(outer, func(i int) {
		ForChunked(inner, func(lo, hi int) {
			if f := inFlight.Load(); f > atomic.LoadInt32(&peak) {
				atomic.StoreInt32(&peak, f)
			}
			for j := lo; j < hi; j++ {
				atomic.AddInt32(&hits[i*inner+j], 1)
			}
		})
	})
	for idx, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times, want 1", idx, h)
		}
	}
	if max := int32(MaxWorkers() - 1); peak > max {
		t.Fatalf("observed %d extra workers in flight, budget is %d", peak, max)
	}
	if inFlight.Load() != 0 {
		t.Fatalf("inFlight = %d after all loops returned, want 0", inFlight.Load())
	}
}

// TestReduceSumDeterministicAtFixedWorkers is the regression test for the
// scheduler-dependent partial-sum ordering bug: partials used to be appended
// in goroutine-completion order, so ill-conditioned float64 inputs summed to
// different values run-to-run even at a fixed worker count. Partials are now
// stored at their chunk index and summed in chunk order, so repeated runs
// must be bit-identical.
func TestReduceSumDeterministicAtFixedWorkers(t *testing.T) {
	// Ill-conditioned inputs: large cancelling magnitudes interleaved with
	// small ones, so any reordering of the partial sums changes the result.
	n := 4096
	vals := make([]float64, n)
	for i := range vals {
		switch i % 4 {
		case 0:
			vals[i] = 1e16
		case 1:
			vals[i] = 1.0 + float64(i)
		case 2:
			vals[i] = -1e16
		default:
			vals[i] = 1e-8 * float64(i)
		}
	}
	for _, w := range []int{2, 3, 4, 7} {
		prev := SetMaxWorkers(w)
		first := ReduceSum(n, func(i int) float64 { return vals[i] })
		for run := 0; run < 200; run++ {
			got := ReduceSum(n, func(i int) float64 { return vals[i] })
			if got != first {
				SetMaxWorkers(prev)
				t.Fatalf("workers=%d run %d: sum %v != first run %v (nondeterministic partial order)", w, run, got, first)
			}
		}
		SetMaxWorkers(prev)
	}
}

// TestForChunkedReservationMatchesChunks is the regression test for the
// over-reservation bug: ForChunked used to reserve workers-1 goroutines and
// then ceil-divide the range, so n=9 at workers=4 produced 3 chunks while
// holding 3 reservations — one reserved worker sat idle, starving concurrent
// loops until release. The reservation must never exceed chunks-1.
func TestForChunkedReservationMatchesChunks(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	for _, n := range []int{9, 5, 7, 13, 21} {
		var chunks int32
		var peak int32
		ForChunked(n, func(lo, hi int) {
			atomic.AddInt32(&chunks, 1)
			if f := inFlight.Load(); f > atomic.LoadInt32(&peak) {
				atomic.StoreInt32(&peak, f)
			}
		})
		if got, limit := atomic.LoadInt32(&peak), atomic.LoadInt32(&chunks)-1; got > limit {
			t.Fatalf("n=%d: %d workers reserved for %d chunks (limit %d): reservation not sized from chunk count", n, got, chunks, limit)
		}
		if inFlight.Load() != 0 {
			t.Fatalf("n=%d: inFlight = %d after return, want 0", n, inFlight.Load())
		}
	}
}

// TestForChunkedIDDenseIDsAndCap checks the chunk-id contract: ids are dense
// in [0, chunks), each id's range partitions [0, n) in order, and the id
// space never exceeds maxChunks (callers size per-chunk scratch from it).
func TestForChunkedIDDenseIDsAndCap(t *testing.T) {
	prev := SetMaxWorkers(8)
	defer SetMaxWorkers(prev)
	for _, tc := range []struct{ n, maxChunks int }{
		{100, 3}, {100, 100}, {7, 2}, {1, 5}, {64, 1},
	} {
		var mu sync.Mutex
		ranges := map[int][2]int{}
		ForChunkedID(tc.n, tc.maxChunks, func(id, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			if id < 0 || id >= tc.maxChunks {
				t.Errorf("n=%d maxChunks=%d: id %d out of range", tc.n, tc.maxChunks, id)
			}
			if _, dup := ranges[id]; dup {
				t.Errorf("n=%d: duplicate chunk id %d", tc.n, id)
			}
			ranges[id] = [2]int{lo, hi}
		})
		covered := 0
		for id := 0; id < len(ranges); id++ {
			r, ok := ranges[id]
			if !ok {
				t.Fatalf("n=%d: chunk ids not dense, missing %d of %d", tc.n, id, len(ranges))
			}
			covered += r[1] - r[0]
		}
		if covered != tc.n {
			t.Fatalf("n=%d maxChunks=%d: chunks cover %d indices, want %d", tc.n, tc.maxChunks, covered, tc.n)
		}
	}
}

func TestReduceSumEmptyAndWorkerSweep(t *testing.T) {
	if got := ReduceSum(0, func(int) float64 { return 1 }); got != 0 {
		t.Fatalf("empty ReduceSum = %v, want 0", got)
	}
	for _, w := range []int{1, 2, 3, 8} {
		prev := SetMaxWorkers(w)
		got := ReduceSum(100, func(i int) float64 { return float64(i) })
		SetMaxWorkers(prev)
		if got != 4950 {
			t.Fatalf("workers=%d: sum = %v, want 4950", w, got)
		}
	}
}
