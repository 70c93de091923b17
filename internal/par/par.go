// Package par provides small deterministic parallelism helpers used by the
// numeric kernels throughout the repository.
//
// All helpers split an index space across a bounded number of goroutines and
// wait for completion; no goroutine outlives the call. The work function must
// therefore be safe to run concurrently for disjoint index ranges, which all
// callers in this module guarantee by writing to disjoint output regions.
//
// # Nested-parallelism budget
//
// The helpers share a global worker budget of MaxWorkers extra goroutines.
// Each call reserves as many workers as are still available and runs the
// remainder of its chunks on the calling goroutine, so a par loop that runs
// inside an already-parallel region — a quant kernel under vart's submission
// threads under the serving tier, or a par loop inside another par loop —
// degrades toward serial execution instead of oversubscribing the machine
// with NumCPU× goroutines at every nesting level. The reservation is
// non-blocking, so nesting can never deadlock.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers caps the global number of concurrently running helper
// goroutines. It is atomic so tests and benchmarks can toggle it while loops
// are running (including under the race detector).
var maxWorkers atomic.Int32

// inFlight counts helper goroutines currently running across all concurrent
// par calls; reservations against it enforce the nested-parallelism budget.
var inFlight atomic.Int32

func init() { maxWorkers.Store(int32(runtime.NumCPU())) }

// SetMaxWorkers overrides the number of goroutines used by subsequent calls.
// n < 1 resets to runtime.NumCPU(). It returns the previous value. It is
// safe to call concurrently with running loops: loops already in flight keep
// the worker count they reserved, later loops observe the new cap.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = runtime.NumCPU()
	}
	return int(maxWorkers.Swap(int32(n)))
}

// MaxWorkers reports the current goroutine cap.
func MaxWorkers() int { return int(maxWorkers.Load()) }

// reserve grabs up to want extra workers from the global budget. The calling
// goroutine always counts as one worker, so at most MaxWorkers-1 extra
// goroutines are ever granted in total across concurrent loops.
func reserve(want int) int {
	if want <= 0 {
		return 0
	}
	for {
		cur := inFlight.Load()
		free := maxWorkers.Load() - 1 - cur
		if free <= 0 {
			return 0
		}
		grant := int32(want)
		if grant > free {
			grant = free
		}
		if inFlight.CompareAndSwap(cur, cur+grant) {
			return int(grant)
		}
	}
}

func release(n int) { inFlight.Add(int32(-n)) }

// For runs body(i) for every i in [0, n) using up to MaxWorkers goroutines.
// Iterations are distributed in contiguous chunks so adjacent indices land in
// the same goroutine, which preserves cache locality for the dense-tensor
// loops that dominate this code base.
func For(n int, body func(i int)) {
	// Serial fast path: with a worker cap of one (single-core hosts, loops
	// nested under saturated outer parallelism) skip the chunk-closure
	// allocation entirely — it keeps the steady-state INT8 inference path
	// allocation-free apart from the returned mask.
	if MaxWorkers() == 1 || n == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// chunkBounds returns the bounds of chunk id when [0, n) is split into
// chunks balanced ranges: the first n%chunks ranges take one extra element,
// so every chunk is non-empty and chunk count always equals the number of
// workers granted — ceil-division rounding can never strand a reserved
// worker without a range to run.
func chunkBounds(n, chunks, id int) (lo, hi int) {
	base, rem := n/chunks, n%chunks
	lo = id*base + min(id, rem)
	hi = lo + base
	if id < rem {
		hi++
	}
	return lo, hi
}

// ForChunked splits [0, n) into contiguous ranges and runs body(lo, hi) for
// each range concurrently, using the calling goroutine plus however many
// extra workers the global budget currently allows. Small n, a worker cap of
// one, and calls nested inside already-parallel regions all degrade
// gracefully to a single serial call.
func ForChunked(n int, body func(lo, hi int)) {
	ForChunkedID(n, n, func(_, lo, hi int) { body(lo, hi) })
}

// ForChunkedID is ForChunked with a dense chunk id: body runs once per chunk
// as body(id, lo, hi) with id in [0, chunks) where chunks never exceeds
// maxChunks. Callers use the id to index pre-sized per-chunk scratch (tile
// arenas in the quant executor) without any synchronization; maxChunks lets
// them bound the id space by however much scratch they actually allocated.
//
// The reservation is sized from the actual chunk count: [0, n) is split into
// balanced ranges (base = n/chunks plus one extra element for the first
// n%chunks chunks), so exactly the granted workers each get one chunk and no
// reserved worker sits idle starving concurrent loops until release.
func ForChunkedID(n, maxChunks int, body func(id, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := MaxWorkers()
	if workers > n {
		workers = n
	}
	if workers > maxChunks {
		workers = maxChunks
	}
	if workers > 1 {
		workers = 1 + reserve(workers-1)
	}
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	// Chunks after the first run on spawned workers; chunk 0 runs on the
	// calling goroutine so the caller always contributes.
	for id := 1; id < workers; id++ {
		lo, hi := chunkBounds(n, workers, id)
		wg.Add(1)
		go func(id, lo, hi int) {
			defer wg.Done()
			body(id, lo, hi)
		}(id, lo, hi)
	}
	_, hi0 := chunkBounds(n, workers, 0)
	body(0, 0, hi0)
	wg.Wait()
	release(workers - 1)
}

// ReduceSum computes the sum of f(i) for i in [0, n) with a parallel
// tree-style reduction. Partial sums are accumulated in float64 and each
// chunk's partial is stored at its chunk id, then the chunks that ran are
// summed in id order — float64 addition is not associative, so summing in
// goroutine-completion order would make the result depend on the scheduler
// even at a fixed worker count.
func ReduceSum(n int, f func(i int) float64) float64 {
	partials := make([]float64, MaxWorkers())
	chunks := 0
	ForChunkedID(n, len(partials), func(id, lo, hi int) {
		var s float64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		partials[id] = s
		if hi == n {
			chunks = id + 1 // the last chunk; ForChunkedID's wait publishes it
		}
	})
	var total float64
	for _, p := range partials[:chunks] {
		total += p
	}
	return total
}
