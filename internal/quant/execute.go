package quant

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"seneca/internal/tensor"
)

// executor takes an idle Executor off the graph's free list, constructing
// one when the list is empty (first use, or more concurrent callers than it
// holds).
func (q *QGraph) executor() (*Executor, error) {
	q.freeMu.Lock()
	if n := len(q.free); n > 0 {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		q.freeMu.Unlock()
		return e, nil
	}
	q.freeMu.Unlock()
	return NewExecutor(q)
}

// recycle returns an executor for the next frame. The list keeps at most
// GOMAXPROCS of them — as many frames as can make progress at once — and an
// executor beyond that is left to the collector.
func (q *QGraph) recycle(e *Executor) {
	q.freeMu.Lock()
	if len(q.free) < runtime.GOMAXPROCS(0) {
		q.free = append(q.free, e)
	}
	q.freeMu.Unlock()
}

// ForFrames runs frame(i) for every i in [0, n) on min(threads, GOMAXPROCS,
// n) goroutines, the caller's among them, and returns the error of the
// lowest failing index. It is the one frame fan-out under every batch
// executor (internal/backend's Execute, for every kind): frames are
// CPU-bound, so workers beyond the core count finish no batch sooner and only
// hold an arena each, and the cap is the free list's bound, so a batch's
// executors all return to the list. The workers are plain goroutines, outside
// internal/par's worker budget: a frame's layer loops still reserve from that
// budget, so while a batch runs they can add up to par.MaxWorkers-1 workers
// of their own.
func ForFrames(n, threads int, frame func(i int) error) error {
	workers := min(threads, runtime.GOMAXPROCS(0), n)
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = frame(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
	}
	return nil
}

// Execute runs the quantized graph functionally on one FP32 CHW image and
// returns the dequantized output tensor (probabilities if the graph ends in
// softmax, logits otherwise). This is the bit-accurate reference for the DPU
// simulator. Scratch memory comes from the graph's executor free list, so
// repeated calls (evaluation loops, serving) allocate only the result.
func (q *QGraph) Execute(img *tensor.Tensor) (*tensor.Tensor, error) {
	ex, err := q.executor()
	if err != nil {
		return nil, err
	}
	defer q.recycle(ex)
	return ex.Execute(img)
}

// ExecuteLabels runs the quantized graph and returns the per-pixel argmax
// class map directly from the INT8 logits (argmax commutes with softmax),
// exactly as the deployed DPU model returns INT8 masks.
func (q *QGraph) ExecuteLabels(img *tensor.Tensor) ([]uint8, error) {
	ex, err := q.executor()
	if err != nil {
		return nil, err
	}
	defer q.recycle(ex)
	return ex.ExecuteLabels(img)
}

// runTap executes the graph, invoking tap with the output of every node want
// accepts as a plain int8 CHW image at fix position fp (used by FFQ's
// layer-wise output matching). data is scratch: it is valid only for the
// duration of the callback.
func (q *QGraph) runTap(img *tensor.Tensor, want func(*QNode) bool, tap func(n *QNode, data []int8, fp FixPos)) error {
	ex, err := q.executor()
	if err != nil {
		return err
	}
	defer q.recycle(ex)
	if err := ex.checkInput(img); err != nil {
		return err
	}
	var data []int8
	for i := range ex.steps {
		s := &ex.steps[i]
		ex.exec(s, img)
		if !want(s.n) {
			continue
		}
		n := s.out.c * s.out.h * s.out.w
		if n > len(data) {
			data = make([]int8, n)
		}
		narrowPlane(s.out, data)
		tap(s.n, data[:n], s.out.fp)
	}
	return nil
}
