package serve

import (
	"fmt"
	"time"

	"seneca/internal/backend"
	"seneca/internal/energy"
	"seneca/internal/tensor"
)

// batchLoop is the heart of the serving tier: it pulls admitted jobs off
// the queue, coalesces them into micro-batches, and dispatches each batch
// to a worker with the lanes for it (cost-model routed across the
// heterogeneous backend pool, or a half-open probe when a breaker is
// recovering — see place). Dispatch capacity is counted in frame lanes: a
// worker has Pipeline × width of them, width being how many frames its device
// model runs in the time of one (widthOf), and a batch holds one lane per
// frame, or the worker's whole width once it is larger than that. So a lone
// request runs beside another lone frame on a dual-core runner instead of
// queueing behind it, while a backlog still collects into batches that own
// the runner: when every lane is taken the loop keeps collecting up to
// MaxBatch, then the queue fills behind it and Submit starts rejecting — that
// is the explicit backpressure path.
//
// A batch leaves once two things hold, and stays open — taking whatever
// arrives — until they do. Its window has passed: batchWindow past the head's
// admission, which costs the head latency and is therefore short or nothing.
// And some worker can take it: while none can the batch could not run anyway,
// so batching is free. A batch that has outgrown the free lanes waits for its
// lanes; it is never split, because a backlog has to find its way back to
// whole-runner batches (a full batch is far cheaper per frame than lone ones)
// and the barrier inside Execute would serialise a split-off tail anyway.
func (s *Server) batchLoop() {
	defer s.batcher.Done()
	cands := make([]backend.Candidate, len(s.pool))
	for {
		j, ok := <-s.queue
		if !ok {
			return // queue closed and fully drained: Shutdown may finish
		}
		batch := s.join(make([]*job, 0, s.cfg.MaxBatch), j)
		if len(batch) == 0 {
			continue // dead on arrival: never anchors a batch or waits on a lane
		}
		// open returns the queue while the batch may still grow, and nil —
		// never ready in a select — once it is full or the queue has closed.
		in := s.queue
		open := func() <-chan *job {
			if len(batch) < s.cfg.MaxBatch {
				return in
			}
			return nil
		}
		take := func(j *job, ok bool) {
			if !ok {
				in = nil
				return
			}
			batch = s.join(batch, j)
		}

		if wait := time.Until(batch[0].accepted.Add(s.batchWindow())); wait > 0 && open() != nil {
			timer := time.NewTimer(wait)
			for lingering := true; lingering && open() != nil; {
				select {
				case j, ok := <-open():
					take(j, ok)
				case <-timer.C:
					lingering = false
				}
			}
			timer.Stop()
		}
		var w *worker
		var lanes int
		var probe bool
		for { // backpressure point: wait for backend capacity
			for queued := true; queued && open() != nil; {
				select {
				case j, ok := <-open():
					take(j, ok)
				default:
					queued = false
				}
			}
			// A context that died while its job sat in the open batch still
			// died before execution was committed: same stage as one found
			// dead on the queue.
			live := batch[:0]
			for _, j := range batch {
				if err := j.ctx.Err(); err != nil {
					s.expireJob(j, expireStageQueue, err)
					continue
				}
				live = append(live, j)
			}
			batch = live
			if len(batch) == 0 {
				break
			}
			if w, lanes, probe = s.place(len(batch), cands); w != nil {
				break
			}
			select {
			case <-s.freed:
			case <-s.probePoll():
			case j, ok := <-open():
				take(j, ok)
			}
		}
		if w == nil {
			continue // every rider gave up; no lanes were taken
		}
		w.inflight.Add(1)
		w.staged.Add(int64(len(batch)))
		s.inflight.Add(1)
		go func() {
			defer s.inflight.Done()
			s.dispatch(w, batch, lanes, probe)
		}()
	}
}

// join moves one job from the queue into the forming batch. Formation-time
// liveness check: a job whose context died while it waited in the queue is
// dropped here instead.
func (s *Server) join(batch []*job, j *job) []*job {
	s.stats.depth.Add(-1)
	if err := j.ctx.Err(); err != nil {
		s.expireJob(j, expireStageQueue, err)
		return batch
	}
	return append(batch, j)
}

// timerFloor is the shortest wait the runtime can keep: in a process with
// nothing else to run a timer is an epoll_wait timeout, and
// runtime/netpoll_epoll.go rounds anything under a millisecond up to one.
const timerFloor = time.Millisecond

// batchWindow is how long past its admission a head job may be held back for
// company: an eighth of the smoothed lane-hold time, never more than MaxDelay,
// and nothing at all when that comes to less than timerFloor — the batch takes
// what is already queued and goes. A wait is only worth a bounded fraction of
// the service it is trying to amortise: a 10 ms model can afford the ≈1 ms
// that catches a lock-step client pair, but a 2 ms one asking for 0.25 ms
// would sleep a full millisecond for it, and since lone frames run side by
// side on a runner's lanes company no longer has to share a batch to share
// the board. Before the first batch completes there is no estimate and the
// window is MaxDelay.
func (s *Server) batchWindow() time.Duration {
	w := s.cfg.MaxDelay
	if est := time.Duration(s.serviceEWMA.Load()) / 8; est > 0 && est < w {
		w = est
	}
	if w < timerFloor {
		return 0
	}
	return w
}

// observeService folds one successful batch's lane-hold time (execute plus
// the SimPace sleep) into the service-time EWMA (α = 1/8) batchWindow reads.
func (s *Server) observeService(d time.Duration) {
	for {
		old := s.serviceEWMA.Load()
		est := int64(d)
		if old > 0 {
			est = old + (est-old)/8
		}
		if s.serviceEWMA.CompareAndSwap(old, est) {
			return
		}
	}
}

// dispatch runs one micro-batch on a claimed worker under the watchdog:
// expired jobs are failed without touching the backend, the rest execute
// functionally (bit-accurate INT8) while the backend's device model prices
// the batch. A batch that errors or outlives WatchdogTimeout counts
// against the worker's breaker and its jobs go back through the queue for
// another backend (failOrRedispatch), so clients only observe an error once
// a job's redispatch budget is spent. probe says whether the claim on w is its
// breaker's half-open probe.
func (s *Server) dispatch(w *worker, batch []*job, lanes int, probe bool) {
	defer s.release(w, lanes)
	defer w.inflight.Add(-1)

	live := make([]*job, 0, len(batch))
	for _, j := range batch {
		if err := j.ctx.Err(); err != nil {
			s.expireJob(j, expireStageDispatch, err)
			continue
		}
		live = append(live, j)
	}
	w.staged.Add(-int64(len(batch)))
	if len(live) == 0 {
		w.br.Release(probe) // a half-open probe that never ran stays claimable
		return
	}
	w.inflightFrames.Add(int64(len(live)))
	defer w.inflightFrames.Add(-int64(len(live)))
	imgs := make([]*tensor.Tensor, len(live))
	for i, j := range live {
		imgs[i] = j.img
	}
	seed := s.cfg.Seed
	if seed != 0 {
		seed += s.seq.Add(1)
	}

	// The backend executes in an inner goroutine that reports on a buffered
	// channel; this goroutine keeps sole ownership of the jobs and decides
	// between the result and the watchdog deadline. A stalled backend's late
	// result is simply never read — the backend itself has already been
	// evicted by fail, so nothing dispatches to it again.
	type runOut struct {
		masks [][]uint8
		res   energy.Report
		err   error
	}
	be := w.getBackend()
	w.dispatched.Add(1)
	ch := make(chan runOut, 1)
	execStart := time.Now()
	go func() {
		masks, res, err := be.Execute(imgs, seed)
		ch <- runOut{masks: masks, res: res, err: err}
	}()
	var out runOut
	watchdog := time.NewTimer(s.cfg.WatchdogTimeout)
	select {
	case out = <-ch:
		watchdog.Stop()
	case <-watchdog.C:
		s.stats.watchdog.Add(1)
		out.err = ErrStalled
	}
	w.batches.Add(1)
	if out.err != nil {
		w.fail(s)
		s.failOrRedispatch(live, out.err)
		return
	}
	w.br.Success()
	if s.cfg.SimPace > 0 {
		// Hold the lanes until the batch's paced wall time has elapsed: the
		// modelled device would still be busy, so the replica must be too.
		target := time.Duration(s.cfg.SimPace * float64(out.res.Duration))
		if elapsed := time.Since(execStart); elapsed < target {
			time.Sleep(target - elapsed)
		}
	}
	s.observeService(time.Since(execStart))
	// The batch's report — its frames, and the simulated time and energy its
	// device model charged — joins the worker's row, the only accumulator of
	// what the runners did (see Server.rows).
	s.stats.batches.Add(1)
	w.mu.Lock()
	w.served = w.served.Add(out.res)
	w.mu.Unlock()
	w.mBatchLat.Observe(out.res.Duration.Seconds())
	s.mOccupancy.Observe(float64(len(live)))
	// Counted before it is answered, like every other outcome: a client that
	// has its mask is already on the books.
	s.stats.completed.Add(uint64(len(live)))
	now := time.Now()
	for i, j := range live {
		s.mLatency.Observe(now.Sub(j.accepted).Seconds())
		j.done <- outcome{mask: out.masks[i], batch: len(live)}
	}
}

// Pipeline stages at which an admitted request's context can be found dead
// (Stats.ExpiredQueue / ExpiredDispatch and the stage label on
// seneca_serve_expired_total).
const (
	expireStageAdmission = "admission"
	expireStageQueue     = "queue"
	expireStageDispatch  = "dispatch"
)

// expireJob drops one admitted job whose context died before execution. The
// delivered error wraps both ErrExpiredInQueue and the context error, so
// clients can test either; the stage counter records where in the pipeline
// the request died. The job never touches a backend, so it consumes no
// simulated board time.
func (s *Server) expireJob(j *job, stage string, cause error) {
	s.stats.expired.Add(1)
	switch stage {
	case expireStageQueue:
		s.stats.expiredQueue.Add(1)
	case expireStageDispatch:
		s.stats.expiredDispatch.Add(1)
	}
	j.done <- outcome{err: fmt.Errorf("%w (at %s): %w", ErrExpiredInQueue, stage, cause)}
}

// failOrRedispatch returns a failed batch's jobs to the admission queue so
// a (different, or freshly replaced) backend retries them transparently. A
// job fails to its client only when its redispatch budget is spent, the
// queue is full, or the server is draining (batchLoop is exiting, so a
// re-queued job could be stranded).
func (s *Server) failOrRedispatch(jobs []*job, cause error) {
	for _, j := range jobs {
		j.redispatches++
		if j.redispatches > s.cfg.MaxRedispatch {
			s.stats.failed.Add(1)
			j.done <- outcome{err: fmt.Errorf("serve: request failed after %d attempts: %w", j.redispatches, cause)}
			continue
		}
		if s.enqueue(j, &s.stats.redispatched) != nil {
			s.stats.failed.Add(1)
			j.done <- outcome{err: cause}
		}
	}
}
