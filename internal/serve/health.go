package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seneca/internal/backend"
	"seneca/internal/energy"
	"seneca/internal/obs"
)

// BreakerState is one worker's circuit-breaker position.
type BreakerState int32

// Breaker states. A worker starts Closed; BreakerThreshold consecutive
// failures trip it Open (its backend is evicted and replaced); after
// BreakerCooldown it admits a single HalfOpen probe batch whose outcome
// either closes the breaker or re-opens it (evicting again).
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String returns the conventional lowercase breaker-state name.
func (b BreakerState) String() string {
	switch b {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// worker wraps one pooled backend with its load counters and health state.
// The breaker fields are guarded by mu; the load counters stay atomics so
// router scans and the stats snapshot never contend with dispatch.
type worker struct {
	id   int
	kind string // backend kind this slot runs, e.g. "dpu-sim"

	// busy counts the frame lanes held by staged or executing batches, out of
	// Pipeline × width. Only batchLoop takes lanes (place), so its check-then-
	// add cannot overshoot; dispatch gives them back (release).
	busy           atomic.Int32
	inflight       atomic.Int32 // batches executing or staged on this worker
	inflightFrames atomic.Int64 // frames currently executing
	staged         atomic.Int64 // frames routed here but not yet executing
	batches        atomic.Int64 // batches that finished (success or failure)
	dispatched     atomic.Int64 // batches handed to the backend's Execute
	framesDone     atomic.Int64 // frames completed successfully

	// Per-backend metric handles, shared by every worker of the same kind
	// (set by initMetrics; nil when metrics are disabled in tests that
	// construct workers by hand).
	mDispatch *obs.Counter
	mBatchLat *obs.Histogram

	mu        sync.Mutex
	be        backend.Backend
	width     int                    // frames be runs in the time of one (widthOf)
	mk        func() backend.Backend // eviction factory: builds a fresh backend
	state     BreakerState
	fails     int       // consecutive failures since the last success
	openUntil time.Time // when an Open breaker admits its probe
	probing   bool      // a HalfOpen probe batch is in flight

	simMu     sync.Mutex
	simBusy   time.Duration // accumulated simulated device-busy time
	simJoules float64
	simFrames int
}

// widthOf is how many frames a backend runs side by side in the time of one,
// by its own cost model: the largest n ≤ threads with Cost(n).Latency ≤
// Cost(1).Latency, and never more than the host has cores to run them on. The
// dual-core dpu-sim prices two frames like one (2, given two threads);
// cpu-int8 and gpu-sim price frames back to back (1). It is the one place a
// runner's capacity comes from: a Width method on backend.Backend would have
// every executor restate what its Cost already says.
func widthOf(be backend.Backend, threads int) int {
	limit := min(threads, runtime.GOMAXPROCS(0))
	one := be.Cost(1).Latency
	n := 1
	for n < limit && be.Cost(n+1).Latency <= one {
		n++
	}
	return n
}

// adopt installs a backend and sizes the worker's lanes from it. The caller
// holds w.mu, or has not shared w yet.
func (w *worker) adopt(be backend.Backend, threads int) {
	w.be = be
	w.width = widthOf(be, threads)
}

// lanesFor returns how many lanes a batch of the given frame count holds on
// this worker — one per frame while they fit side by side, the whole width
// once the batch is larger and owns the runner — out of its pipeline × width,
// and whether that many are free now.
func (w *worker) lanesFor(frames, pipeline int) (need int, free bool) {
	width := w.laneWidth()
	need = min(frames, width)
	return need, int(w.busy.Load())+need <= pipeline*width
}

// laneWidth returns the width of the worker's current backend.
func (w *worker) laneWidth() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.width
}

// getBackend returns the worker's current backend (replaced on eviction, so
// dispatch must read it through here rather than caching it).
func (w *worker) getBackend() backend.Backend {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.be
}

// breaker returns the current breaker state.
func (w *worker) breaker() BreakerState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state
}

// healthy reports whether the worker serves regular traffic (breaker
// closed and the backend's own self-check passes). Open and half-open
// workers count as degraded capacity.
func (w *worker) healthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state == BreakerClosed && w.be.Health() == nil
}

// tryClaim attempts to reserve the worker for one batch. A Closed worker
// always admits (Pipeline may put several batches in flight); an Open
// worker past its cooldown transitions to HalfOpen and admits exactly one
// probe at a time. The bool probe return marks the claim as that probe.
func (w *worker) tryClaim(now time.Time) (ok, probe bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch w.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if now.Before(w.openUntil) {
			return false, false
		}
		w.state = BreakerHalfOpen
		w.probing = true
		return true, true
	case BreakerHalfOpen:
		if w.probing {
			return false, false
		}
		w.probing = true
		return true, true
	}
	return false, false
}

// releaseClaim undoes a tryClaim that never executed a batch (every job in
// it had already expired), so a half-open worker does not leak its probe.
func (w *worker) releaseClaim() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.probing = false
}

// recordSuccess resets the failure streak and closes a half-open breaker
// whose probe just came back healthy.
func (w *worker) recordSuccess() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fails = 0
	w.probing = false
	w.state = BreakerClosed
}

// recordFailure counts one batch failure (error or watchdog stall) and
// returns true when it tripped the breaker open — at BreakerThreshold
// consecutive failures from Closed, or immediately on a failed HalfOpen
// probe. Tripping evicts the broken backend and installs a fresh one built
// from the retained device and program, so the cooldown-then-probe cycle
// exercises a clean runtime rather than the wedged one.
func (w *worker) recordFailure(s *Server) (tripped bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fails++
	w.probing = false
	switch w.state {
	case BreakerClosed:
		if w.fails < s.cfg.BreakerThreshold {
			return false
		}
	case BreakerOpen:
		// A straggler batch dispatched before the trip; stay open.
		return false
	}
	w.state = BreakerOpen
	w.openUntil = time.Now().Add(s.cfg.BreakerCooldown)
	if w.mk != nil {
		if nb := w.mk(); nb != nil {
			w.adopt(nb, s.cfg.Threads)
		}
	}
	s.stats.evictions.Add(1)
	return true
}

// recordSim folds one executed batch's simulated report into the worker's
// per-backend deployment accumulator (the per-kind FPS and FPS/W series).
func (w *worker) recordSim(res energy.Report) {
	w.simMu.Lock()
	w.simBusy += res.Duration
	w.simJoules += res.Joules
	w.simFrames += res.Frames
	w.simMu.Unlock()
}

// place routes a batch of the given frame count to a worker that can take it
// right now, claims the worker and takes the batch's lanes there; it returns
// nil when no worker can (every eligible one is busy, or the breakers are
// cooling) and batchLoop keeps the batch open. An open worker whose cooldown
// has expired takes priority — its half-open probe is the only way the pool
// regains capacity, and the broken backend behind it has already been
// replaced — otherwise the cost-model router places the batch: each healthy
// worker is priced by its backend's Cost prediction and current load, and
// backend.Route picks, among those with the lanes free, under the configured
// latency SLO and energy budget (a homogeneous pool degenerates to plain
// least-loaded dispatch). cands is batchLoop's scratch, one entry per worker.
func (s *Server) place(frames int, cands []backend.Candidate) (w *worker, lanes int) {
	now := time.Now()
	room := false
	for i, w := range s.pool {
		need, free := w.lanesFor(frames, s.cfg.Pipeline)
		if free && w.breaker() != BreakerClosed {
			if ok, probe := w.tryClaim(now); ok {
				if probe {
					s.stats.probes.Add(1)
				}
				w.busy.Add(int32(need))
				return w, need
			}
		}
		cands[i] = backend.Candidate{Healthy: w.healthy(), Full: !free, InFlight: int(w.inflight.Load())}
		room = room || cands[i].Healthy && free
	}
	if !room {
		return nil, 0 // not worth pricing: Cost runs the device model
	}
	for i, w := range s.pool {
		if cands[i].Healthy {
			cands[i].Cost = w.getBackend().Cost(frames)
		}
	}
	if i := backend.Route(s.router, frames, cands); i >= 0 {
		w := s.pool[i]
		if ok, _ := w.tryClaim(now); ok {
			need, _ := w.lanesFor(frames, s.cfg.Pipeline)
			w.busy.Add(int32(need))
			return w, need
		}
	}
	return nil, 0
}

// release gives a batch's lanes back to its worker and wakes batchLoop, which
// may be holding a batch open for them.
func (s *Server) release(w *worker, lanes int) {
	w.busy.Add(int32(-lanes))
	select {
	case s.freed <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// probePoll is how batchLoop learns that a cooldown has run out, which no
// release announces: while some worker is out of regular service it returns a
// channel that fires after a fraction of the cooldown, otherwise nil — never
// ready in a select.
func (s *Server) probePoll() <-chan time.Time {
	for _, w := range s.pool {
		if !w.healthy() {
			wait := s.cfg.BreakerCooldown / 16
			if wait <= 0 || wait > 5*time.Millisecond {
				wait = 5 * time.Millisecond
			}
			return time.After(wait)
		}
	}
	return nil
}

// Health is a point-in-time snapshot of the pool's self-healing state, as
// exported by GET /healthz and the chaos tests.
type Health struct {
	// Runners is the configured pool size, Healthy how many breakers are
	// closed. Degraded is Healthy < Runners (the /healthz "degraded"
	// status; the endpoint stays 200 as long as one runner is healthy).
	Runners  int  `json:"runners"`
	Healthy  int  `json:"healthy_runners"`
	Degraded bool `json:"degraded"`
	// Breakers holds each worker's breaker state, by worker id; Backends
	// holds the backend kind each worker runs and Widths how many frames its
	// device model runs in the time of one (a worker has Pipeline × that many
	// dispatch lanes), in the same order.
	Breakers []string `json:"breakers"`
	Backends []string `json:"backends"`
	Widths   []int    `json:"widths"`
	// Evictions counts backends replaced after tripping a breaker; Probes
	// counts half-open probe batches; Redispatches counts jobs re-queued
	// out of failed or stalled batches; WatchdogTimeouts counts batches
	// reclaimed from a stalled backend.
	Evictions        uint64 `json:"evictions"`
	Probes           uint64 `json:"probes"`
	Redispatches     uint64 `json:"redispatches"`
	WatchdogTimeouts uint64 `json:"watchdog_timeouts"`
}

// Health snapshots the self-healing state of the backend pool.
func (s *Server) Health() Health {
	h := Health{
		Runners:          len(s.pool),
		Breakers:         make([]string, len(s.pool)),
		Backends:         make([]string, len(s.pool)),
		Widths:           make([]int, len(s.pool)),
		Evictions:        s.stats.evictions.Load(),
		Probes:           s.stats.probes.Load(),
		Redispatches:     s.stats.redispatched.Load(),
		WatchdogTimeouts: s.stats.watchdog.Load(),
	}
	for i, w := range s.pool {
		st := w.breaker()
		h.Breakers[i] = st.String()
		h.Backends[i] = w.kind
		h.Widths[i] = w.laneWidth()
		if st == BreakerClosed {
			h.Healthy++
		}
	}
	h.Degraded = h.Healthy < h.Runners
	return h
}
